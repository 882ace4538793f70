package sql

import (
	"strings"
	"testing"

	"jackpine/internal/storage"
)

// evalStr parses and evaluates a standalone expression against an empty
// row.
func evalStr(t *testing.T, expr string) (storage.Value, error) {
	t.Helper()
	stmt, err := Parse("SELECT " + expr + " FROM t")
	if err != nil {
		t.Fatalf("parse %q: %v", expr, err)
	}
	e := stmt.(*Select).Exprs[0].Expr
	reg := NewRegistry(RegistryOptions{})
	return evalConst(e, reg)
}

func TestEvalArithmetic(t *testing.T) {
	cases := []struct {
		expr string
		want string
	}{
		{"1 + 2 * 3", "7"},
		{"(1 + 2) * 3", "9"},
		{"7 / 2", "3"},     // integer division
		{"7.0 / 2", "3.5"}, // float division
		{"7 % 3", "1"},
		{"-5 + 2", "-3"},
		{"2 * 3.5", "7"},
		{"'a' || 'b' || 1", "ab1"},
		{"ABS(-4)", "4"},
		{"COALESCE(NULL, NULL, 9)", "9"},
		{"NULL + 1", "NULL"},
		{"1 = 1.0", "true"},
		{"1 < 2 AND 3 > 2", "true"},
		{"1 > 2 OR 2 > 1", "true"},
		{"NOT FALSE", "true"},
		{"NOT NULL", "NULL"},
		{"NULL AND FALSE", "false"}, // false short-circuits
		{"NULL OR TRUE", "true"},    // true short-circuits
		{"NULL AND TRUE", "NULL"},
		{"5 BETWEEN 1 AND 9", "true"},
		{"0 BETWEEN 1 AND 9", "false"},
		{"NULL BETWEEN 1 AND 2", "NULL"},
		{"NULL IS NULL", "true"},
		{"1 IS NOT NULL", "true"},
		{"'oak st' LIKE '%st'", "true"},
	}
	for _, tc := range cases {
		v, err := evalStr(t, tc.expr)
		if err != nil {
			t.Errorf("%s: %v", tc.expr, err)
			continue
		}
		if v.String() != tc.want {
			t.Errorf("%s = %s, want %s", tc.expr, v, tc.want)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	cases := []struct {
		expr   string
		reason string
	}{
		{"1 / 0", "division by zero"},
		{"1 % 0", "division by zero"},
		{"1.5 % 2", "integer"},
		{"'a' + 1", "arithmetic"},
		{"'a' < ST_MakePoint(1, 2)", "compare"},
		{"ST_NoSuchFunction(1)", "not supported"},
		{"ST_Area(1)", "GEOMETRY"},
		{"ST_YMAX('x')", "ST_YMAX: argument 1 is TEXT, want GEOMETRY"},
		{"ST_Buffer(ST_MakePoint(0,0))", "argument"},
		{"ABS('x')", "ABS"},
		{"1 LIKE 2", "text"},
		{"ST_Relate(ST_MakePoint(0,0), ST_MakePoint(1,1), 'BAD')", "pattern"},
	}
	for _, tc := range cases {
		_, err := evalStr(t, tc.expr)
		if err == nil {
			t.Errorf("%s: expected error about %q", tc.expr, tc.reason)
			continue
		}
		if !strings.Contains(err.Error(), tc.reason) {
			t.Errorf("%s: error %q does not mention %q", tc.expr, err, tc.reason)
		}
	}
}

func TestEvalSpatialExpressions(t *testing.T) {
	cases := []struct {
		expr string
		want string
	}{
		{"ST_AsText(ST_MakePoint(1, 2))", "POINT (1 2)"},
		{"ST_Area(ST_MakeEnvelope(0, 0, 4, 3))", "12"},
		{"ST_Intersects(ST_MakePoint(1, 1), ST_MakeEnvelope(0, 0, 2, 2))", "true"},
		{"ST_Distance(ST_MakePoint(0, 0), ST_MakePoint(3, 4))", "5"},
		{"ST_GeometryType(ST_GeomFromText('LINESTRING (0 0, 1 1)'))", "LINESTRING"},
		{"ST_IsValid(ST_GeomFromText('POLYGON ((0 0, 1 0, 1 1, 0 1, 0 0))'))", "true"},
		{"ST_NumPoints(ST_GeomFromText('LINESTRING (0 0, 1 1, 2 2)'))", "3"},
		{"ST_Dimension(ST_MakePoint(0, 0))", "0"},
		{"ST_X(ST_Centroid(ST_MakeEnvelope(0, 0, 4, 4)))", "2"},
		{"ST_Area(ST_Intersection(ST_MakeEnvelope(0,0,2,2), ST_MakeEnvelope(1,1,3,3)))", "1"},
	}
	for _, tc := range cases {
		v, err := evalStr(t, tc.expr)
		if err != nil {
			t.Errorf("%s: %v", tc.expr, err)
			continue
		}
		if v.String() != tc.want {
			t.Errorf("%s = %s, want %s", tc.expr, v, tc.want)
		}
	}
}

func TestEvalNullPropagationThroughSpatialFunctions(t *testing.T) {
	exprs := []string{
		"ST_Area(NULL)",
		"ST_Intersects(NULL, ST_MakePoint(0, 0))",
		"ST_Buffer(NULL, 5)",
		"ST_Distance(ST_MakePoint(0,0), NULL)",
		"ST_AsText(NULL)",
	}
	for _, expr := range exprs {
		v, err := evalStr(t, expr)
		if err != nil {
			t.Errorf("%s: %v", expr, err)
			continue
		}
		if !v.IsNull() {
			t.Errorf("%s = %s, want NULL", expr, v)
		}
	}
}
