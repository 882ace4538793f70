package sql

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"jackpine/internal/storage"
)

// FuzzParse asserts the SQL front door never panics: whatever bytes a
// client sends over the wire reach Parse verbatim, so the parser must
// reject garbage with an error, not a crash. A ShapeCache warmed with a
// sibling of the text, the same shape with its literals redrawn,
// returns Parse's tree or Parse's error text. Successfully parsed
// statements additionally round-trip through CloneStatement (the cluster
// rewriter depends on clones being faithful: it edits a clone of the
// client's statement into each per-shard variant), and a SELECT stays
// read-only: binding every expression of it leaves the statement equal
// to a fresh parse of the same text.
//
// The committed corpus under testdata/fuzz/FuzzParse is generated by
// tools/gencorpus from the benchmark suites, so every micro query shape
// the framework can emit is a seed.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"SELECT COUNT(*) FROM edges a JOIN edges b ON ST_Intersects(b.geo, a.geo) WHERE a.id < b.id",
		"SELECT id, ST_Area(geo) FROM arealm WHERE ST_Contains(geo, ST_GeomFromText('POINT (1 2)'))",
		"SELECT name FROM pointlm ORDER BY ST_Distance(geo, ST_GeomFromText('POINT (0 0)')) LIMIT 5",
		"INSERT INTO t (id, geo) VALUES (1, ST_GeomFromText('LINESTRING (0 0, 1 1)'))",
		"CREATE TABLE t (id INT, geo GEOMETRY)",
		"CREATE SPATIAL INDEX ON edges (geo)",
		"UPDATE t SET name = 'x' WHERE id = 1",
		"DELETE FROM t WHERE ST_Disjoint(geo, ST_GeomFromText('POLYGON ((0 0, 1 0, 1 1, 0 0))'))",
		"EXPLAIN SELECT * FROM t",
		"VACUUM t",
		"DROP TABLE IF EXISTS t",
		"SELECT * FROM t WHERE a = 1 AND (b < 2 OR c >= 'x') GROUP BY d HAVING COUNT(*) > 1",
		"SELECT",
		"SELECT * FROM",
		"SELECT * FROM t WHERE ((((",
		"select /* comment */ 1",
		"'unterminated",
		"SELECT a FROM t WHERE x = -5 AND y > - -2.5 AND z < -(3)",
		"SELECT name FROM edges WHERE name = 'O''Brien' AND note = ''''",
		"SELECT a FROM t WHERE b < 1e+5 AND c > .5e-3",
		"SELECT a FROM t WHERE b = 9223372036854775808",
		"SELECT a FROM t ORDER BY a LIMIT 10 OFFSET 20",
		"EXPLAIN SELECT a FROM t WHERE b = 'x' LIMIT 1",
		"SELECT a FROM t WHERE b = 1\x01",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := Parse(src)
		var c ShapeCache
		if sib, ok := sibling(src); ok {
			_, _ = c.Parse(sib)
		}
		for range 2 { // a hit on the sibling's template, then perhaps on src's own
			got, gerr := c.Parse(src)
			if fmt.Sprint(gerr) != fmt.Sprint(err) || !reflect.DeepEqual(got, stmt) {
				t.Fatalf("ShapeCache.Parse(%q) = %v, %v; Parse = %v, %v", src, got, gerr, stmt, err)
			}
		}
		if err != nil {
			return
		}
		if stmt == nil {
			t.Fatalf("Parse(%q) returned nil statement and nil error", src)
		}
		// Clone fidelity: cloning is idempotent, so a clone of a clone is
		// deep-equal to the first clone. (The first clone is compared to
		// the second, not to the original, so slice normalization inside
		// CloneStatement does not produce false positives.)
		c1 := CloneStatement(stmt)
		c2 := CloneStatement(c1)
		if !reflect.DeepEqual(c1, c2) {
			t.Fatalf("CloneStatement not idempotent for %q", src)
		}
		if sel, ok := stmt.(*Select); ok {
			bindSelect(sel)
			if fresh, err := Parse(src); err != nil || !reflect.DeepEqual(stmt, fresh) {
				t.Fatalf("binding wrote the parsed statement of %q", src)
			}
		}
	})
}

// bindSelect binds every expression of sel against a fixed scope, each
// FROM and JOIN binding with the same five columns, ignoring errors.
func bindSelect(sel *Select) {
	cols := []Column{{"id", storage.TypeInt}, {"name", storage.TypeText}, {"geo", storage.TypeGeom},
		{"a", storage.TypeInt}, {"b", storage.TypeFloat}}
	scope := NewScope()
	exprs := []Expr{sel.Where}
	if sel.From != nil {
		scope.AddTable(sel.From.Name(), cols)
	}
	for _, j := range sel.Joins {
		scope.AddTable(j.Table.Name(), cols)
		exprs = append(exprs, j.On)
	}
	reg := NewRegistry(RegistryOptions{})
	for _, se := range sel.Exprs {
		_, _ = Bind(se.Expr, scope, reg, true) // errors only end the walk early
	}
	for _, k := range sel.OrderBy {
		exprs = append(exprs, k.Expr)
	}
	for _, e := range append(exprs, sel.GroupBy...) {
		_, _ = Bind(e, scope, reg, false)
	}
}

// sibling returns src with each literal the shape cache lifts redrawn
// to another of its kind, or false when src bypasses the cache.
func sibling(src string) (string, bool) {
	var sc shapeScratch
	if len(src) > maxShapeText || hasMark(src) || !sc.scan(src) {
		return "", false
	}
	var b strings.Builder
	last := 0
	for i, sp := range sc.spans {
		b.WriteString(src[last:sp.start])
		switch sp.mark {
		case markInt:
			b.WriteString(strconv.Itoa(i + 1))
		case markFloat:
			b.WriteString("." + strconv.Itoa(i) + "5")
		default:
			b.WriteString("'s" + strconv.Itoa(i) + "''q'")
		}
		last = sp.end
	}
	b.WriteString(src[last:])
	return b.String(), true
}
