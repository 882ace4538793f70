package sql

import (
	"fmt"
	"math"
	"testing"

	"jackpine/internal/geom"
	"jackpine/internal/storage"
)

// TestComparatorMatchesEval requires the compiled comparator to make
// the keep/drop decision of Eval + truthy, with the same error text, for
// every comparison operator over every pair of operands drawn from
// NULL, small and 2^53-adjacent ints, floats (NaN included), text, bool
// and geometry, in the column-column, column-literal and
// literal-column shapes. The two shapes with a literal also push down
// into a batch scan's pre-copy test, which runs here on the encoded
// tuple: it may drop a row only when the comparator drops it without
// error, and it must drop every such row unless both operands are
// geometries.
func TestComparatorMatchesEval(t *testing.T) {
	const p53 = int64(1) << 53
	vals := []storage.Value{
		storage.Null(),
		storage.NewInt(0), storage.NewInt(1), storage.NewInt(-1),
		storage.NewInt(p53), storage.NewInt(p53 + 1), storage.NewInt(-p53 - 1),
		storage.NewFloat(0), storage.NewFloat(0.5), storage.NewFloat(1),
		storage.NewFloat(float64(p53)), storage.NewFloat(math.NaN()), storage.NewFloat(math.Inf(-1)),
		storage.NewText(""), storage.NewText("a"), storage.NewText("b"),
		storage.NewBool(false), storage.NewBool(true),
		storage.NewGeom(geom.Pt(1, 2)), storage.NewGeom(geom.Pt(3, 4)),
	}
	reg := NewRegistry(RegistryOptions{})
	col := func(i int) Expr { return &colRef{src: &ColumnRef{Column: fmt.Sprint("c", i)}, idx: i} }
	lit := func(v storage.Value) Expr { return &Literal{Value: v} }
	b := new(storage.ColBatch)
	cases, pushed := 0, 0
	for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
		for _, l := range vals {
			for _, r := range vals {
				row := []storage.Value{l, r}
				for _, e := range []*BinaryExpr{
					{Op: op, Left: col(0), Right: col(1)},
					{Op: op, Left: col(0), Right: lit(r)},
					{Op: op, Left: lit(l), Right: col(1)},
				} {
					c := compileComparison(e)
					if c == nil {
						t.Fatalf("%s did not compile", e)
					}
					v, evalErr := Eval(e, row, reg)
					want := evalErr == nil && !v.IsNull() && truthy(v)
					got, err := c.keep(row)
					if got != want || fmt.Sprint(err) != fmt.Sprint(evalErr) {
						t.Errorf("%v %s %v (%s): comparator keep=%v err=%v, Eval keep=%v err=%v",
							l, op, r, e, got, err, want, evalErr)
					}
					cc, ok := c.pushdown(len(row))
					_, lcol := e.Left.(*colRef)
					_, rcol := e.Right.(*colRef)
					if ok != (lcol != rcol) {
						t.Fatalf("%s: pushdown ok=%v, want it for one column and one literal", e, ok)
					}
					if ok {
						b.Reset(len(row), len(row))
						filter := storage.TupleFilter{MBRCol: -1, Compares: []storage.ColCompare{cc}}
						if err := b.Append(0, storage.EncodeTuple(row), &filter); err != nil {
							t.Fatal(err)
						}
						dropped := b.Len() == 0
						bothGeom := l.Type == storage.TypeGeom && r.Type == storage.TypeGeom
						if dropped && (got || err != nil) || !dropped && !got && err == nil && !bothGeom {
							t.Errorf("%v %s %v (%s): pushed-down test dropped=%v, comparator keep=%v err=%v",
								l, op, r, e, dropped, got, err)
						}
						pushed++
					}
					cases++
				}
			}
		}
	}
	if want := 6 * len(vals) * len(vals) * 3; cases != want || pushed != cases*2/3 {
		t.Fatalf("ran %d cases (%d pushed down), want %d (%d)", cases, pushed, want, want*2/3)
	}
}

// TestCompileComparisonShapes pins which conjuncts compile: comparisons
// whose operands are bound column references or literals, nothing else.
func TestCompileComparisonShapes(t *testing.T) {
	col := &colRef{src: &ColumnRef{Column: "c"}, idx: 0}
	unbound := &ColumnRef{Column: "c"}
	one := &Literal{Value: storage.NewInt(1)}
	for _, tc := range []struct {
		e    Expr
		want bool
	}{
		{&BinaryExpr{Op: "=", Left: col, Right: one}, true},
		{&BinaryExpr{Op: ">=", Left: one, Right: col}, true},
		{&BinaryExpr{Op: "<>", Left: one, Right: one}, true},
		{&BinaryExpr{Op: "=", Left: unbound, Right: one}, false},
		{&BinaryExpr{Op: "LIKE", Left: col, Right: one}, false},
		{&BinaryExpr{Op: "+", Left: col, Right: one}, false},
		{&BinaryExpr{Op: "=", Left: &BinaryExpr{Op: "+", Left: col, Right: one}, Right: one}, false},
		{&BinaryExpr{Op: "<", Left: col, Right: &FuncCall{Name: "ABS", Args: []Expr{one}}}, false},
		{&UnaryExpr{Op: "NOT", Expr: &BinaryExpr{Op: "=", Left: col, Right: one}}, false},
		{col, false},
	} {
		if got := compileComparison(tc.e) != nil; got != tc.want {
			t.Errorf("compileComparison(%s) compiled = %v, want %v", tc.e, got, tc.want)
		}
	}
}
