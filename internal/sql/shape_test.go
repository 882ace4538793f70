package sql

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// sameParse fails unless c.Parse(src) returns what Parse(src) does: a
// deep-equal tree, or the same error text.
func sameParse(t *testing.T, c *ShapeCache, src string) {
	t.Helper()
	got, gerr := c.Parse(src)
	want, werr := Parse(src)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("%q: cache error %v, Parse error %v", src, gerr, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: cache parsed %#v, Parse %#v", src, got, want)
	}
}

// TestShapeCacheMatchesParse warms a cache with the first text of each
// group and checks that every text of the group, the first included,
// parses through it exactly as Parse parses it: literals redrawn, a
// unary minus folded into a literal, escaped quotes, exponents, an
// integer past int64, LIMIT and OFFSET counts, EXPLAIN, a string
// spelling a keyword the parser consumes, and a marker byte.
func TestShapeCacheMatchesParse(t *testing.T) {
	groups := [][]string{
		{
			"SELECT id, ST_AsText(geo) FROM edges WHERE ST_Intersects(geo, ST_GeomFromText('POLYGON((1 2, 3 4, 1 2))'))",
			"SELECT id, ST_AsText(geo) FROM edges WHERE ST_Intersects(geo, ST_GeomFromText('it''s'))",
			"SELECT id, ST_AsText(geo) FROM edges WHERE ST_Intersects(geo, ST_GeomFromText(''''))",
		},
		{
			"SELECT a FROM t WHERE x = -5 AND y < - -2.5 AND z BETWEEN -(1) AND 2 LIMIT 3 OFFSET 1",
			"SELECT a FROM t WHERE x = -7 AND y < - -1e+5 AND z BETWEEN -(9) AND 0 LIMIT 3 OFFSET 1",
			"SELECT a FROM t WHERE x = -9223372036854775808 AND y < - -1e400 AND z BETWEEN -(9) AND 0 LIMIT 3 OFFSET 1",
			"SELECT a FROM t WHERE x = 0 AND y < - -.5 AND z BETWEEN -(9) AND 0 LIMIT 4 OFFSET 1",
		},
		{
			"SELECT name FROM edges WHERE name = 'Main St' AND fromaddr <= 10 AND toaddr >= 10",
			"SELECT name FROM edges WHERE name = 'Oak' AND fromaddr <= 99999999999999999999 AND toaddr >= 3",
			"SELECT name FROM edges WHERE name = 'Oak' AND fromaddr <= 1.5 AND toaddr >= 3",
		},
		{
			"EXPLAIN SELECT a FROM t 'INNER' JOIN u ON 1 = 2",
			"EXPLAIN SELECT a FROM t 'INNER' JOIN u ON 3 = 4",
			"EXPLAIN SELECT a FROM t 'OUTER' JOIN u ON 3 = 4",
		},
		{
			"select -(5), 'a' || 'b', NOT x IS NULL FROM t -- 7 'c'\n ORDER BY 1 DESC",
			"select -(6), 'b' || '', NOT x IS NULL FROM t -- 7 'c'\n ORDER BY 2 DESC",
		},
		{
			"SELECT a FROM t WHERE b = 1\x01",
			"SELECT a FROM t WHERE b = '\x01'",
			"SELECT a FROM t WHERE b = 'unterminated",
			"SELECT a FROM t WHERE b = 1;",
			"SELECT a FROM t WHERE b = 2; x",
		},
	}
	for _, g := range groups {
		var c ShapeCache
		for _, src := range g {
			sameParse(t, &c, src)
		}
		for _, src := range g {
			sameParse(t, &c, src)
		}
	}
}

// TestShapeCacheSharesLiteralFreeSubtrees checks a hit's path copy: the
// nodes off every path to a literal are the template's own.
func TestShapeCacheSharesLiteralFreeSubtrees(t *testing.T) {
	var c ShapeCache
	const q = "SELECT id, ST_Area(geo) FROM t JOIN u ON ST_Touches(t.geo, u.geo) WHERE t.k = %d AND ST_IsValid(u.geo)"
	tmpl, _ := c.Parse(fmt.Sprintf(q, 1))
	hit, _ := c.Parse(fmt.Sprintf(q, 2))
	a, b := tmpl.(*Select), hit.(*Select)
	if a == b || a.Where == b.Where {
		t.Fatal("the hit shares the template's path to its literal")
	}
	if &a.Exprs[0] != &b.Exprs[0] || a.From != b.From || &a.Joins[0] != &b.Joins[0] {
		t.Fatal("the hit copied a literal-free clause")
	}
	aw, bw := a.Where.(*BinaryExpr), b.Where.(*BinaryExpr)
	if aw.Right != bw.Right || aw.Left == bw.Left {
		t.Fatal("the hit copied the wrong side of its WHERE")
	}
	if n := ShapeBuilds(&c); n != 1 {
		t.Fatalf("%d templates built, want 1", n)
	}
}

// TestShapeCacheBound fills a cache with three times its bound of
// distinct shapes: it keeps at most maxShapes templates, each of a text
// no longer than maxShapeText, and a longer text bypasses it.
func TestShapeCacheBound(t *testing.T) {
	var c ShapeCache
	for i := 0; i < 3*maxShapes; i++ {
		sameParse(t, &c, fmt.Sprintf("SELECT c%d FROM t WHERE a = %d", i, i))
	}
	if n := ShapeBuilds(&c); n != 3*maxShapes {
		t.Fatalf("%d templates built, want %d", n, 3*maxShapes)
	}
	if len(c.shapes) > maxShapes {
		t.Fatalf("%d templates kept, bound %d", len(c.shapes), maxShapes)
	}
	for k := range c.shapes {
		if len(k) > maxShapeText {
			t.Fatalf("kept a %d-byte key, bound %d", len(k), maxShapeText)
		}
	}
	long := "SELECT a FROM t WHERE b = '" + strings.Repeat("x", maxShapeText) + "'"
	before := len(c.shapes)
	for range 2 {
		sameParse(t, &c, long)
	}
	if n := ShapeBuilds(&c); n != 3*maxShapes || len(c.shapes) != before {
		t.Fatalf("a %d-byte text entered the cache", len(long))
	}
}

// BenchmarkShapeCacheParse is the parse layer's bench: the statements
// of the map-browsing classes, each with a fresh literal per
// iteration, through Parse and through a warm ShapeCache.
func BenchmarkShapeCacheParse(b *testing.B) {
	classes := map[string]string{
		"window": "SELECT id, ST_AsText(geo) FROM edges WHERE ST_Intersects(geo, ST_MakeEnvelope(%d.5, 1200, %d.25, 1500))",
		"lookup": "SELECT fromaddr, toaddr, geo FROM edges WHERE name = 'Main %d' AND fromaddr <= %d AND toaddr >= 17",
		"knn":    "SELECT name, fromaddr, toaddr, geo FROM edges ORDER BY ST_Distance(geo, ST_MakePoint(%d.5, %d.75)) LIMIT 1",
	}
	for name, q := range classes {
		b.Run(name+"/parse", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Parse(fmt.Sprintf(q, i, i+7)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/shape-cache", func(b *testing.B) {
			var c ShapeCache
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.Parse(fmt.Sprintf(q, i, i+7)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
