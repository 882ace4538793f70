package sql

import (
	"reflect"
	"testing"

	"jackpine/internal/storage"
)

// FuzzParse asserts the SQL front door never panics: whatever bytes a
// client sends over the wire reach Parse verbatim, so the parser must
// reject garbage with an error, not a crash. Successfully parsed
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
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := Parse(src)
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
