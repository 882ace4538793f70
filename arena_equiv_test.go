package jackpine

import (
	"fmt"
	"strings"
	"testing"
)

// TestArenaLifetimeEquivalence is the rail for the batch coordinate
// arena. Filter-only geometry columns decode into memory that the next
// batch recycles, so a geometry a statement hands onward must never come
// from it. Every shape that holds rows across batch boundaries selects
// the raw geometry column of a table eight batches long: ORDER BY (over a
// full scan, a spatial-index window, a B-tree seek and a kNN source, the
// last two behind a filter that reads the geometry), an aggregate's
// first row, both sides of a join, the parallel gather, and the DML
// row-id sink. The brute-force oracle (refexec) must admit every serial
// result, and the parallel engine must return it byte for byte.
func TestArenaLifetimeEquivalence(t *testing.T) {
	const n = 2000
	var vals []string
	for i := 0; i < n; i++ {
		// 6×6 squares on a 5-unit lattice: each overlaps its neighbours.
		x, y := float64(i%40)*5, float64(i/40)*5
		vals = append(vals, fmt.Sprintf("(%d, 'k%d', ST_GeomFromText('POLYGON ((%g %g, %g %g, %g %g, %g %g, %g %g))'))",
			i, i%7, x, y, x+6, y, x+6, y+6, x, y+6, x, y))
	}
	load := func(eng *Engine) *Engine {
		eng.MustExec("CREATE TABLE shapes (id INTEGER, kind TEXT, geo GEOMETRY)")
		eng.MustExec("INSERT INTO shapes VALUES " + strings.Join(vals, ", "))
		eng.MustExec("CREATE SPATIAL INDEX shapes_geo ON shapes (geo)")
		eng.MustExec("CREATE INDEX shapes_kind ON shapes (kind)")
		return eng
	}
	ser := load(OpenEngine(GaiaDB(), WithParallelism(1)))
	par := load(OpenEngine(GaiaDB(), WithParallelism(4)))

	// check runs sql on both engines; minRows keeps a case from passing
	// vacuously on a result too small to span batches, and access, when
	// set, is the stage-0 path it must take.
	check := func(sql string, minRows int, access string) {
		t.Helper()
		want := oracleExec(t, ser, sql)
		if rows := strings.Count(want, "\n"); rows < minRows {
			t.Fatalf("%s: %d rows, want at least %d", sql, rows, minRows)
		}
		if got := execResult(par.Exec(sql)); got != want {
			t.Errorf("%s: the parallel engine diverges from the serial one\nwant:\n%.600s\ngot:\n%.600s", sql, want, got)
		}
		if access != "" {
			if got := ser.MustExec("EXPLAIN " + sql).Rows[0][1].Text; got != access {
				t.Errorf("%s: stage 0 plans %s, want %s", sql, got, access)
			}
		}
	}
	window := "ST_MakeEnvelope(20, 20, 140, 190)"
	check("SELECT id, geo FROM shapes ORDER BY id DESC", n, "")
	check("SELECT id, geo FROM shapes WHERE ST_Intersects(geo, "+window+") ORDER BY id DESC", 512, "")
	check("SELECT id, geo FROM shapes WHERE kind = 'k3' AND ST_Area(geo) > 0 ORDER BY id DESC", 257, "btree-seek")
	check("SELECT id, geo FROM shapes WHERE ST_Area(geo) > 0 ORDER BY ST_Distance(geo, ST_MakePoint(100, 100)) LIMIT 300",
		300, "knn")
	check("SELECT id, geo FROM shapes WHERE id % 3 <> 0", 512, "")
	check("SELECT kind, geo, COUNT(*) FROM shapes GROUP BY kind", 7, "")
	check("SELECT a.id, a.geo, b.geo FROM shapes a JOIN shapes b ON b.id = a.id + 1", 512, "")
	check("SELECT a.id, b.id, b.geo FROM shapes a JOIN shapes b ON ST_Intersects(a.geo, b.geo) WHERE a.id % 4 = 0", 512, "")
	// The row-id sink: the window's geometry is filter-only, so it decodes
	// into the arena, yet the rewritten rows must match.
	check("UPDATE shapes SET kind = 'hit' WHERE ST_Intersects(geo, "+window+")", 0, "")
	check("SELECT id, kind, geo FROM shapes", n, "")

	requireNoPins(t, ser)
	requireNoPins(t, par)
}
