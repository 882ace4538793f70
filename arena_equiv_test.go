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
// full scan and over a spatial-index window), an aggregate's first row,
// both sides of a join, the parallel gather, and the DML row-id sink.
// Each result must equal the serial row-path reference byte for byte.
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
		return eng
	}
	ref := load(OpenEngine(GaiaDB(), WithParallelism(1), WithBatchExec(false)))
	engs := []struct {
		name string
		eng  *Engine
	}{
		{"batch, serial", load(OpenEngine(GaiaDB(), WithParallelism(1)))},
		{"batch, parallel", load(OpenEngine(GaiaDB(), WithParallelism(4)))},
	}

	// check runs sql everywhere; minRows keeps a case from passing
	// vacuously on a result too small to span batches.
	check := func(sql string, minRows int) {
		t.Helper()
		want, err := ref.Exec(sql)
		if err != nil {
			t.Fatalf("%s: reference: %v", sql, err)
		}
		if len(want.Rows) < minRows {
			t.Fatalf("%s: reference returns %d rows, want at least %d", sql, len(want.Rows), minRows)
		}
		for _, e := range engs {
			got, err := e.eng.Exec(sql)
			if err != nil {
				t.Fatalf("%s (%s): %v", sql, e.name, err)
			}
			if w, g := canonRows(&ResultSet{Rows: want.Rows}), canonRows(&ResultSet{Rows: got.Rows}); g != w {
				t.Errorf("%s (%s) diverges from the row-path reference\nwant:\n%.600s\ngot:\n%.600s", sql, e.name, w, g)
			}
			if got.Affected != want.Affected {
				t.Errorf("%s (%s): %d rows affected, reference %d", sql, e.name, got.Affected, want.Affected)
			}
		}
	}
	window := "ST_MakeEnvelope(20, 20, 140, 190)"
	check("SELECT id, geo FROM shapes ORDER BY id DESC", n)
	check("SELECT id, geo FROM shapes WHERE ST_Intersects(geo, "+window+") ORDER BY id DESC", 512)
	check("SELECT id, geo FROM shapes WHERE id % 3 <> 0", 512)
	check("SELECT kind, geo, COUNT(*) FROM shapes GROUP BY kind", 7)
	check("SELECT a.id, a.geo, b.geo FROM shapes a JOIN shapes b ON b.id = a.id + 1", 512)
	check("SELECT a.id, b.id, b.geo FROM shapes a JOIN shapes b ON ST_Intersects(a.geo, b.geo) WHERE a.id % 4 = 0", 512)
	// The row-id sink: the window's geometry is filter-only, so it decodes
	// into the arena, yet the rewritten rows must match.
	check("UPDATE shapes SET kind = 'hit' WHERE ST_Intersects(geo, "+window+")", 0)
	check("SELECT id, kind, geo FROM shapes", n)

	for _, e := range engs {
		requireNoPins(t, e.eng)
	}
	requireNoPins(t, ref)
}
