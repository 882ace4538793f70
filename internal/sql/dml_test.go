package sql_test

import (
	"fmt"
	"strings"
	"testing"

	"jackpine/internal/engine"
	"jackpine/internal/sql"
)

// TestDMLUsesPlanner pins UPDATE and DELETE row selection to the SELECT
// planner, serial and parallel, batch on and off: a window DELETE
// searches the spatial index once and fetches only its candidates, an
// equality on an indexed column seeks the attribute index instead of
// scanning, and a lookup by an unindexed column scans the heap decoding
// that column alone.
func TestDMLUsesPlanner(t *testing.T) {
	var n accessCounts
	run := sql.NewRunner(countingCatalog{engine.Open(engine.GaiaDB()), &n},
		sql.NewRegistry(sql.RegistryOptions{}))
	mustRun := func(q string) *sql.Result {
		t.Helper()
		res, err := run.Run(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return res
	}
	mustRun("CREATE TABLE p (id INTEGER, tag TEXT, g GEOMETRY)")
	var rows []string
	for k := 0; k < 600; k++ {
		rows = append(rows, fmt.Sprintf("(%d, 't%d', ST_MakePoint(%d, 0))", k, k%10, k))
	}
	mustRun("INSERT INTO p VALUES " + strings.Join(rows, ", "))
	mustRun("CREATE SPATIAL INDEX pg ON p (g)")
	mustRun("CREATE INDEX pt ON p (tag)")

	reset := func() {
		n.searches.Store(0)
		n.seeks.Store(0)
		n.fetched.Store(0)
		n.scans = nil
	}
	cfg := 0
	for _, par := range []int{1, 4} {
		for _, batch := range []bool{false, true} {
			run.SetParallelism(par)
			run.SetBatchExec(batch)
			name := fmt.Sprintf("parallelism %d, batch %v", par, batch)
			// Each configuration works on its own hundred points.
			base := 100 * cfg
			cfg++

			reset()
			q := fmt.Sprintf("DELETE FROM p WHERE ST_Intersects(g, ST_MakeEnvelope(%g, -1, %g, 1))",
				float64(base)-0.5, float64(base)+9.5)
			if res := mustRun(q); res.Affected != 10 {
				t.Errorf("%s: window DELETE affected %d rows, want 10", name, res.Affected)
			}
			if s, f := n.searches.Load(), n.fetched.Load(); s != 1 || f != 10 || len(n.scans) != 0 {
				t.Errorf("%s: window DELETE: %d searches, %d rows fetched, %d heap scans; want 1, 10, 0",
					name, s, f, len(n.scans))
			}

			reset()
			q = fmt.Sprintf("UPDATE p SET tag = 'done' WHERE tag = 't%d'", cfg)
			if res := mustRun(q); res.Affected == 0 {
				t.Errorf("%s: %s matched nothing", name, q)
			}
			if s := n.seeks.Load(); s != 1 || len(n.scans) != 0 {
				t.Errorf("%s: %s: %d index seeks, %d heap scans; want 1, 0", name, q, s, len(n.scans))
			}

			reset()
			q = fmt.Sprintf("DELETE FROM p WHERE id = %d", base+50)
			if res := mustRun(q); res.Affected != 1 {
				t.Errorf("%s: %s affected %d rows, want 1", name, q, res.Affected)
			}
			if len(n.scans) == 0 {
				t.Errorf("%s: %s ran no heap scan", name, q)
			}
			for _, proj := range n.scans {
				if fmt.Sprint(proj.Need) != "[true false false]" || proj.MBRCol != -1 {
					t.Errorf("%s: %s scanned with Need %v, MBRCol %d; want only id decoded, no prefilter",
						name, q, proj.Need, proj.MBRCol)
				}
			}
		}
	}
}
