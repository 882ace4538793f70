package sql_test

import (
	"fmt"
	"strings"
	"testing"

	"jackpine/internal/engine"
	"jackpine/internal/sql"
)

// TestAccessLabelIsExecutedPath runs ordinate windows whose bound is a
// number, NULL, NaN or TEXT and kNN statements whose probe is a point,
// NULL, an empty geometry or TEXT, at parallelism 1 and 2. The planner reads those constants, so the access label, both
// EXPLAIN's and the executed statement's, must name the path the
// counters saw: spatial-index searches the index and scans no heap, knn
// browses it nearest-first and scans no heap, seqscan scans the heap
// and does neither.
func TestAccessLabelIsExecutedPath(t *testing.T) {
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
	mustRun("CREATE TABLE p (id INTEGER, g GEOMETRY)")
	var rows []string
	for k := 0; k < 300; k++ { // above the parallel threshold
		rows = append(rows, fmt.Sprintf("(%d, ST_MakePoint(%d, %d))", k, k%30, k/30))
	}
	mustRun("INSERT INTO p VALUES " + strings.Join(rows, ", "))
	mustRun("CREATE SPATIAL INDEX pg ON p (g)")

	nan := "(1e300 * 1e300) - (1e300 * 1e300)"
	cases := []struct{ query, path string }{
		{"SELECT id FROM p WHERE ST_XMAX(g) > 20", "spatial-index"},
		{"SELECT id FROM p WHERE ST_XMAX(g) > 20 AND ST_YMIN(g) <= 4", "spatial-index"},
		{"SELECT id FROM p WHERE ST_XMAX(g) > NULL", "seqscan"},
		{"SELECT id FROM p WHERE ST_XMAX(g) > " + nan, "seqscan"},
		{"SELECT id FROM p WHERE ST_YMIN(g) < 'x'", "seqscan"},
		{"SELECT id FROM p WHERE ST_XMAX(g) > 20 AND ST_YMIN(g) <= NULL", "seqscan"},
		{"SELECT id FROM p ORDER BY ST_Distance(g, ST_MakePoint(3, 4)) LIMIT 3", "knn"},
		{"SELECT id FROM p ORDER BY ST_Distance(g, NULL) LIMIT 3", "seqscan"},
		{"SELECT id FROM p ORDER BY ST_Distance(g, ST_GeomFromText('POINT EMPTY')) LIMIT 3", "seqscan"},
		{"SELECT id FROM p ORDER BY ST_Distance(g, 'x') LIMIT 3", "seqscan"},
	}
	for _, par := range []int{1, 2} {
		run.SetParallelism(par)
		for _, c := range cases {
			cfg := fmt.Sprintf("parallelism %d: %s", par, c.query)
			label := mustRun("EXPLAIN " + c.query).Rows[0][1].Text
			n.searches.Store(0)
			n.nearest.Store(0)
			n.mu.Lock()
			n.scans = nil
			n.mu.Unlock()
			res, err := run.Run(c.query)
			if err == nil && res.Access[0] != "p:"+label {
				t.Errorf("%s: ran as %s, EXPLAIN says %s", cfg, res.Access[0], label)
			}
			searched, browsed, scanned := n.searches.Load() > 0, n.nearest.Load() > 0, len(n.scans) > 0
			ran := fmt.Sprintf("searches %d, nearest %d, scans %d", n.searches.Load(), n.nearest.Load(), len(n.scans))
			switch {
			case searched && !browsed && !scanned:
				ran = "spatial-index"
			case browsed && !searched && !scanned:
				ran = "knn"
			case scanned && !searched && !browsed:
				ran = "seqscan"
			}
			if !strings.Contains(label, c.path) || !strings.Contains(label, ran) {
				t.Errorf("%s: labelled %s, ran %s, want %s", cfg, label, ran, c.path)
			}
		}
	}
}
