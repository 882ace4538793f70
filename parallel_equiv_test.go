package jackpine

import (
	"strings"
	"testing"
)

// canonRows renders a result set into one comparable string: one line
// per row, cells joined by a unit separator, in the order the engine
// returned them. The executor's shard-order merge guarantees parallel
// plans reproduce the serial row order exactly, so the comparison is
// over the ordered rows, not a sorted multiset.
func canonRows(rs *ResultSet) string {
	var b strings.Builder
	for _, row := range rs.Rows {
		for j, v := range row {
			if j > 0 {
				b.WriteByte(0x1f)
			}
			b.WriteString(v.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// requireNoPins empties eng's buffer pool, which fails while any page is
// still pinned: every statement a rail ran must have released every pin
// it took, on its error and early-exit paths too.
func requireNoPins(t *testing.T, eng *Engine) {
	t.Helper()
	if err := eng.Pool().DropAll(); err != nil {
		t.Errorf("pin leak: %v", err)
	}
}

// TestParallelEquivalence runs the entire micro suite (MT1–MT15,
// MA1–MA12) at parallelism 1, 2, and 8 and requires byte-identical
// results from every query: same columns, same rows, same order, same
// float rendering (SUM/AVG accumulate exactly, so shard boundaries
// cannot perturb low-order bits).
func TestParallelEquivalence(t *testing.T) {
	ds := GenerateDataset(ScaleSmall, 1)
	eng := OpenEngine(GaiaDB(), WithParallelism(1))
	if err := LoadDataset(eng, ds, true); err != nil {
		t.Fatal(err)
	}
	ctx := NewQueryContext(ds)
	conn, err := Connect(eng).Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	if eng.Parallelism() != 1 {
		t.Fatalf("WithParallelism(1): engine reports %d", eng.Parallelism())
	}

	baseline := make(map[string]string)
	for _, q := range MicroSuite() {
		rs, err := conn.Query(q.SQL(ctx, 0))
		if err != nil {
			t.Fatalf("%s serial: %v", q.ID, err)
		}
		baseline[q.ID] = canonRows(rs)
	}

	for _, par := range []int{2, 8} {
		eng.SetParallelism(par)
		for _, q := range MicroSuite() {
			rs, err := conn.Query(q.SQL(ctx, 0))
			if err != nil {
				t.Fatalf("%s at parallelism %d: %v", q.ID, par, err)
			}
			if got := canonRows(rs); got != baseline[q.ID] {
				t.Errorf("%s: parallelism %d diverges from serial\nserial:\n%s\nparallel:\n%s",
					q.ID, par, baseline[q.ID], got)
			}
		}
	}

	// The sweep above must actually exercise the parallel path: at
	// parallelism 8 the scan-heavy MA2 plan reports a parallel access.
	eng.SetParallelism(8)
	res, err := eng.Exec("SELECT SUM(ST_Length(geo)) FROM edges")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Access) == 0 || !strings.Contains(res.Access[0], "parallel seqscan (8 workers)") {
		t.Errorf("MA2 at parallelism 8: access = %v, want parallel seqscan", res.Access)
	}
	requireNoPins(t, eng)
}
