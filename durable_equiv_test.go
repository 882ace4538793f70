package jackpine

import (
	"path/filepath"
	"testing"
)

// TestDurableEquivalence is the durability acceptance sweep: the whole
// micro suite (MT1–MT15, MA1–MA12) must return byte-identical results
// from three engines — the in-memory baseline, the durable engine that
// loaded the dataset, and a fresh engine reopened on that durable
// engine's directory after a clean close (recovery replays the log,
// the catalog is read back from its reserved pages, and every index
// rebuilds). The macro scenarios then run the same operations on both
// engines — including MS5's UPDATE, which commits through the WAL —
// and the micro sweep repeats after the mutations and again after the
// reopen. Same columns, same rows, same order, same float rendering:
// the page file and WAL are a transparent layer under the heap, never
// a semantic one.
func TestDurableEquivalence(t *testing.T) {
	ds := GenerateDataset(ScaleSmall, 1)
	ctx := NewQueryContext(ds)
	dir := filepath.Join(t.TempDir(), "db")

	mem := OpenEngine(GaiaDB())
	if err := LoadDataset(mem, ds, true); err != nil {
		t.Fatal(err)
	}
	dur, err := OpenDurable(GaiaDB(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := LoadDataset(dur, ds, true); err != nil {
		t.Fatal(err)
	}

	memConn, err := Connect(mem).Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer memConn.Close()

	// The suite's SQL for a fixed iteration is deterministic, so the
	// same statement strings replay against every engine.
	microSweep := func(conn Conn, phase string) {
		t.Helper()
		for _, q := range MicroSuite() {
			s := q.SQL(ctx, 0)
			want, err := memConn.Query(s)
			if err != nil {
				t.Fatalf("%s baseline %s: %v", phase, q.ID, err)
			}
			got, err := conn.Query(s)
			if err != nil {
				t.Fatalf("%s durable %s: %v", phase, q.ID, err)
			}
			if canonRows(got) != canonRows(want) {
				t.Errorf("%s: %s diverges from the in-memory baseline\nmem:\n%.400s\ndurable:\n%.400s",
					phase, q.ID, canonRows(want), canonRows(got))
			}
		}
	}

	durConn, err := Connect(dur).Connect()
	if err != nil {
		t.Fatal(err)
	}
	microSweep(durConn, "loaded")

	// Macro operations, mutations included, applied identically to both
	// engines. Row counts per operation must agree, and the micro state
	// must still be identical afterwards.
	for _, sc := range MacroSuite() {
		for i := 0; i < 3; i++ {
			wantN, err := sc.Run(ctx, memConn, i)
			if err != nil {
				t.Fatalf("macro baseline %s op %d: %v", sc.ID, i, err)
			}
			gotN, err := sc.Run(ctx, durConn, i)
			if err != nil {
				t.Fatalf("macro durable %s op %d: %v", sc.ID, i, err)
			}
			if gotN != wantN {
				t.Errorf("macro %s op %d: durable returned %d rows, baseline %d", sc.ID, i, gotN, wantN)
			}
		}
	}
	microSweep(durConn, "post-macro")
	durConn.Close()
	requireNoPins(t, dur)
	if err := dur.Close(); err != nil {
		t.Fatalf("close durable engine: %v", err)
	}

	re, err := OpenDurable(GaiaDB(), dir)
	if err != nil {
		t.Fatalf("reopen durable engine: %v", err)
	}
	defer re.Close()
	reConn, err := Connect(re).Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer reConn.Close()
	microSweep(reConn, "reopened")
	requireNoPins(t, re)
	requireNoPins(t, mem)
}
