package engine

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// loadMany inserts n small polygons into landmarks in batches.
func loadMany(t *testing.T, e *Engine, n int) {
	t.Helper()
	const batch = 500
	for lo := 0; lo < n; lo += batch {
		hi := lo + batch
		if hi > n {
			hi = n
		}
		var sb strings.Builder
		sb.WriteString("INSERT INTO landmarks VALUES ")
		for i := lo; i < hi; i++ {
			if i > lo {
				sb.WriteString(", ")
			}
			x := float64(i % 100)
			y := float64(i / 100)
			fmt.Fprintf(&sb, "(%d, 'lm%d', ST_GeomFromText('POLYGON ((%g %g, %g %g, %g %g, %g %g, %g %g))'))",
				i, i, x, y, x+0.9, y, x+0.9, y+0.9, x, y+0.9, x, y)
		}
		e.MustExec(sb.String())
	}
}

// TestPoolEvictsUnderFramePressure: with a buffer pool far smaller than
// the heap, repeated scans must evict pages, and results stay stable
// throughout.
func TestPoolEvictsUnderFramePressure(t *testing.T) {
	// 64 frames = 512 KiB of pool over a ~1 MiB heap.
	e := Open(GaiaDB(), WithPoolPages(64))
	e.MustExec("CREATE TABLE landmarks (id INTEGER, name TEXT, geo GEOMETRY)")
	loadMany(t, e, 8000)

	const q = "SELECT COUNT(*) FROM landmarks WHERE ST_Intersects(geo, ST_MakeEnvelope(10, 10, 40, 40))"
	first := e.MustExec(q)
	e.ResetCacheStats()
	second := e.MustExec(q)
	if first.Rows[0][0].Int != second.Rows[0][0].Int {
		t.Fatalf("count drifted across runs: %v vs %v", first.Rows[0][0], second.Rows[0][0])
	}

	ps := e.Pool().Stats()
	if ps.Evictions == 0 {
		t.Errorf("pool saw no evictions under frame pressure: %+v (cached pages %d)",
			ps, e.Pool().CachedPages())
	}
}

// TestMissPenaltyOnlyOnRealMisses: the pool's simulated disk latency
// must charge only genuine page misses — a warm scan whose pages are all
// resident pays nothing.
func TestMissPenaltyOnlyOnRealMisses(t *testing.T) {
	e := newTestEngine(t)
	loadGrid(t, e, 8)
	const q = "SELECT COUNT(*) FROM landmarks WHERE ST_Intersects(geo, ST_MakeEnvelope(0, 0, 6, 6))"
	e.MustExec(q) // warm the pool

	const penalty = 50 * time.Millisecond
	e.Pool().MissPenalty = penalty
	defer func() { e.Pool().MissPenalty = 0 }()

	e.ResetCacheStats()
	start := time.Now()
	e.MustExec(q)
	warm := time.Since(start)
	if m := e.Pool().Stats().Misses; m != 0 {
		t.Fatalf("warm scan took %d pool misses", m)
	}
	if warm >= penalty {
		t.Errorf("warm scan took %v, as if a miss penalty was charged", warm)
	}

	// Dropping the pool forces real misses, which must now pay.
	if err := e.Pool().DropAll(); err != nil {
		t.Fatal(err)
	}
	e.ResetCacheStats()
	start = time.Now()
	e.MustExec(q)
	cold := time.Since(start)
	if m := e.Pool().Stats().Misses; m == 0 {
		t.Fatal("cold scan after DropAll saw no pool misses")
	}
	if cold < penalty {
		t.Errorf("cold scan took %v, less than one %v miss penalty", cold, penalty)
	}
}

// TestResetCacheStatsBetweenRuns: ResetCacheStats zeroes the counters
// without discarding the pool's pages, so a timed run measures only its
// own traffic against an already-warm pool.
func TestResetCacheStatsBetweenRuns(t *testing.T) {
	e := newTestEngine(t)
	loadGrid(t, e, 6)
	const q = "SELECT id FROM landmarks WHERE ST_Intersects(geo, ST_MakeEnvelope(0, 0, 4, 4))"
	e.MustExec(q)
	e.MustExec(q)

	if cc := e.CacheCounters(); cc.PoolHits == 0 {
		t.Fatalf("warmup recorded no pool hits: %+v", cc)
	}
	e.ResetCacheStats()
	if cc := e.CacheCounters(); cc != (CacheCounters{}) {
		t.Fatalf("counters after reset: %+v", cc)
	}

	// Pages survived: one repeat is all pool hits, no misses.
	e.MustExec(q)
	cc := e.CacheCounters()
	if cc.PoolHits == 0 {
		t.Errorf("pool took no hits on a warm repeat: %+v", cc)
	}
	if cc.PoolMisses != 0 {
		t.Errorf("pool took %d misses on a warm repeat", cc.PoolMisses)
	}
}
