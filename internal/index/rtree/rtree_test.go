package rtree

import (
	"container/heap"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"jackpine/internal/geom"
)

// pseudoRand is a tiny deterministic generator for test data.
type pseudoRand struct{ state uint64 }

func (r *pseudoRand) next() uint64 {
	r.state = r.state*6364136223846793005 + 1442695040888963407
	return r.state >> 17
}

func (r *pseudoRand) float(max float64) float64 {
	return float64(r.next()%1e9) / 1e9 * max
}

func randomEntries(n int, seed uint64) []Entry {
	r := &pseudoRand{state: seed}
	es := make([]Entry, n)
	for i := range es {
		x, y := r.float(1000), r.float(1000)
		w, h := r.float(10), r.float(10)
		es[i] = Entry{Rect: geom.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}, ID: int64(i)}
	}
	return es
}

// bruteSearch is the oracle for window queries.
func bruteSearch(es []Entry, q geom.Rect) []int64 {
	var out []int64
	for _, e := range es {
		if e.Rect.Intersects(q) {
			out = append(out, e.ID)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedIDs(ids []int64) []int64 {
	out := append([]int64(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalIDs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestInsertAndSearch(t *testing.T) {
	es := randomEntries(500, 42)
	tr := New(16)
	for _, e := range es {
		tr.Insert(e.Rect, e.ID)
	}
	if tr.Len() != 500 {
		t.Fatalf("Len = %d, want 500", tr.Len())
	}
	queries := []geom.Rect{
		{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100},
		{MinX: 500, MinY: 500, MaxX: 510, MaxY: 510},
		{MinX: -50, MinY: -50, MaxX: -1, MaxY: -1},
		{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000},
		{MinX: 250.5, MinY: 699.5, MaxX: 250.6, MaxY: 699.6},
	}
	for _, q := range queries {
		got := sortedIDs(tr.SearchAll(q))
		want := bruteSearch(es, q)
		if !equalIDs(got, want) {
			t.Errorf("query %+v: got %d ids, want %d", q, len(got), len(want))
		}
	}
}

func TestBulkLoadMatchesInsert(t *testing.T) {
	es := randomEntries(1000, 7)
	tr := BulkLoad(es, 16)
	if tr.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", tr.Len())
	}
	r := &pseudoRand{state: 99}
	for i := 0; i < 50; i++ {
		x, y := r.float(1000), r.float(1000)
		q := geom.Rect{MinX: x, MinY: y, MaxX: x + r.float(80), MaxY: y + r.float(80)}
		got := sortedIDs(tr.SearchAll(q))
		want := bruteSearch(es, q)
		if !equalIDs(got, want) {
			t.Fatalf("bulk query %d: got %d ids, want %d", i, len(got), len(want))
		}
	}
}

func TestBulkLoadHeightReasonable(t *testing.T) {
	es := randomEntries(4096, 3)
	tr := BulkLoad(es, 16)
	// STR packing should give height around log_16(4096) = 3.
	if h := tr.Height(); h < 3 || h > 5 {
		t.Errorf("height = %d, want 3..5", h)
	}
}

func TestSearchEarlyStop(t *testing.T) {
	es := randomEntries(200, 5)
	tr := BulkLoad(es, 8)
	count := 0
	tr.Search(geom.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}, func(Entry) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Errorf("early stop delivered %d entries, want 10", count)
	}
}

func TestDelete(t *testing.T) {
	es := randomEntries(300, 11)
	tr := New(8)
	for _, e := range es {
		tr.Insert(e.Rect, e.ID)
	}
	// Delete every third entry.
	var kept []Entry
	for i, e := range es {
		if i%3 == 0 {
			if !tr.Delete(e.Rect, e.ID) {
				t.Fatalf("Delete(%d) not found", e.ID)
			}
		} else {
			kept = append(kept, e)
		}
	}
	if tr.Len() != len(kept) {
		t.Fatalf("Len after deletes = %d, want %d", tr.Len(), len(kept))
	}
	q := geom.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	got := sortedIDs(tr.SearchAll(q))
	want := bruteSearch(kept, q)
	if !equalIDs(got, want) {
		t.Errorf("after deletes: got %d ids, want %d", len(got), len(want))
	}
	// Deleting a missing entry reports false.
	if tr.Delete(geom.Rect{MinX: -1, MinY: -1, MaxX: -0.5, MaxY: -0.5}, 9999) {
		t.Error("Delete of missing entry returned true")
	}
}

func TestDeleteAll(t *testing.T) {
	es := randomEntries(100, 13)
	tr := New(4)
	for _, e := range es {
		tr.Insert(e.Rect, e.ID)
	}
	for _, e := range es {
		if !tr.Delete(e.Rect, e.ID) {
			t.Fatalf("Delete(%d) not found", e.ID)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after deleting everything", tr.Len())
	}
	if ids := tr.SearchAll(geom.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}); len(ids) != 0 {
		t.Errorf("empty tree returned %d ids", len(ids))
	}
	// The tree remains usable.
	tr.Insert(geom.Rect{MinX: 1, MinY: 1, MaxX: 2, MaxY: 2}, 1)
	if tr.Len() != 1 {
		t.Error("insert after full delete failed")
	}
}

// nearProbes are point and rect probes inside and outside the data.
var nearProbes = []geom.Rect{
	{MinX: 500, MinY: 500, MaxX: 500, MaxY: 500},
	{MinX: 123, MinY: 456, MaxX: 123, MaxY: 456},
	{MinX: 480, MinY: 480, MaxX: 560, MaxY: 530},
	{MinX: -300, MinY: 900, MaxX: -100, MaxY: 1400},
	{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000},
}

func TestNearestOrdering(t *testing.T) {
	es := randomEntries(400, 21)
	tr := BulkLoad(es, 16)
	for _, q := range nearProbes {
		var dists []float64
		tr.Nearest(q, func(e Entry, d float64) bool {
			if d != e.Rect.Distance(q) {
				t.Fatalf("probe %v: id %d reported at %v, MINDIST %v", q, e.ID, d, e.Rect.Distance(q))
			}
			dists = append(dists, d)
			return len(dists) < 50
		})
		if len(dists) != 50 {
			t.Fatalf("visited %d entries, want 50", len(dists))
		}
		for i := 1; i < len(dists); i++ {
			if dists[i] < dists[i-1] {
				t.Fatalf("probe %v: distances not monotone at %d: %v < %v", q, i, dists[i], dists[i-1])
			}
		}
	}
}

// refQueue is nnQueue through container/heap: the order nnQueue's own
// push and pop must reproduce, ties and NaN distances included.
type refQueue []nnItem

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(nnItem)) }
func (q *refQueue) Pop() any {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

func TestNNQueueMatchesContainerHeap(t *testing.T) {
	r := &pseudoRand{state: 5}
	var q nnQueue
	ref := &refQueue{}
	for step := 0; step < 5000; step++ {
		if len(q) == 0 || r.next()%3 != 0 {
			it := nnItem{dist: float64(r.next() % 16), entry: Entry{ID: int64(step)}}
			if r.next()%20 == 0 {
				it.dist = math.NaN()
			}
			q.push(it)
			heap.Push(ref, it)
			continue
		}
		if got, want := q.pop(), heap.Pop(ref).(nnItem); got.entry.ID != want.entry.ID {
			t.Fatalf("step %d: popped id %d, container/heap pops %d", step, got.entry.ID, want.entry.ID)
		}
	}
}

// TestNearestAllocs: a traversal allocates its queue and the queue's
// growth, not one object per entry it visits.
func TestNearestAllocs(t *testing.T) {
	tr := BulkLoad(randomEntries(2000, 7), 16)
	q := geom.Rect{MinX: 500, MinY: 500, MaxX: 510, MaxY: 510}
	visits := 0
	allocs := testing.AllocsPerRun(20, func() {
		visits = 0
		tr.Nearest(q, func(Entry, float64) bool {
			visits++
			return visits < 200
		})
	})
	if allocs > 4 {
		t.Fatalf("Nearest allocates %v times to visit %d entries, want <= 4", allocs, visits)
	}
}

func TestKNearestMatchesBrute(t *testing.T) {
	es := randomEntries(300, 31)
	tr := BulkLoad(es, 16)
	// Oracle: every entry's distance, sorted, and each id's distance.
	brute := func(dist func(geom.Rect) float64) ([]float64, map[int64]float64) {
		want := make([]float64, len(es))
		at := make(map[int64]float64, len(es))
		for i, e := range es {
			want[i] = dist(e.Rect)
			at[e.ID] = want[i]
		}
		sort.Float64s(want)
		return want, at
	}
	check := func(probe any, got []int64, want []float64, at map[int64]float64) {
		if len(got) != 10 {
			t.Fatalf("probe %v: %d ids, want 10", probe, len(got))
		}
		for i, id := range got {
			if at[id] != want[i] {
				t.Errorf("probe %v: result %d (id %d) at distance %v, want %v", probe, i, id, at[id], want[i])
			}
		}
	}
	for _, q := range nearProbes {
		want, at := brute(q.Distance)
		var got []int64
		tr.Nearest(q, func(e Entry, _ float64) bool {
			got = append(got, e.ID)
			return len(got) < 10
		})
		check(q, got, want, at)
	}
	// KNearest's point probes, against a point-to-rect distance computed
	// here rather than through the degenerate rect KNearest builds.
	for _, p := range []geom.Coord{{X: 123, Y: 456}, {X: 500, Y: 500}, {X: -250, Y: 1200}, {X: 1300, Y: 40}} {
		want, at := brute(func(r geom.Rect) float64 {
			dx := math.Max(0, math.Max(r.MinX-p.X, p.X-r.MaxX))
			dy := math.Max(0, math.Max(r.MinY-p.Y, p.Y-r.MaxY))
			return math.Hypot(dx, dy)
		})
		check(p, tr.KNearest(p, 10), want, at)
	}
}

func TestKNearestEdgeCases(t *testing.T) {
	tr := New(8)
	if got := tr.KNearest(geom.Coord{}, 5); len(got) != 0 {
		t.Error("KNearest on empty tree should return nothing")
	}
	tr.Insert(geom.Rect{MinX: 1, MinY: 1, MaxX: 2, MaxY: 2}, 7)
	if got := tr.KNearest(geom.Coord{}, 5); len(got) != 1 || got[0] != 7 {
		t.Errorf("KNearest with k > size = %v", got)
	}
	if got := tr.KNearest(geom.Coord{}, 0); got != nil {
		t.Error("KNearest with k=0 should return nil")
	}
}

func TestInsertEmptyRectIgnored(t *testing.T) {
	tr := New(8)
	tr.Insert(geom.EmptyRect(), 1)
	if tr.Len() != 0 {
		t.Error("empty rect should not be inserted")
	}
}

func TestPropertySearchMatchesBrute(t *testing.T) {
	prop := func(seed uint64, qx, qy uint16) bool {
		es := randomEntries(120, seed|1)
		tr := BulkLoad(es, 8)
		x := float64(qx) / 65535 * 1000
		y := float64(qy) / 65535 * 1000
		q := geom.Rect{MinX: x, MinY: y, MaxX: x + 60, MaxY: y + 60}
		return equalIDs(sortedIDs(tr.SearchAll(q)), bruteSearch(es, q))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyInsertDeleteSearch(t *testing.T) {
	prop := func(seed uint64) bool {
		es := randomEntries(80, seed|1)
		tr := New(6)
		for _, e := range es {
			tr.Insert(e.Rect, e.ID)
		}
		// Delete a deterministic half.
		var kept []Entry
		for i, e := range es {
			if (seed>>uint(i%16))&1 == 0 {
				if !tr.Delete(e.Rect, e.ID) {
					return false
				}
			} else {
				kept = append(kept, e)
			}
		}
		q := geom.Rect{MinX: 100, MinY: 100, MaxX: 800, MaxY: 800}
		return equalIDs(sortedIDs(tr.SearchAll(q)), bruteSearch(kept, q))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBoundsTracking(t *testing.T) {
	tr := New(8)
	if !tr.Bounds().IsEmpty() {
		t.Error("empty tree bounds should be empty")
	}
	tr.Insert(geom.Rect{MinX: 1, MinY: 2, MaxX: 3, MaxY: 4}, 1)
	tr.Insert(geom.Rect{MinX: -5, MinY: 0, MaxX: 0, MaxY: 10}, 2)
	want := geom.Rect{MinX: -5, MinY: 0, MaxX: 3, MaxY: 10}
	if tr.Bounds() != want {
		t.Errorf("Bounds = %+v, want %+v", tr.Bounds(), want)
	}
	if math.IsInf(tr.Bounds().Area(), 0) {
		t.Error("bounds area should be finite")
	}
}
