package grid

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"jackpine/internal/geom"
)

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
		es[i] = Entry{Rect: geom.Rect{MinX: x, MinY: y, MaxX: x + r.float(20), MaxY: y + r.float(20)}, ID: int64(i)}
	}
	return es
}

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

func extent() geom.Rect { return geom.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000} }

func TestGridSearchMatchesBrute(t *testing.T) {
	es := randomEntries(500, 17)
	g := New(extent(), 20, 20)
	for _, e := range es {
		g.Insert(e.Rect, e.ID)
	}
	if g.Len() != 500 {
		t.Fatalf("Len = %d", g.Len())
	}
	queries := []geom.Rect{
		{MinX: 0, MinY: 0, MaxX: 50, MaxY: 50},
		{MinX: 400, MinY: 400, MaxX: 600, MaxY: 600},
		{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000},
		{MinX: 999, MinY: 999, MaxX: 1100, MaxY: 1100},
		{MinX: -100, MinY: -100, MaxX: -50, MaxY: -50},
	}
	for _, q := range queries {
		got := sortedIDs(g.SearchAll(q))
		want := bruteSearch(es, q)
		if !equalIDs(got, want) {
			t.Errorf("query %+v: got %d, want %d", q, len(got), len(want))
		}
	}
}

func TestGridEntriesOutsideExtent(t *testing.T) {
	g := New(extent(), 10, 10)
	// Entirely outside the extent.
	far := geom.Rect{MinX: 2000, MinY: 2000, MaxX: 2010, MaxY: 2010}
	g.Insert(far, 1)
	// Straddling the boundary.
	edge := geom.Rect{MinX: 990, MinY: 500, MaxX: 1010, MaxY: 510}
	g.Insert(edge, 2)
	if ids := g.SearchAll(geom.Rect{MinX: 1995, MinY: 1995, MaxX: 2020, MaxY: 2020}); len(ids) != 1 || ids[0] != 1 {
		t.Errorf("outside entry not found: %v", ids)
	}
	// A query entirely outside the extent must still see the straddler.
	if ids := g.SearchAll(geom.Rect{MinX: 1005, MinY: 500, MaxX: 1008, MaxY: 505}); len(ids) != 1 || ids[0] != 2 {
		t.Errorf("straddling entry not found from outside: %v", ids)
	}
	// And from inside, without duplicates.
	if ids := g.SearchAll(geom.Rect{MinX: 980, MinY: 495, MaxX: 1000, MaxY: 515}); len(ids) != 1 || ids[0] != 2 {
		t.Errorf("straddling entry duplicated or missing from inside: %v", ids)
	}
}

func TestGridNoDuplicatesAcrossCells(t *testing.T) {
	g := New(extent(), 10, 10)
	// Spans many cells.
	big := geom.Rect{MinX: 100, MinY: 100, MaxX: 900, MaxY: 900}
	g.Insert(big, 42)
	ids := g.SearchAll(geom.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000})
	if len(ids) != 1 || ids[0] != 42 {
		t.Errorf("spanning entry reported %v times", len(ids))
	}
}

func TestGridDelete(t *testing.T) {
	es := randomEntries(200, 23)
	g := New(extent(), 16, 16)
	for _, e := range es {
		g.Insert(e.Rect, e.ID)
	}
	var kept []Entry
	for i, e := range es {
		if i%2 == 0 {
			if !g.Delete(e.Rect, e.ID) {
				t.Fatalf("Delete(%d) failed", e.ID)
			}
		} else {
			kept = append(kept, e)
		}
	}
	if g.Len() != len(kept) {
		t.Fatalf("Len = %d, want %d", g.Len(), len(kept))
	}
	q := geom.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	if !equalIDs(sortedIDs(g.SearchAll(q)), bruteSearch(kept, q)) {
		t.Error("post-delete search mismatch")
	}
	if g.Delete(geom.Rect{MinX: 1, MinY: 1, MaxX: 2, MaxY: 2}, 12345) {
		t.Error("delete of missing entry returned true")
	}
}

// nearest collects the first k entries Nearest delivers for q (all of
// them when k < 0) and their distances.
func nearest(g *Index, q geom.Rect, k int) (ids []int64, dists []float64) {
	g.Nearest(q, func(e Entry, d float64) bool {
		ids = append(ids, e.ID)
		dists = append(dists, d)
		return len(ids) != k
	})
	return ids, dists
}

func pointRect(x, y float64) geom.Rect { return geom.Rect{MinX: x, MinY: y, MaxX: x, MaxY: y} }

// TestGridNearest requires the exact brute-force MINDIST order, for point
// and rect probes inside, across and outside the extent, with overflow
// entries competing in the same order as cell entries.
func TestGridNearest(t *testing.T) {
	es := append(randomEntries(300, 29),
		Entry{Rect: geom.Rect{MinX: 1200, MinY: 400, MaxX: 1210, MaxY: 410}, ID: 300},
		Entry{Rect: geom.Rect{MinX: -50, MinY: -50, MaxX: -40, MaxY: -40}, ID: 301})
	g := New(extent(), 20, 20)
	for _, e := range es {
		g.Insert(e.Rect, e.ID)
	}
	probes := []geom.Rect{
		pointRect(500, 500), pointRect(3, 997), pointRect(1100, 420), pointRect(-300, -300),
		{MinX: 480, MinY: 480, MaxX: 560, MaxY: 530}, {MinX: 900, MinY: -100, MaxX: 1100, MaxY: 60},
		{MinX: 1500, MinY: 1500, MaxX: 1600, MaxY: 1700}, {MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000},
	}
	r := &pseudoRand{state: 7}
	for i := 0; i < 40; i++ {
		x, y := r.float(1400)-200, r.float(1400)-200
		probes = append(probes, pointRect(x, y), geom.Rect{MinX: x, MinY: y, MaxX: x + r.float(150), MaxY: y + r.float(150)})
	}
	for _, q := range probes {
		want := make([]float64, len(es))
		at := make(map[int64]float64, len(es))
		for i, e := range es {
			want[i] = e.Rect.Distance(q)
			at[e.ID] = want[i]
		}
		sort.Float64s(want)
		ids, dists := nearest(g, q, -1)
		if len(ids) != len(es) {
			t.Fatalf("probe %v: %d entries delivered, want %d", q, len(ids), len(es))
		}
		seen := make(map[int64]bool)
		for i, id := range ids {
			if seen[id] {
				t.Fatalf("probe %v: id %d delivered twice", q, id)
			}
			seen[id] = true
			if dists[i] != want[i] || at[id] != want[i] {
				t.Fatalf("probe %v: entry %d is id %d at %v (reported %v), want distance %v",
					q, i, id, at[id], dists[i], want[i])
			}
		}
	}
}

func TestGridNearestEmptyAndSmall(t *testing.T) {
	g := New(extent(), 4, 4)
	if ids, _ := nearest(g, pointRect(1, 1), 3); len(ids) != 0 {
		t.Error("empty grid Nearest should deliver nothing")
	}
	g.Insert(geom.Rect{MinX: 900, MinY: 900, MaxX: 910, MaxY: 910}, 5)
	if ids, _ := nearest(g, pointRect(1, 1), 3); len(ids) != 1 || ids[0] != 5 {
		t.Errorf("single-entry Nearest = %v", ids)
	}
	if ids, _ := nearest(g, geom.EmptyRect(), 3); len(ids) != 0 {
		t.Error("an empty probe should deliver nothing")
	}
}

func TestGridDegenerateExtent(t *testing.T) {
	g := New(geom.EmptyRect(), 8, 8)
	g.Insert(geom.Rect{MinX: 1, MinY: 1, MaxX: 2, MaxY: 2}, 1)
	g.Insert(geom.Rect{MinX: 5, MinY: 5, MaxX: 6, MaxY: 6}, 2)
	if g.Len() != 2 {
		t.Fatalf("Len = %d", g.Len())
	}
	ids := sortedIDs(g.SearchAll(geom.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}))
	if !equalIDs(ids, []int64{1, 2}) {
		t.Errorf("degenerate-extent search = %v", ids)
	}
	if ids, _ := nearest(g, pointRect(1, 1), 1); len(ids) != 1 || ids[0] != 1 {
		t.Errorf("degenerate-extent nearest = %v", ids)
	}
}

// BenchmarkGridResolution sweeps the grid dimension: too coarse means
// long candidate lists per cell, too fine means many cells per query
// (and per multi-cell entry).
func BenchmarkGridResolution(b *testing.B) {
	es := randomEntries(20000, 77)
	for _, dim := range []int{8, 32, 128, 512} {
		g := New(geom.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}, dim, dim)
		for _, e := range es {
			g.Insert(e.Rect, e.ID)
		}
		name := "dim-" + itoaBench(dim)
		b.Run(name, func(b *testing.B) {
			r := &pseudoRand{state: 5}
			found := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x, y := r.float(1000), r.float(1000)
				q := geom.Rect{MinX: x, MinY: y, MaxX: x + 50, MaxY: y + 50}
				g.Search(q, func(Entry) bool { found++; return true })
			}
			if found == 0 {
				b.Fatal("no results")
			}
		})
	}
}

func itoaBench(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func TestGridPropertyMatchesBrute(t *testing.T) {
	prop := func(seed uint64, qx, qy uint16) bool {
		es := randomEntries(150, seed|1)
		g := New(extent(), 12, 12)
		for _, e := range es {
			g.Insert(e.Rect, e.ID)
		}
		x := float64(qx) / 65535 * 1000
		y := float64(qy) / 65535 * 1000
		q := geom.Rect{MinX: x, MinY: y, MaxX: x + 90, MaxY: y + 90}
		return equalIDs(sortedIDs(g.SearchAll(q)), bruteSearch(es, q))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestGridSearchUnboundedWindow: a window side far beyond the extent —
// 1e300 or infinite, as a half-plane window has — must clamp to the
// border cells, not wrap to cell 0 through an out-of-range int
// conversion.
func TestGridSearchUnboundedWindow(t *testing.T) {
	es := randomEntries(300, 29)
	g := New(extent(), 16, 16)
	for _, e := range es {
		g.Insert(e.Rect, e.ID)
	}
	inf := math.Inf(1)
	queries := []geom.Rect{
		{MinX: 500, MinY: 500, MaxX: 1e300, MaxY: 1e300},
		{MinX: 500, MinY: 500, MaxX: inf, MaxY: inf},
		{MinX: -1e300, MinY: -inf, MaxX: 300, MaxY: 700},
		{MinX: -inf, MinY: -inf, MaxX: inf, MaxY: inf},
		{MinX: 990, MinY: -inf, MaxX: inf, MaxY: 10},
		{MinX: inf, MinY: -inf, MaxX: inf, MaxY: inf},
	}
	for _, q := range queries {
		got := sortedIDs(g.SearchAll(q))
		want := bruteSearch(es, q)
		if !equalIDs(got, want) {
			t.Errorf("query %+v: got %d, want %d", q, len(got), len(want))
		}
	}
}
