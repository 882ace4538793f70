package geom

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// randomSegEnvs returns the envelopes of n random segments on a small
// integer grid, so that envelopes often touch exactly, mixed with the
// degenerate cases a noder meets: zero-length segments, collinear
// overlapping segments, segments sharing an endpoint, and duplicates.
func randomSegEnvs(rng *rand.Rand, n int) []Rect {
	pt := func() Coord { return Coord{X: float64(rng.Intn(40)), Y: float64(rng.Intn(40))} }
	var segs [][2]Coord
	for len(segs) < n {
		switch k := len(segs); {
		case k > 0 && rng.Intn(8) == 0: // duplicate
			segs = append(segs, segs[rng.Intn(k)])
		case k > 0 && rng.Intn(8) == 0: // shared endpoint
			segs = append(segs, [2]Coord{segs[rng.Intn(k)][1], pt()})
		case k > 0 && rng.Intn(8) == 0: // collinear, overlapping
			s := segs[rng.Intn(k)]
			d := Coord{X: s[1].X - s[0].X, Y: s[1].Y - s[0].Y}
			segs = append(segs, [2]Coord{
				{X: s[0].X + d.X/2, Y: s[0].Y + d.Y/2},
				{X: s[1].X + d.X/2, Y: s[1].Y + d.Y/2},
			})
		case rng.Intn(10) == 0: // zero length
			p := pt()
			segs = append(segs, [2]Coord{p, p})
		case rng.Intn(4) == 0: // off the grid
			segs = append(segs, [2]Coord{
				{X: rng.Float64() * 40, Y: rng.Float64() * 40},
				{X: rng.Float64() * 40, Y: rng.Float64() * 40},
			})
		default: // short, so most envelope pairs miss
			p := pt()
			segs = append(segs, [2]Coord{p, {X: p.X + float64(rng.Intn(7)-3), Y: p.Y + float64(rng.Intn(7)-3)}})
		}
	}
	envs := make([]Rect, n)
	for i, s := range segs {
		envs[i] = RectFromPoints(s[0], s[1])
	}
	return envs
}

// loopPairs is the nested loop the index replaces: every (i, j) whose
// envelopes intersect, i ascending then j ascending, j > i when self.
func loopPairs(a, b []Rect, self bool) [][2]int {
	var out [][2]int
	for i := range a {
		from := 0
		if self {
			from = i + 1
		}
		for j := from; j < len(b); j++ {
			if a[i].Intersects(b[j]) {
				out = append(out, [2]int{i, j})
			}
		}
	}
	return out
}

func indexPairs(x *SegIndex, a []Rect, self bool) [][2]int {
	var out [][2]int
	visit := func(i, j int) bool {
		out = append(out, [2]int{i, j})
		return true
	}
	var done bool
	if self {
		done = x.SelfPairs(visit)
	} else {
		done = x.Pairs(a, visit)
	}
	if !done {
		panic("enumeration stopped without being asked to")
	}
	return out
}

// segIndexSizes straddle indexMinSegs and the fan-out levels.
var segIndexSizes = []int{0, 1, 7, indexMinSegs - 1, indexMinSegs, indexMinSegs + 1, 100, 300, 1200}

// TestSegIndexPairsMatchNestedLoop pins the enumerator to the nested
// loop's pair sequence, order included, for both operand sizes on both
// sides of the cutoff.
func TestSegIndexPairsMatchNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, na := range segIndexSizes {
		for _, nb := range segIndexSizes {
			a, b := randomSegEnvs(rng, na), randomSegEnvs(rng, nb)
			x := NewSegIndex(b)
			if x.Packed() != (nb >= indexMinSegs) {
				t.Errorf("nb=%d: Packed() = %v", nb, x.Packed())
			}
			want, got := loopPairs(a, b, false), indexPairs(&x, a, false)
			if !slices.Equal(got, want) {
				t.Errorf("na=%d nb=%d: %d index pairs differ from %d loop pairs", na, nb, len(got), len(want))
			}
		}
	}
}

// TestSegIndexSelfPairsMatchNestedLoop pins the same-list form to the
// i < j nested loop.
func TestSegIndexSelfPairsMatchNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range segIndexSizes {
		for rep := 0; rep < 3; rep++ {
			envs := randomSegEnvs(rng, n)
			x := NewSegIndex(envs)
			want, got := loopPairs(envs, envs, true), indexPairs(&x, nil, true)
			if !slices.Equal(got, want) {
				t.Errorf("n=%d: %d index pairs differ from %d loop pairs", n, len(got), len(want))
			}
		}
	}
}

// TestSegIndexSearchMatchesFilter pins the window search to the
// brute-force envelope filter, order included, for windows of every
// shape the callers use: segment envelopes, points, half-open rays and
// empty windows.
func TestSegIndexSearchMatchesFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range segIndexSizes {
		envs := randomSegEnvs(rng, n)
		x := NewSegIndex(envs)
		queries := append(randomSegEnvs(rng, 50), EmptyRect(),
			Rect{MinX: 10, MinY: 10, MaxX: 10, MaxY: 10},
			Rect{MinX: 20, MinY: 5, MaxX: math.Inf(1), MaxY: 5},
			Rect{MinX: math.Inf(-1), MinY: math.Inf(-1), MaxX: math.Inf(1), MaxY: math.Inf(1)})
		for qi, q := range queries {
			var want, got []int
			for j := range envs {
				if q.Intersects(envs[j]) {
					want = append(want, j)
				}
			}
			x.Search(q, func(j int) bool {
				got = append(got, j)
				return true
			})
			if !slices.Equal(got, want) {
				t.Errorf("n=%d query %d %v: search %v, filter %v", n, qi, q, got, want)
			}
		}
	}
}

// TestSegIndexEarlyStop checks that every form stops at the first false
// from its callback, reports the stop, and has visited exactly the
// nested loop's prefix up to it.
func TestSegIndexEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{indexMinSegs - 1, 300} {
		a, b := randomSegEnvs(rng, 200), randomSegEnvs(rng, n)
		x := NewSegIndex(b)
		for _, self := range []bool{false, true} {
			want := loopPairs(a, b, false)
			if self {
				want = loopPairs(b, b, true)
			}
			stopAt := len(want) / 2
			var got [][2]int
			visit := func(i, j int) bool {
				got = append(got, [2]int{i, j})
				return len(got) <= stopAt
			}
			var done bool
			if self {
				done = x.SelfPairs(visit)
			} else {
				done = x.Pairs(a, visit)
			}
			if done || !slices.Equal(got, want[:stopAt+1]) {
				t.Errorf("n=%d self=%v: done=%v after %d pairs, want a stop after %d", n, self, done, len(got), stopAt+1)
			}
		}
		calls := 0
		all := Rect{MinX: math.Inf(-1), MinY: math.Inf(-1), MaxX: math.Inf(1), MaxY: math.Inf(1)}
		if x.Search(all, func(int) bool { calls++; return calls < 3 }) || calls != 3 {
			t.Errorf("n=%d: search ran %d calls after a stop at the third", n, calls)
		}
	}
}

// TestSegIndexNaNEnvelope checks that an envelope with a NaN bound,
// which Rect.Intersects never accepts, hides no other segment from the
// tree.
func TestSegIndexNaNEnvelope(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := randomSegEnvs(rng, 200)
	for i := 0; i < len(b); i += 17 {
		b[i].MinX = math.NaN()
	}
	a := randomSegEnvs(rng, 100)
	x := NewSegIndex(b)
	if got, want := indexPairs(&x, a, false), loopPairs(a, b, false); !slices.Equal(got, want) {
		t.Errorf("%d index pairs differ from %d loop pairs", len(got), len(want))
	}
}
