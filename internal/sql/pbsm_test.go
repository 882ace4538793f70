package sql

import (
	"math/rand"
	"slices"
	"testing"

	"jackpine/internal/geom"
)

// envTable is a Table holding only row envelopes, enough for a PBSM
// build: ScanMBR yields them in the listed order without allocating.
// Every other method is the nil embedded interface's and panics.
type envTable struct {
	Table
	ids  []RowID
	envs []geom.Rect
}

func (t *envTable) RowCount() int { return len(t.ids) }

func (t *envTable) ScanMBR(_ int, fn func(RowID, geom.Rect) bool) error {
	for i, id := range t.ids {
		if !fn(id, t.envs[i]) {
			break
		}
	}
	return nil
}

// buildPBSM builds the candidate index of a state whose probes stream
// their windows: the outer side, then the sweep.
func buildPBSM(r *Runner, spec *pbsmSpec) (*pbsmState, error) {
	st := &pbsmState{}
	if err := st.collectOuter(spec, 1); err != nil {
		return nil, err
	}
	return st, r.sweepPBSM(st, spec)
}

// randomEnvs draws n envelopes in [0, 100)²: a fifth zero-width, a
// fifth zero-height (some of them points), a tenth wide enough to
// straddle many cells, the rest small boxes.
func randomEnvs(rng *rand.Rand, n int) []geom.Rect {
	envs := make([]geom.Rect, n)
	for i := range envs {
		x, y := rng.Float64()*100, rng.Float64()*100
		w, h := rng.Float64()*4, rng.Float64()*4
		switch rng.Intn(10) {
		case 0, 1:
			w = 0
		case 2, 3:
			h = 0
		case 4:
			w, h = rng.Float64()*60, rng.Float64()*60
		}
		envs[i] = geom.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}
	}
	return envs
}

// TestPBSMStateMatchesBruteForce builds the PBSM candidate index from
// randomized envelopes — duplicate outer envelopes, zero-width ones,
// ones straddling cells, gaps between inner RowIDs — on grids of
// 1x1 and more than 8x8 cells at parallelism 1 and 4. Every outer
// window's candidate run must be the inner positions whose envelopes
// overlap it, found by brute force, in ascending RowID; a window absent
// from the build must miss the table and get the same answer from the
// linear fallback.
func TestPBSMStateMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, grid := range [][2]int{{1, 1}, {8, 8}, {13, 9}} {
		for _, par := range []int{1, 4} {
			for _, expand := range []float64{0, 2.5} {
				inner := &envTable{envs: randomEnvs(rng, 400)}
				id := RowID(0)
				for range inner.envs {
					id += RowID(1 + rng.Intn(3))
					inner.ids = append(inner.ids, id)
				}
				outer := &envTable{envs: randomEnvs(rng, 300)}
				for i := 0; i < 200; i++ { // duplicates of earlier envelopes
					outer.envs = append(outer.envs, outer.envs[rng.Intn(len(outer.envs))])
				}
				for i := range outer.envs {
					outer.ids = append(outer.ids, RowID(i))
				}

				r := NewRunner(nil, NewRegistry(RegistryOptions{}))
				r.SetParallelism(par)
				st, err := buildPBSM(r, &pbsmSpec{outer: outer, inner: inner, expand: expand, gx: grid[0], gy: grid[1]})
				if err != nil {
					t.Fatal(err)
				}
				brute := func(w geom.Rect) []int32 {
					var want []int32
					for i := range st.inner.IDs {
						if w.Intersects(st.innerEnv(int32(i))) {
							want = append(want, int32(i))
						}
					}
					return want
				}
				distinct := map[geom.Rect]bool{}
				for _, e := range outer.envs {
					w := e.Expand(expand)
					distinct[w] = true
					if k, _ := st.slot(w); k < 0 {
						t.Fatalf("grid %v par %d: outer window %v has no position", grid, par, w)
					}
					if got, want := st.candidates(w), brute(w); !slices.Equal(got, want) {
						t.Fatalf("grid %v par %d expand %g: window %v candidates %v, want %v",
							grid, par, expand, w, got, want)
					}
				}
				if st.outer.Len() != len(distinct) {
					t.Errorf("grid %v par %d: %d outer positions for %d distinct windows",
						grid, par, st.outer.Len(), len(distinct))
				}
				for _, w := range randomEnvs(rng, 100) {
					if distinct[w] {
						continue
					}
					if k, _ := st.slot(w); k >= 0 {
						t.Fatalf("grid %v par %d: absent window %v found at position %d", grid, par, w, k)
					}
					if got, want := st.candidates(w), brute(w); !slices.Equal(got, want) {
						t.Fatalf("grid %v par %d: absent window %v candidates %v, want %v", grid, par, w, got, want)
					}
				}
			}
		}
	}
}

// TestPBSMBuildAllocsFlat is the allocation guard of the PBSM build: the
// candidate index is a fixed set of flat arrays, so a cold build
// allocates the same number of objects for 1 000 as for 4 000 distinct
// outer envelopes against the same inner side (within 2 %). It measures
// the build alone; materializing the inner rows decodes them, which
// allocates per inner row whatever the layout.
func TestPBSMBuildAllocsFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	inner := &envTable{envs: randomEnvs(rng, 1000)}
	for i := range inner.envs {
		inner.ids = append(inner.ids, RowID(i))
	}
	r := NewRunner(nil, NewRegistry(RegistryOptions{}))
	r.SetParallelism(1)
	allocs := map[int]float64{}
	for _, n := range []int{1000, 4000} {
		outer := &envTable{envs: randomEnvs(rng, n)}
		for i := range outer.envs {
			outer.ids = append(outer.ids, RowID(i))
		}
		spec := &pbsmSpec{outer: outer, inner: inner, expand: 1, gx: 8, gy: 8}
		st, err := buildPBSM(r, spec)
		if err != nil {
			t.Fatal(err)
		}
		allocs[n] = testing.AllocsPerRun(5, func() {
			if _, err := buildPBSM(r, spec); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d outer envelopes (%d distinct), %d candidate pairs: %.0f allocations per build",
			n, st.outer.Len(), len(st.cand), allocs[n])
	}
	if lo, hi := allocs[1000], allocs[4000]; hi > 1.02*lo {
		t.Errorf("a build allocates %.0f objects for 1000 outer envelopes but %.0f for 4000", lo, hi)
	}
}
