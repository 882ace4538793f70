package overlay

import (
	"math"
	"testing"

	"jackpine/internal/geom"
	"jackpine/internal/tiger"
	"jackpine/internal/topo"
)

// TestBufferAllWaterFeatures buffers every generated water body — the
// flood-risk scenario's core operation — and checks structural validity
// and containment invariants on each result.
func TestBufferAllWaterFeatures(t *testing.T) {
	ds := tiger.Generate(tiger.Small, 3)
	for _, w := range ds.AreaWater {
		b := Buffer(w.Geom, 25, 4)
		if b.IsEmpty() {
			t.Fatalf("water %d (%s): empty buffer", w.ID, w.Name)
		}
		if err := geom.Validate(b); err != nil {
			t.Fatalf("water %d: invalid buffer: %v", w.ID, err)
		}
		if got, src := geom.Area(b), geom.Area(w.Geom); got <= src {
			t.Errorf("water %d: buffer area %v <= source %v", w.ID, got, src)
		}
		if !topo.Covers(b, w.Geom) {
			t.Errorf("water %d: buffer does not cover source", w.ID)
		}
		// The buffer stays within the analytic envelope bound.
		want := w.Geom.Envelope().Expand(25 + 1e-6)
		if !want.ContainsRect(b.Envelope()) {
			t.Errorf("water %d: buffer escapes envelope bound", w.ID)
		}
	}
}

// TestUnionAllLandmarkClusters unions overlapping landmark blobs and
// checks area bounds: the union is no larger than the sum and at least
// as large as the largest member.
func TestUnionAllLandmarkClusters(t *testing.T) {
	ds := tiger.Generate(tiger.Small, 5)
	var gs []geom.Geometry
	var sum, maxArea float64
	for _, a := range ds.AreaLandmarks[:60] {
		gs = append(gs, a.Geom)
		ar := geom.Area(a.Geom)
		sum += ar
		if ar > maxArea {
			maxArea = ar
		}
	}
	u := UnionAll(gs)
	got := geom.Area(u)
	if got > sum+1e-6 {
		t.Errorf("union area %v exceeds member sum %v", got, sum)
	}
	if got < maxArea-1e-6 {
		t.Errorf("union area %v below largest member %v", got, maxArea)
	}
	if err := geom.Validate(u); err != nil {
		t.Errorf("union invalid: %v", err)
	}
	// Every member is covered by the union, verified by area (a DE-9IM
	// CoveredBy test would be noisy here: overlay output boundaries
	// coincide with member boundaries only to within floating-point
	// rounding, which exact relate classification cannot absorb).
	for i, g := range gs[:20] {
		if leak := geom.Area(Difference(g, u)); leak > 1e-6 {
			t.Errorf("member %d leaks %v area outside the union", i, leak)
		}
	}
}

// TestIntersectionConsistencyWithPredicates cross-checks the overlay
// engine against the DE-9IM engine: ST_Intersection is non-empty exactly
// when ST_Intersects holds (for areal pairs with 2D intersections).
func TestIntersectionConsistencyWithPredicates(t *testing.T) {
	ds := tiger.Generate(tiger.Small, 7)
	lms := ds.AreaLandmarks
	checked, nonEmpty := 0, 0
	for i := 0; i < 40; i++ {
		for j := i + 1; j < 40; j++ {
			a, b := lms[i].Geom, lms[j].Geom
			if !a.Envelope().Intersects(b.Envelope()) {
				continue
			}
			checked++
			inter := PolygonOp(a, b, OpIntersection)
			interArea := geom.Area(inter)
			overlaps := topo.Overlaps(a, b) || topo.Contains(a, b) || topo.Within(a, b) || topo.Equals(a, b)
			if overlaps && interArea <= 0 {
				t.Errorf("pair (%d,%d): predicates say 2D overlap but intersection empty", i, j)
			}
			if !topo.Intersects(a, b) && interArea > 1e-9 {
				t.Errorf("pair (%d,%d): disjoint but intersection area %v", i, j, interArea)
			}
			if interArea > 0 {
				nonEmpty++
				// Inclusion-exclusion sanity.
				u := PolygonOp(a, b, OpUnion)
				lhs := geom.Area(a) + geom.Area(b)
				rhs := geom.Area(u) + interArea
				if math.Abs(lhs-rhs) > 1e-6*lhs {
					t.Errorf("pair (%d,%d): inclusion-exclusion broken: %v vs %v", i, j, lhs, rhs)
				}
			}
		}
	}
	if checked < 10 || nonEmpty < 3 {
		t.Fatalf("stress test too weak: checked=%d nonEmpty=%d", checked, nonEmpty)
	}
}

// TestClipAllEdgesAgainstRiver clips every road edge against the river
// polygon: inside plus outside lengths must reassemble the original.
func TestClipAllEdgesAgainstRiver(t *testing.T) {
	ds := tiger.Generate(tiger.Small, 9)
	river := ds.AreaWater[0].Geom
	env := river.Envelope()
	tested := 0
	for _, e := range ds.Edges {
		if !e.Geom.Envelope().Intersects(env) {
			continue
		}
		tested++
		in := ClipLines(e.Geom, river, true)
		out := ClipLines(e.Geom, river, false)
		total := geom.Length(in) + geom.Length(out)
		want := geom.Length(e.Geom)
		if math.Abs(total-want) > 1e-6*math.Max(1, want) {
			t.Fatalf("edge %d: clip pieces %v != original %v", e.ID, total, want)
		}
	}
	if tested < 20 {
		t.Fatalf("only %d edges near the river", tested)
	}
}

// TestOverlayAreaIdentities is a metamorphic check of the polygon
// overlay on tiger medium: for every polygon A among the flood
// scenario's water buffers (40 units) and the area landmarks, and every
// parcel B whose envelope meets A's, area(A∪B) = area A + area B −
// area(A∩B) and area(A−B) = area A − area(A∩B), to a relative 1e-9.
// A re-noded overlay that drops, duplicates or misclassifies a sub-edge
// breaks one of the identities. The test runs on one goroutine, so the
// race detector finds nothing in it; under it, only every eighth pair
// is checked, to keep the race run short.
func TestOverlayAreaIdentities(t *testing.T) {
	stride := 1
	if raceEnabled {
		stride = 8
	}
	ds := tiger.Generate(tiger.Medium, 1)
	var polys []geom.Geometry
	for _, w := range ds.AreaWater {
		polys = append(polys, Buffer(w.Geom, 40, DefaultQuadSegs))
	}
	for _, a := range ds.AreaLandmarks {
		polys = append(polys, a.Geom)
	}
	pairs, worst := 0, 0.0
	for ai, a := range polys {
		envA, areaA := a.Envelope(), geom.Area(a)
		for _, p := range ds.Parcels {
			b := p.Geom
			if !envA.Intersects(b.Envelope()) {
				continue
			}
			if pairs++; pairs%stride != 0 {
				continue
			}
			areaB := geom.Area(b)
			inter := geom.Area(Intersection(a, b))
			scale := areaA + areaB
			for _, c := range []struct {
				name      string
				got, want float64
			}{
				{"union", geom.Area(Union(a, b)), areaA + areaB - inter},
				{"difference", geom.Area(Difference(a, b)), areaA - inter},
			} {
				rel := math.Abs(c.got-c.want) / scale
				worst = math.Max(worst, rel)
				if rel > 1e-9 {
					t.Errorf("polygon %d × parcel %d: area of %s %v, want %v (relative error %.3g)",
						ai, p.ID, c.name, c.got, c.want, rel)
				}
			}
		}
	}
	if pairs < 1000 {
		t.Fatalf("only %d polygon × parcel pairs", pairs)
	}
	t.Logf("%d of %d pairs, worst relative error %.3g", pairs/stride, pairs, worst)
}
