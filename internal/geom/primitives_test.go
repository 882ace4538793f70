package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestOrient(t *testing.T) {
	a, b := Coord{0, 0}, Coord{2, 0}
	if Orient(a, b, Coord{1, 1}) != CounterClockwise {
		t.Error("left turn should be CCW")
	}
	if Orient(a, b, Coord{1, -1}) != Clockwise {
		t.Error("right turn should be CW")
	}
	if Orient(a, b, Coord{5, 0}) != Collinear {
		t.Error("collinear point should be Collinear")
	}
}

func TestOnSegment(t *testing.T) {
	a, b := Coord{0, 0}, Coord{4, 4}
	if !OnSegment(Coord{2, 2}, a, b) {
		t.Error("midpoint should be on segment")
	}
	if !OnSegment(a, a, b) || !OnSegment(b, a, b) {
		t.Error("endpoints should be on segment")
	}
	if OnSegment(Coord{5, 5}, a, b) {
		t.Error("collinear point beyond endpoint must be off segment")
	}
	if OnSegment(Coord{2, 2.5}, a, b) {
		t.Error("off-line point must be off segment")
	}
}

func TestSegSegIntersectionProperCross(t *testing.T) {
	kind, p, _ := SegSegIntersection(Coord{0, 0}, Coord{2, 2}, Coord{0, 2}, Coord{2, 0})
	if kind != SegPoint {
		t.Fatalf("kind = %v, want SegPoint", kind)
	}
	if math.Abs(p.X-1) > 1e-12 || math.Abs(p.Y-1) > 1e-12 {
		t.Errorf("intersection point = %v, want (1,1)", p)
	}
}

func TestSegSegIntersectionEndpointTouch(t *testing.T) {
	// q1 lies on the interior of p.
	kind, p, _ := SegSegIntersection(Coord{0, 0}, Coord{4, 0}, Coord{2, 0}, Coord{2, 3})
	if kind != SegPoint || !p.Equal(Coord{2, 0}) {
		t.Errorf("T-touch: kind=%v p=%v", kind, p)
	}
	// Shared endpoint only.
	kind, p, _ = SegSegIntersection(Coord{0, 0}, Coord{1, 1}, Coord{1, 1}, Coord{2, 0})
	if kind != SegPoint || !p.Equal(Coord{1, 1}) {
		t.Errorf("shared endpoint: kind=%v p=%v", kind, p)
	}
}

func TestSegSegIntersectionCollinear(t *testing.T) {
	// Overlapping collinear segments.
	kind, lo, hi := SegSegIntersection(Coord{0, 0}, Coord{4, 0}, Coord{2, 0}, Coord{6, 0})
	if kind != SegOverlap {
		t.Fatalf("kind = %v, want SegOverlap", kind)
	}
	if !lo.Equal(Coord{2, 0}) || !hi.Equal(Coord{4, 0}) {
		t.Errorf("overlap = %v..%v, want (2,0)..(4,0)", lo, hi)
	}
	// Collinear but disjoint.
	kind, _, _ = SegSegIntersection(Coord{0, 0}, Coord{1, 0}, Coord{2, 0}, Coord{3, 0})
	if kind != SegDisjoint {
		t.Errorf("disjoint collinear: kind = %v", kind)
	}
	// Collinear touching at one point.
	kind, p, _ := SegSegIntersection(Coord{0, 0}, Coord{2, 0}, Coord{2, 0}, Coord{5, 0})
	if kind != SegPoint || !p.Equal(Coord{2, 0}) {
		t.Errorf("collinear touch: kind=%v p=%v", kind, p)
	}
	// Vertical collinear overlap (exercise the Y-dominant projection).
	kind, lo, hi = SegSegIntersection(Coord{1, 0}, Coord{1, 5}, Coord{1, 3}, Coord{1, 9})
	if kind != SegOverlap || !lo.Equal(Coord{1, 3}) || !hi.Equal(Coord{1, 5}) {
		t.Errorf("vertical overlap: kind=%v %v..%v", kind, lo, hi)
	}
}

func TestSegSegIntersectionDisjoint(t *testing.T) {
	kind, _, _ := SegSegIntersection(Coord{0, 0}, Coord{1, 0}, Coord{0, 1}, Coord{1, 1})
	if kind != SegDisjoint {
		t.Errorf("parallel separated: kind = %v", kind)
	}
	// Collinear extension beyond segment (no contact).
	kind, _, _ = SegSegIntersection(Coord{0, 0}, Coord{1, 0}, Coord{2, 0}, Coord{2.5, 1})
	if kind != SegDisjoint {
		t.Errorf("beyond-end configuration: kind = %v", kind)
	}
}

func TestPointInRing(t *testing.T) {
	sq := Ring{{0, 0}, {4, 0}, {4, 4}, {0, 4}, {0, 0}}
	tests := []struct {
		p    Coord
		want PointInRingResult
	}{
		{Coord{2, 2}, RingInterior},
		{Coord{0, 0}, RingBoundary},
		{Coord{2, 0}, RingBoundary},
		{Coord{4, 4}, RingBoundary},
		{Coord{5, 2}, RingExterior},
		{Coord{-1, 0}, RingExterior},
		{Coord{2, 4.000001}, RingExterior},
	}
	for _, tc := range tests {
		if got := PointInRing(tc.p, sq); got != tc.want {
			t.Errorf("PointInRing(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestPointInRingConcave(t *testing.T) {
	// A "C" shaped concave ring.
	c := Ring{{0, 0}, {6, 0}, {6, 2}, {2, 2}, {2, 4}, {6, 4}, {6, 6}, {0, 6}, {0, 0}}
	if PointInRing(Coord{4, 3}, c) != RingExterior {
		t.Error("point in the concavity should be exterior")
	}
	if PointInRing(Coord{1, 3}, c) != RingInterior {
		t.Error("point in the spine should be interior")
	}
	if PointInRing(Coord{4, 1}, c) != RingInterior {
		t.Error("point in lower arm should be interior")
	}
}

func TestPointInRingVertexRay(t *testing.T) {
	// Ray passing exactly through a vertex must not double count.
	diamond := Ring{{0, -2}, {2, 0}, {0, 2}, {-2, 0}, {0, -2}}
	if PointInRing(Coord{-1, 0}, diamond) != RingInterior {
		t.Error("point left of vertex-level should be interior")
	}
	if PointInRing(Coord{-3, 0}, diamond) != RingExterior {
		t.Error("point outside at vertex level should be exterior")
	}
}

func TestRingOrientation(t *testing.T) {
	ccw := Ring{{0, 0}, {1, 0}, {1, 1}, {0, 1}, {0, 0}}
	if !RingIsCCW(ccw) {
		t.Error("CCW ring misclassified")
	}
	cw := append(Ring(nil), ccw...)
	ReverseCoords(cw)
	if RingIsCCW(cw) {
		t.Error("CW ring misclassified")
	}
	if got := RingSignedArea2(ccw); got != 2 {
		t.Errorf("signed area*2 = %v, want 2", got)
	}
	if got := RingSignedArea2(cw); got != -2 {
		t.Errorf("reversed signed area*2 = %v, want -2", got)
	}
}

func TestDistPointSegment(t *testing.T) {
	a, b := Coord{0, 0}, Coord{4, 0}
	if d := DistPointSegment(Coord{2, 3}, a, b); d != 3 {
		t.Errorf("perpendicular distance = %v, want 3", d)
	}
	if d := DistPointSegment(Coord{-3, 4}, a, b); d != 5 {
		t.Errorf("beyond-endpoint distance = %v, want 5", d)
	}
	if d := DistPointSegment(Coord{2, 0}, a, b); d != 0 {
		t.Errorf("on-segment distance = %v, want 0", d)
	}
	// Degenerate zero-length segment.
	if d := DistPointSegment(Coord{3, 4}, a, a); d != 5 {
		t.Errorf("point-to-point distance = %v, want 5", d)
	}
}

func TestClosestPointOnSegment(t *testing.T) {
	a, b := Coord{0, 0}, Coord{10, 0}
	p, tt := ClosestPointOnSegment(Coord{3, 7}, a, b)
	if !p.Equal(Coord{3, 0}) || math.Abs(tt-0.3) > 1e-12 {
		t.Errorf("closest = %v t=%v", p, tt)
	}
	p, tt = ClosestPointOnSegment(Coord{-5, 2}, a, b)
	if !p.Equal(a) || tt != 0 {
		t.Errorf("clamped closest = %v t=%v", p, tt)
	}
}

func TestDistSegSeg(t *testing.T) {
	if d := DistSegSeg(Coord{0, 0}, Coord{2, 2}, Coord{0, 2}, Coord{2, 0}); d != 0 {
		t.Errorf("crossing segments distance = %v, want 0", d)
	}
	if d := DistSegSeg(Coord{0, 0}, Coord{1, 0}, Coord{0, 2}, Coord{1, 2}); d != 2 {
		t.Errorf("parallel distance = %v, want 2", d)
	}
}

func TestSegSegPropertySymmetry(t *testing.T) {
	// Intersection classification is symmetric in segment order. Exact
	// integer coordinates keep orientation tests exact, so the property
	// holds without a tolerance.
	norm := func(v float64) float64 {
		return float64(int64(math.Float64bits(v)%21) - 10)
	}
	prop := func(a, b, c, d, e, f, g, h float64) bool {
		p1 := Coord{norm(a), norm(b)}
		p2 := Coord{norm(c), norm(d)}
		q1 := Coord{norm(e), norm(f)}
		q2 := Coord{norm(g), norm(h)}
		k1, _, _ := SegSegIntersection(p1, p2, q1, q2)
		k2, _, _ := SegSegIntersection(q1, q2, p1, p2)
		return k1 == k2
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestSegSegDegeneratePointSegment(t *testing.T) {
	// A zero-length segment has no direction, so the collinear-overlap
	// projection axis must come from the other segment: the point
	// (-10,-3) is on the line of the vertical segment x=-10, y∈[-6,-5]
	// but outside its range, and both argument orders must agree.
	pt := Coord{-10, -3}
	q1, q2 := Coord{-10, -5}, Coord{-10, -6}
	if k, _, _ := SegSegIntersection(pt, pt, q1, q2); k != SegDisjoint {
		t.Errorf("point vs vertical segment: kind=%v, want disjoint", k)
	}
	if k, _, _ := SegSegIntersection(q1, q2, pt, pt); k != SegDisjoint {
		t.Errorf("vertical segment vs point: kind=%v, want disjoint", k)
	}
	// The same point inside the range is a contact either way around.
	on := Coord{-10, -5.5}
	if k, i0, _ := SegSegIntersection(on, on, q1, q2); k != SegPoint || !i0.Equal(on) {
		t.Errorf("point on segment: kind=%v at %v, want point contact at %v", k, i0, on)
	}
	if k, i0, _ := SegSegIntersection(q1, q2, on, on); k != SegPoint || !i0.Equal(on) {
		t.Errorf("segment vs point on it: kind=%v at %v, want point contact at %v", k, i0, on)
	}
}

func TestSegDistPropertyConsistency(t *testing.T) {
	// DistSegSeg is zero iff SegSegIntersection reports contact (on a
	// small integer grid where arithmetic is exact).
	norm := func(v float64) float64 {
		return float64(int64(math.Float64bits(v)%13) - 6)
	}
	prop := func(a, b, c, d, e, f, g, h float64) bool {
		p1 := Coord{norm(a), norm(b)}
		p2 := Coord{norm(c), norm(d)}
		q1 := Coord{norm(e), norm(f)}
		q2 := Coord{norm(g), norm(h)}
		kind, _, _ := SegSegIntersection(p1, p2, q1, q2)
		dist := DistSegSeg(p1, p2, q1, q2)
		return (kind != SegDisjoint) == (dist == 0)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestDistSegSegUnderflow: parallel segments 1e-200 apart have every
// orientation product underflow to zero, so the crossing test sees four
// collinear points and an overlap. Their envelopes are disjoint, and
// the distance is the gap, not zero.
func TestDistSegSegUnderflow(t *testing.T) {
	p1, p2 := Coord{0, 0}, Coord{1e-200, 0}
	q1, q2 := Coord{0, 1e-200}, Coord{1e-200, 1e-200}
	if d := DistSegSeg(p1, p2, q1, q2); d != 1e-200 {
		t.Errorf("DistSegSeg = %g, want 1e-200", d)
	}
}
