package geom

import "math"

// Orientation classifies the turn a→b→c.
type Orientation int

// Turn directions returned by Orient.
const (
	Collinear        Orientation = 0
	CounterClockwise Orientation = 1
	Clockwise        Orientation = -1
)

// Orient returns the orientation of the ordered triple (a, b, c).
func Orient(a, b, c Coord) Orientation {
	v := crossProduct(a, b, c)
	switch {
	case v > 0:
		return CounterClockwise
	case v < 0:
		return Clockwise
	default:
		return Collinear
	}
}

// crossProduct returns (b-a) × (c-a). The computation uses a compensated
// form to reduce rounding error on nearly collinear inputs.
func crossProduct(a, b, c Coord) float64 {
	return (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
}

// OnSegment reports whether p lies on the closed segment a–b. The test
// requires exact collinearity, which holds for shared vertices and for
// points produced by exact midpoint construction in tests.
func OnSegment(p, a, b Coord) bool {
	if Orient(a, b, p) != Collinear {
		return false
	}
	return math.Min(a.X, b.X) <= p.X && p.X <= math.Max(a.X, b.X) &&
		math.Min(a.Y, b.Y) <= p.Y && p.Y <= math.Max(a.Y, b.Y)
}

// SegKind classifies how two segments intersect.
type SegKind int

// Segment intersection classifications returned by SegSegIntersection.
const (
	SegDisjoint SegKind = iota // no shared point
	SegPoint                   // exactly one shared point
	SegOverlap                 // a collinear overlap of positive length
)

// SegSegIntersection computes the intersection of closed segments p1–p2
// and q1–q2. For SegPoint the single intersection point is returned in
// i0. For SegOverlap the overlapping sub-segment endpoints are returned
// in i0 and i1.
func SegSegIntersection(p1, p2, q1, q2 Coord) (kind SegKind, i0, i1 Coord) {
	o1 := Orient(p1, p2, q1)
	o2 := Orient(p1, p2, q2)
	o3 := Orient(q1, q2, p1)
	o4 := Orient(q1, q2, p2)

	if o1 != o2 && o3 != o4 && o1 != Collinear && o2 != Collinear &&
		o3 != Collinear && o4 != Collinear {
		// Proper crossing: solve for the intersection point.
		return SegPoint, segCrossPoint(p1, p2, q1, q2), Coord{}
	}

	// Collinear/touching handling.
	if o1 == Collinear && o2 == Collinear && o3 == Collinear && o4 == Collinear {
		// All four points are collinear: compute the 1D overlap.
		return collinearOverlap(p1, p2, q1, q2)
	}

	// Endpoint touching: one endpoint lies on the other segment.
	switch {
	case o1 == Collinear && OnSegment(q1, p1, p2):
		return SegPoint, q1, Coord{}
	case o2 == Collinear && OnSegment(q2, p1, p2):
		return SegPoint, q2, Coord{}
	case o3 == Collinear && OnSegment(p1, q1, q2):
		return SegPoint, p1, Coord{}
	case o4 == Collinear && OnSegment(p2, q1, q2):
		return SegPoint, p2, Coord{}
	}

	if o1 != o2 && o3 != o4 {
		// Mixed case: a proper crossing where one orientation test was
		// exactly zero was handled above; the remaining case is a true
		// interior crossing with no collinearities.
		return SegPoint, segCrossPoint(p1, p2, q1, q2), Coord{}
	}
	return SegDisjoint, Coord{}, Coord{}
}

// segCrossPoint computes the crossing point of two properly intersecting
// segments using the parametric form.
func segCrossPoint(p1, p2, q1, q2 Coord) Coord {
	d1 := p2.Sub(p1)
	d2 := q2.Sub(q1)
	denom := d1.X*d2.Y - d1.Y*d2.X
	if ExactEq(denom, 0) {
		// Degenerate (parallel) input: fall back to a midpoint of the
		// closest endpoints. Callers only reach this under rounding.
		return Coord{(p1.X + q1.X) / 2, (p1.Y + q1.Y) / 2}
	}
	t := ((q1.X-p1.X)*d2.Y - (q1.Y-p1.Y)*d2.X) / denom
	return Coord{p1.X + t*d1.X, p1.Y + t*d1.Y}
}

// collinearOverlap computes the shared portion of two collinear segments.
func collinearOverlap(p1, p2, q1, q2 Coord) (SegKind, Coord, Coord) {
	// Project onto the dominant axis of the shared line to order points.
	// Taking the max over both segments keeps the choice meaningful when
	// one segment is degenerate (a point has no direction of its own).
	dx := math.Max(math.Abs(p2.X-p1.X), math.Abs(q2.X-q1.X))
	dy := math.Max(math.Abs(p2.Y-p1.Y), math.Abs(q2.Y-q1.Y))
	useX := dx >= dy
	key := func(c Coord) float64 {
		if useX {
			return c.X
		}
		return c.Y
	}
	pLo, pHi := p1, p2
	if key(pLo) > key(pHi) {
		pLo, pHi = pHi, pLo
	}
	qLo, qHi := q1, q2
	if key(qLo) > key(qHi) {
		qLo, qHi = qHi, qLo
	}
	lo, hi := pLo, pHi
	if key(qLo) > key(lo) {
		lo = qLo
	}
	if key(qHi) < key(hi) {
		hi = qHi
	}
	switch {
	case key(lo) > key(hi):
		return SegDisjoint, Coord{}, Coord{}
	case lo.Equal(hi) || ExactEq(key(lo), key(hi)):
		return SegPoint, lo, Coord{}
	default:
		return SegOverlap, lo, hi
	}
}

// PointInRingResult classifies a point's position relative to a ring.
type PointInRingResult int

// Results of PointInRing.
const (
	RingExterior PointInRingResult = iota
	RingBoundary
	RingInterior
)

// PointInRing locates p relative to the closed ring using the crossing
// number algorithm with exact boundary detection.
func PointInRing(p Coord, ring []Coord) PointInRingResult {
	n := len(ring)
	if n < 3 {
		return RingExterior
	}
	inside := false
	for i := 0; i < n-1; i++ {
		a, b := ring[i], ring[i+1]
		if OnSegment(p, a, b) {
			return RingBoundary
		}
		// Ray casting toward +X, counting crossings with half-open
		// edge intervals to handle vertices exactly once.
		if (a.Y > p.Y) != (b.Y > p.Y) {
			t := (p.Y - a.Y) / (b.Y - a.Y)
			x := a.X + t*(b.X-a.X)
			if x > p.X {
				inside = !inside
			}
		}
	}
	if inside {
		return RingInterior
	}
	return RingExterior
}

// RingSignedArea2 returns twice the signed area of the ring: positive for
// counter-clockwise winding, negative for clockwise.
func RingSignedArea2(ring []Coord) float64 {
	var sum float64
	for i := 0; i < len(ring)-1; i++ {
		a, b := ring[i], ring[i+1]
		sum += a.X*b.Y - b.X*a.Y
	}
	return sum
}

// RingIsCCW reports whether the ring winds counter-clockwise.
func RingIsCCW(ring []Coord) bool { return RingSignedArea2(ring) > 0 }

// ReverseCoords reverses the coordinate slice in place.
func ReverseCoords(cs []Coord) {
	for i, j := 0, len(cs)-1; i < j; i, j = i+1, j-1 {
		cs[i], cs[j] = cs[j], cs[i]
	}
}

// SegParam returns the parameter of p along segment a–b, 0 at a and 1 at
// b, measured along the segment's dominant axis; 0 for a zero-length
// segment. Noders use it to order the cuts on a segment.
func SegParam(a, b, p Coord) float64 {
	dx, dy := b.X-a.X, b.Y-a.Y
	if math.Abs(dx) >= math.Abs(dy) {
		if ExactEq(dx, 0) {
			return 0
		}
		return (p.X - a.X) / dx
	}
	return (p.Y - a.Y) / dy
}

// DistPointSegment returns the distance from p to the closed segment a–b.
func DistPointSegment(p, a, b Coord) float64 {
	d := b.Sub(a)
	l2 := d.X*d.X + d.Y*d.Y
	if ExactEq(l2, 0) {
		return math.Hypot(p.X-a.X, p.Y-a.Y)
	}
	t := ((p.X-a.X)*d.X + (p.Y-a.Y)*d.Y) / l2
	t = math.Max(0, math.Min(1, t))
	proj := Coord{a.X + t*d.X, a.Y + t*d.Y}
	return math.Hypot(p.X-proj.X, p.Y-proj.Y)
}

// ClosestPointOnSegment returns the point of segment a–b closest to p and
// the parameter t in [0,1] locating it along the segment.
func ClosestPointOnSegment(p, a, b Coord) (Coord, float64) {
	d := b.Sub(a)
	l2 := d.X*d.X + d.Y*d.Y
	if ExactEq(l2, 0) {
		return a, 0
	}
	t := ((p.X-a.X)*d.X + (p.Y-a.Y)*d.Y) / l2
	t = math.Max(0, math.Min(1, t))
	return Coord{a.X + t*d.X, a.Y + t*d.Y}, t
}

// DistSegSeg returns the distance between two closed segments. Segments
// whose envelopes are disjoint cannot meet, so they skip the crossing
// test, which reports a contact between them when orientation products
// round or underflow to zero (coordinates near 1e-200); their distance
// never drops below the envelopes' separation.
func DistSegSeg(p1, p2, q1, q2 Coord) float64 {
	apart := max(p1.X, p2.X) < min(q1.X, q2.X) || max(q1.X, q2.X) < min(p1.X, p2.X) ||
		max(p1.Y, p2.Y) < min(q1.Y, q2.Y) || max(q1.Y, q2.Y) < min(p1.Y, p2.Y)
	if !apart {
		if kind, _, _ := SegSegIntersection(p1, p2, q1, q2); kind != SegDisjoint {
			return 0
		}
	}
	d := DistPointSegment(p1, q1, q2)
	if v := DistPointSegment(p2, q1, q2); v < d {
		d = v
	}
	if v := DistPointSegment(q1, p1, p2); v < d {
		d = v
	}
	if v := DistPointSegment(q2, p1, p2); v < d {
		d = v
	}
	return d
}

// Dist returns the Euclidean distance between two coordinates.
func Dist(a, b Coord) float64 { return math.Hypot(a.X-b.X, a.Y-b.Y) }
