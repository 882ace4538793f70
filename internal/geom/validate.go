package geom

import (
	"fmt"
	"math"
)

// Validate checks structural validity of the geometry and returns a
// descriptive error for the first violation found, or nil if valid.
//
// Checks performed:
//   - all ordinates are finite;
//   - linestrings have >= 2 coordinates and positive length;
//   - rings are closed, have >= 4 coordinates, and do not self-intersect
//     (adjacent segment contact at shared vertices excepted);
//   - polygon holes lie within the shell and rings do not cross.
func Validate(g Geometry) error {
	switch t := g.(type) {
	case Point:
		if t.Empty {
			return nil
		}
		return checkFinite(t.Coord)
	case MultiPoint:
		for i, p := range t {
			if err := Validate(p); err != nil {
				return fmt.Errorf("point %d: %w", i, err)
			}
		}
		return nil
	case LineString:
		return validateLineString(t)
	case MultiLineString:
		for i, l := range t {
			if err := validateLineString(l); err != nil {
				return fmt.Errorf("linestring %d: %w", i, err)
			}
		}
		return nil
	case Polygon:
		return validatePolygon(t)
	case MultiPolygon:
		for i, p := range t {
			if err := validatePolygon(p); err != nil {
				return fmt.Errorf("polygon %d: %w", i, err)
			}
		}
		return nil
	case Collection:
		for i, sub := range t {
			if err := Validate(sub); err != nil {
				return fmt.Errorf("element %d: %w", i, err)
			}
		}
		return nil
	default:
		return fmt.Errorf("geom: unknown geometry type %T", g)
	}
}

// IsValid reports whether Validate(g) returns nil.
func IsValid(g Geometry) bool { return Validate(g) == nil }

func checkFinite(c Coord) error {
	if math.IsNaN(c.X) || math.IsInf(c.X, 0) || math.IsNaN(c.Y) || math.IsInf(c.Y, 0) {
		return fmt.Errorf("geom: non-finite coordinate (%v, %v)", c.X, c.Y)
	}
	return nil
}

func validateLineString(l LineString) error {
	if len(l) == 0 {
		return nil
	}
	if len(l) < 2 {
		return fmt.Errorf("geom: linestring has %d coordinate(s), need >= 2", len(l))
	}
	for _, c := range l {
		if err := checkFinite(c); err != nil {
			return err
		}
	}
	if ExactEq(coordsLength(l), 0) {
		return fmt.Errorf("geom: linestring has zero length")
	}
	return nil
}

func validateRing(r Ring) error {
	if len(r) < 4 {
		return fmt.Errorf("geom: ring has %d coordinate(s), need >= 4", len(r))
	}
	for _, c := range r {
		if err := checkFinite(c); err != nil {
			return err
		}
	}
	if !r.IsClosed() {
		return fmt.Errorf("geom: ring is not closed")
	}
	if ExactEq(math.Abs(RingSignedArea2(r)), 0) {
		return fmt.Errorf("geom: ring has zero area")
	}
	if err := ringSelfIntersection(r); err != nil {
		return err
	}
	return nil
}

// ringSelfIntersection tests every non-adjacent segment pair whose
// envelopes meet for contact, and reports the first in nested-loop order.
func ringSelfIntersection(r Ring) error {
	n := len(r) - 1 // number of segments
	var buf [indexMinSegs]Rect
	idx := NewSegIndex(ringEnvs(buf[:0], r))
	var err error
	idx.SelfPairs(func(i, j int) bool {
		// Adjacent segments share exactly one endpoint: skip them,
		// including the wrap pair (last, first).
		if j == i+1 || (i == 0 && j == n-1) {
			return true
		}
		if kind, pt, _ := SegSegIntersection(r[i], r[i+1], r[j], r[j+1]); kind != SegDisjoint {
			err = fmt.Errorf("geom: ring self-intersection near (%v, %v)", pt.X, pt.Y)
			return false
		}
		return true
	})
	return err
}

// ringEnvs appends the envelope of each segment of r to dst. Callers
// pass a stack buffer of indexMinSegs envelopes, so a ring too short
// for a tree is indexed without allocating.
func ringEnvs(dst []Rect, r Ring) []Rect {
	for i := 0; i+1 < len(r); i++ {
		dst = append(dst, RectFromPoints(r[i], r[i+1]))
	}
	return dst
}

func validatePolygon(p Polygon) error {
	if p.IsEmpty() {
		return nil
	}
	for i, r := range p {
		if err := validateRing(r); err != nil {
			return fmt.Errorf("ring %d: %w", i, err)
		}
	}
	if len(p) == 1 {
		return nil
	}
	shell := p[0]
	var buf [indexMinSegs]Rect
	shellIdx := NewSegIndex(ringEnvs(buf[:0], shell))
	for i, hole := range p[1:] {
		// Every hole vertex must be inside or on the shell.
		for _, c := range hole {
			if PointInRing(c, shell) == RingExterior {
				return fmt.Errorf("geom: hole %d extends outside shell", i)
			}
		}
		// Hole boundary must not cross the shell boundary.
		if ringsCross(hole, shell, &shellIdx) {
			return fmt.Errorf("geom: hole %d crosses shell", i)
		}
	}
	return nil
}

// ringsCross reports whether ring a has a proper (non-endpoint) segment
// crossing with ring b, whose index is bIdx.
func ringsCross(a, b Ring, bIdx *SegIndex) bool {
	var buf [indexMinSegs]Rect
	return !bIdx.Pairs(ringEnvs(buf[:0], a), func(i, j int) bool {
		kind, pt, _ := SegSegIntersection(a[i], a[i+1], b[j], b[j+1])
		// Shared vertices/touches are allowed; a crossing at a
		// non-vertex point is not.
		return kind != SegPoint || pt.Equal(a[i]) || pt.Equal(a[i+1]) || pt.Equal(b[j]) || pt.Equal(b[j+1])
	})
}

// Boundary returns the topological boundary of the geometry per the OGC
// combinatorial boundary definition:
//   - points and multipoints have an empty boundary;
//   - a non-closed linestring's boundary is its two endpoints, a closed
//     one's is empty (mod-2 rule for multilinestrings);
//   - a polygon's boundary is its rings as a MultiLineString.
func Boundary(g Geometry) Geometry {
	switch t := g.(type) {
	case Point, MultiPoint:
		return Collection{}
	case LineString:
		if t.IsEmpty() || t.IsClosed() {
			return MultiPoint{}
		}
		return MultiPoint{Point{Coord: t[0]}, Point{Coord: t[len(t)-1]}}
	case MultiLineString:
		// Mod-2 rule: an endpoint is on the boundary iff it is an
		// endpoint of an odd number of component curves.
		counts := make(map[Coord]int)
		for _, l := range t {
			if l.IsEmpty() || l.IsClosed() {
				continue
			}
			counts[l[0]]++
			counts[l[len(l)-1]]++
		}
		var mp MultiPoint
		for c, n := range counts {
			if n%2 == 1 {
				mp = append(mp, Point{Coord: c})
			}
		}
		return mp
	case Polygon:
		ml := make(MultiLineString, 0, len(t))
		for _, r := range t {
			ml = append(ml, LineString(r))
		}
		return ml
	case MultiPolygon:
		var ml MultiLineString
		for _, p := range t {
			for _, r := range p {
				ml = append(ml, LineString(r))
			}
		}
		return ml
	case Collection:
		out := make(Collection, 0, len(t))
		for _, sub := range t {
			out = append(out, Boundary(sub))
		}
		return out
	default:
		return Collection{}
	}
}
