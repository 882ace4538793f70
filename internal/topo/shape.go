package topo

import (
	"math"
	"sync"

	"jackpine/internal/geom"
)

// seg is a single 1D element of a decomposed geometry.
type seg struct {
	a, b geom.Coord
	ring bool // true when the segment comes from a polygon ring
}

// shape is a geometry decomposed into 0D, 1D and 2D parts, preprocessed
// for point location and pairwise intersection.
type shape struct {
	points []geom.Coord   // 0D parts
	segs   []seg          // 1D elements: line segments and ring segments
	envs   []geom.Rect    // envs[i] is the envelope of segs[i]
	polys  []geom.Polygon // 2D parts (for interior membership)

	// lineBoundary holds the mod-2 boundary endpoints of the 1D parts
	// (OGC combinatorial boundary of (multi)linestrings).
	lineBoundary map[geom.Coord]bool

	env      geom.Rect
	dim      int  // topological dimension of the geometry (-1 if empty)
	nonEmpty bool // any coordinates at all

	// cover is env plus the zero-length edges addSeg drops. scale, its
	// largest |coordinate| clamped >= 1, bounds every nearSegment
	// tolerance against the shape: locate and the rectangle kernel share it.
	cover geom.Rect
	scale float64

	// Static indexes, built at most once by index (index.go) and
	// read-only afterwards: segIdx indexes envs for segment-pair
	// enumeration, locIdx indexes locEdges for point location. locIdx
	// stays nil while segIdx holds no tree, in which case the linear
	// location scan runs. segIdx is read only through pairIndex, which
	// builds it; the Once publishes the fields safely to concurrent
	// readers of a shared (prepared) shape.
	indexOnce sync.Once
	segIdx    geom.SegIndex
	locIdx    *geom.SegIndex
	locEdges  []locEdge
	rings     []ringMeta
}

// decompose flattens g into a shape. The endpoint counts and
// lineBoundary are allocated only by open line parts: readers treat a
// nil map as empty, so a polygon decomposes without either map.
func decompose(g geom.Geometry) *shape {
	s := &shape{env: geom.EmptyRect(), cover: geom.EmptyRect(), dim: -1}
	if g != nil && g.Dimension() > 0 {
		// A geometry has fewer segments than coordinates.
		n := g.NumCoords()
		s.segs, s.envs = make([]seg, 0, n), make([]geom.Rect, 0, n)
	}
	var endpointCount map[geom.Coord]int
	s.addGeometry(g, &endpointCount)
	for c, n := range endpointCount {
		if n%2 == 1 {
			if s.lineBoundary == nil {
				s.lineBoundary = make(map[geom.Coord]bool)
			}
			s.lineBoundary[c] = true
		}
	}
	s.cover, s.scale = s.cover.Union(s.env), 1
	if c := s.cover; !c.IsEmpty() {
		s.scale = max(1, math.Abs(c.MinX), math.Abs(c.MaxX), math.Abs(c.MinY), math.Abs(c.MaxY))
	}
	return s
}

func (s *shape) addGeometry(g geom.Geometry, endpoints *map[geom.Coord]int) {
	if g == nil {
		return
	}
	switch t := g.(type) {
	case geom.Point:
		if !t.Empty {
			s.points = append(s.points, t.Coord)
			s.markDim(0)
		}
	case geom.MultiPoint:
		for _, p := range t {
			s.addGeometry(p, endpoints)
		}
	case geom.LineString:
		s.addLine(t, endpoints)
	case geom.MultiLineString:
		for _, l := range t {
			s.addLine(l, endpoints)
		}
	case geom.Polygon:
		s.addPolygon(t)
	case geom.MultiPolygon:
		for _, p := range t {
			s.addPolygon(p)
		}
	case geom.Collection:
		for _, sub := range t {
			s.addGeometry(sub, endpoints)
		}
	}
}

func (s *shape) addLine(l geom.LineString, endpoints *map[geom.Coord]int) {
	if len(l) < 2 {
		return
	}
	s.markDim(1)
	for i := 0; i < len(l)-1; i++ {
		s.addSeg(l[i], l[i+1], false)
	}
	if !l.IsClosed() {
		if *endpoints == nil {
			*endpoints = make(map[geom.Coord]int)
		}
		(*endpoints)[l[0]]++
		(*endpoints)[l[len(l)-1]]++
	}
}

func (s *shape) addPolygon(p geom.Polygon) {
	if p.IsEmpty() {
		return
	}
	s.markDim(2)
	s.polys = append(s.polys, p)
	for _, r := range p {
		for i := 0; i < len(r)-1; i++ {
			s.addSeg(r[i], r[i+1], true)
		}
	}
}

func (s *shape) addSeg(a, b geom.Coord, ring bool) {
	if a.Equal(b) {
		s.cover = s.cover.ExpandCoord(a) // ringLocation still walks it
		return
	}
	e := geom.RectFromPoints(a, b)
	s.segs = append(s.segs, seg{a: a, b: b, ring: ring})
	s.envs = append(s.envs, e)
	s.env = s.env.Union(e)
}

func (s *shape) markDim(d int) {
	s.nonEmpty = true
	if d > s.dim {
		s.dim = d
	}
	if d == 0 {
		// Points extend the envelope too.
		if n := len(s.points); n > 0 {
			s.env = s.env.ExpandCoord(s.points[n-1])
		}
	}
}

// boundaryDim returns the dimension of the geometry's boundary:
// 1 for areal geometries, 0 for curves with non-empty mod-2 boundary,
// F otherwise (points, closed curves, empty).
func (s *shape) boundaryDim() int8 {
	if len(s.polys) > 0 {
		return 1
	}
	if len(s.lineBoundary) > 0 {
		return 0
	}
	return DimF
}

// hasArea reports whether the shape has 2D parts.
func (s *shape) hasArea() bool { return len(s.polys) > 0 }

// locate classifies a point against the shape's point set using union
// semantics: Interior if the point is interior to any part, otherwise
// Boundary if on any part's boundary, otherwise Exterior.
// d = 2·relateEps·max(scale, |p|, 1) bounds every nearSegment reach: an
// edge p misses by d skips its own tolerance, and p that far above, below
// or right of cover is Exterior (left, an open ring's parity may be odd).
// Float addition is monotone, so both return what the full walk returns.
func (s *shape) locate(p geom.Coord) Location {
	d := 2 * relateEps * max(s.scale, math.Abs(p.X), math.Abs(p.Y), 1)
	if c := &s.cover; p.Y > c.MaxY+d || p.Y < c.MinY-d || p.X > c.MaxX+d {
		return Exterior
	}
	if s.locIdx != nil {
		return s.locateIndexed(p, d)
	}
	loc := Exterior
	for i := range s.polys {
		poly := s.polys[i]
		switch polygonLocation(len(poly), func(h int) geom.PointInRingResult { return ringLocation(p, poly[h], d) }) {
		case Interior:
			return Interior
		case Boundary:
			loc = Boundary
		}
	}
	lineHit := false
	for i := range s.segs {
		// Ring segments belong to polygon boundaries, handled above.
		if sg := &s.segs[i]; !sg.ring && nearSegment(p, sg.a, sg.b, d) {
			lineHit = true
			break
		}
	}
	return s.locateRest(p, loc, lineHit)
}

// polygonLocation classifies a point against one polygon of n rings
// from the rings' results, shell first and holes in declaration order,
// asking ring for each result only as far as the decision needs.
func polygonLocation(n int, ring func(h int) geom.PointInRingResult) Location {
	if n == 0 {
		return Exterior
	}
	switch ring(0) {
	case geom.RingExterior:
		return Exterior
	case geom.RingBoundary:
		return Boundary
	}
	for h := 1; h < n; h++ {
		switch ring(h) {
		case geom.RingInterior:
			return Exterior
		case geom.RingBoundary:
			return Boundary
		}
	}
	return Interior
}

// locateRest finishes locate from the location loc among the 2D parts
// and whether the point lies on a 1D part: a line hit is interior
// unless the point is on the lines' mod-2 boundary, and 0D parts are
// all interior (their boundary is empty).
func (s *shape) locateRest(p geom.Coord, loc Location, lineHit bool) Location {
	if lineHit {
		if !s.lineBoundary[p] {
			return Interior
		}
		if loc == Exterior {
			loc = Boundary
		}
	}
	for _, q := range s.points {
		if q.Equal(p) {
			return Interior
		}
	}
	return loc
}

// relateEps is the relative tolerance for classifying computed points —
// sub-segment midpoints and segment-intersection points — against a
// shape. These coordinates carry floating-point interpolation error, so
// a point lying on a coincident boundary fails the exact collinearity
// test of geom.OnSegment and would otherwise fall through to an
// arbitrary ray-casting answer (the Equals(a, a) reflexivity bug the
// DE-9IM fuzz target caught on TIGER coordinates). The exact predicates
// in internal/geom stay exact; only point location inside the relate
// algorithm is tolerant.
const relateEps = 1e-9

// nearSegment reports whether p is within the relative tolerance tol of
// segment a–b, given a bound d >= 2·tol. Point-to-box distance
// lower-bounds point-to-segment distance (locateIndexed relies on the
// same bound), so a point outside the segment's envelope grown by d is
// rejected before tol and the Hypot; the factor 2 absorbs rounding in
// DistPointSegment, so the answer is the distance test's.
func nearSegment(p, a, b geom.Coord, d float64) bool {
	if (p.X < a.X-d && p.X < b.X-d) || (p.X > a.X+d && p.X > b.X+d) ||
		(p.Y < a.Y-d && p.Y < b.Y-d) || (p.Y > a.Y+d && p.Y > b.Y+d) {
		return false
	}
	tol := relateEps * max(math.Abs(a.X), math.Abs(a.Y),
		math.Abs(b.X), math.Abs(b.Y), math.Abs(p.X), math.Abs(p.Y), 1)
	return geom.DistPointSegment(p, a, b) <= tol
}

// ringLocation is geom.PointInRing with a tolerant boundary test, in
// one pass: each edge runs the tolerant boundary test within locate's
// bound d and the +X ray crossing test, and ringRes decides exactly as
// locateIndexed does.
func ringLocation(p geom.Coord, ring geom.Ring, d float64) geom.PointInRingResult {
	var st ringState
	for i := 0; i+1 < len(ring); i++ {
		a, b := ring[i], ring[i+1]
		if nearSegment(p, a, b, d) {
			return geom.RingBoundary
		}
		if (a.Y > p.Y) != (b.Y > p.Y) {
			t := (p.Y - a.Y) / (b.Y - a.Y)
			if x := a.X + t*(b.X-a.X); x > p.X {
				st.odd = !st.odd
			}
		}
	}
	return ringRes(st, int32(len(ring)))
}
