package topo

import (
	"math"

	"jackpine/internal/geom"
)

// locEdge is one edge of the point-location index. Ring edges are taken
// from the raw rings — including degenerate zero-length edges that
// addSeg drops from segs — because ringLocation's tolerant boundary
// sweep walks the raw ring. Non-ring line segments carry ring == -1.
type locEdge struct {
	a, b geom.Coord
	ring int32 // index into shape.rings, -1 for a line segment
}

// ringMeta records the provenance of one indexed ring: rings are
// appended polygon by polygon (shell first, holes in order), so each
// polygon owns a contiguous run of len(poly) entries.
type ringMeta struct {
	poly int32 // index into shape.polys
	n    int32 // raw vertex count (PointInRing needs n >= 3)
}

// index builds the shape's static indexes once. Safe for concurrent
// callers; after it returns, the index fields are visible to the
// calling goroutine.
func (s *shape) index() {
	s.indexOnce.Do(s.buildIndex)
}

// pairIndex returns the shape's segment index, building the indexes
// first if no caller has, so an unindexed shape cannot hide a pair.
func (s *shape) pairIndex() *geom.SegIndex {
	s.index()
	return &s.segIdx
}

// buildIndex indexes segs for pair enumeration and, when that index
// holds a tree (the shape is large enough to benefit), builds the
// location index too. Below the cutoff the linear location scan beats
// the probes.
func (s *shape) buildIndex() {
	s.segIdx = geom.NewSegIndex(s.envs)
	if s.segIdx.Packed() {
		s.buildLocIndex()
	}
}

// buildLocIndex indexes the raw ring edges plus line segments for point
// location.
func (s *shape) buildLocIndex() {
	for pi := range s.polys {
		for _, r := range s.polys[pi] {
			ri := int32(len(s.rings))
			s.rings = append(s.rings, ringMeta{poly: int32(pi), n: int32(len(r))})
			for i := 0; i+1 < len(r); i++ {
				s.locEdges = append(s.locEdges, locEdge{a: r[i], b: r[i+1], ring: ri})
			}
		}
	}
	for i := range s.segs {
		if !s.segs[i].ring {
			s.locEdges = append(s.locEdges, locEdge{a: s.segs[i].a, b: s.segs[i].b, ring: -1})
		}
	}
	envs := make([]geom.Rect, len(s.locEdges))
	for i := range s.locEdges {
		e := &s.locEdges[i]
		envs[i] = geom.RectFromPoints(e.a, e.b)
	}
	idx := geom.NewSegIndex(envs)
	s.locIdx = &idx
}

// ringState accumulates the per-ring evidence of one indexed location
// query: whether any edge's tolerant boundary test hit, and the
// ray-crossing parity.
type ringState struct {
	boundary bool
	odd      bool
}

// ringRes reduces a ring's accumulated state to its location, for both
// ringLocation and locateIndexed: the tolerant boundary test wins
// outright, degenerate rings (< 3 vertices) are exterior, otherwise
// crossing parity decides. This is geom.PointInRing's decision order;
// its exact OnSegment early-out is unreachable because nearSegment
// subsumes it.
func ringRes(st ringState, n int32) geom.PointInRingResult {
	if st.boundary {
		return geom.RingBoundary
	}
	if n < 3 {
		return geom.RingExterior
	}
	if st.odd {
		return geom.RingInterior
	}
	return geom.RingExterior
}

// locateIndexed is locate backed by the location index, with locate's
// bound d = 2·tol. One query collects every edge that can contribute:
// the half-open box reaches tol below/left of p for the tolerant
// boundary tests (tol dominates every per-edge nearSegment tolerance,
// and point-to-box distance lower-bounds point-to-segment distance) and
// +Inf to the right for the +X ray crossings. Each candidate then runs
// the per-edge tests of ringLocation, so the result is bit-identical to
// the linear scan: boundary hits and crossing parity are independent of
// order, and the per-polygon shell/hole decision tree is replayed in
// declaration order from the per-ring states.
func (s *shape) locateIndexed(p geom.Coord, d float64) Location {
	tol := d / 2
	query := geom.Rect{MinX: p.X - tol, MinY: p.Y - tol, MaxX: math.Inf(1), MaxY: p.Y + tol}

	var rbuf [16]ringState
	var rstate []ringState
	if len(s.rings) <= len(rbuf) {
		rstate = rbuf[:len(s.rings)]
	} else {
		rstate = make([]ringState, len(s.rings))
	}
	lineHit := false
	s.locIdx.Search(query, func(j int) bool {
		ed := &s.locEdges[j]
		if ed.ring < 0 {
			if !lineHit && nearSegment(p, ed.a, ed.b, d) {
				lineHit = true
			}
			return true
		}
		st := &rstate[ed.ring]
		if !st.boundary && nearSegment(p, ed.a, ed.b, d) {
			st.boundary = true
		}
		if (ed.a.Y > p.Y) != (ed.b.Y > p.Y) {
			t := (p.Y - ed.a.Y) / (ed.b.Y - ed.a.Y)
			x := ed.a.X + t*(ed.b.X-ed.a.X)
			if x > p.X {
				st.odd = !st.odd
			}
		}
		return true
	})

	loc := Exterior
	base := 0
	for _, poly := range s.polys {
		ploc := polygonLocation(len(poly), func(h int) geom.PointInRingResult {
			return ringRes(rstate[base+h], s.rings[base+h].n)
		})
		base += len(poly)
		switch ploc {
		case Interior:
			return Interior
		case Boundary:
			loc = Boundary
		}
	}
	return s.locateRest(p, loc, lineHit)
}
