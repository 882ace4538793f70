package topo

import (
	"math"

	"jackpine/internal/geom"
	"jackpine/internal/index/rtree"
)

// indexMinSegs is the segment count below which a shape skips index
// construction: for small geometries the brute-force pair loop and the
// linear point-location scan beat the tree probes, and building two
// R-trees per Relate call would pessimize the common tiny-operand case.
const indexMinSegs = 32

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

// maybeIndex builds the shape's static indexes when the shape is large
// enough to benefit. Safe for concurrent callers; after it returns, the
// index fields are visible to the calling goroutine.
func (s *shape) maybeIndex() {
	if len(s.segs) < indexMinSegs {
		return
	}
	s.indexOnce.Do(s.buildIndex)
}

// buildIndex bulk-loads the segment-pair tree over segs and the
// point-location tree over raw ring edges plus line segments.
func (s *shape) buildIndex() {
	entries := make([]rtree.Entry, len(s.segs))
	for i := range s.segs {
		entries[i] = rtree.Entry{Rect: s.segs[i].env, ID: int64(i)}
	}
	s.segTree = rtree.BulkLoad(entries, 0)

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
	scale := 1.0
	les := make([]rtree.Entry, len(s.locEdges))
	for i := range s.locEdges {
		e := &s.locEdges[i]
		les[i] = rtree.Entry{Rect: geom.RectFromPoints(e.a, e.b), ID: int64(i)}
		scale = math.Max(scale, math.Max(
			math.Max(math.Abs(e.a.X), math.Abs(e.a.Y)),
			math.Max(math.Abs(e.b.X), math.Abs(e.b.Y))))
	}
	s.scale = scale
	s.locTree = rtree.BulkLoad(les, 0)
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

// locateIndexed is locate backed by the location tree. One tree query
// collects every edge that can contribute: the half-open box reaches
// tol below/left of p for the tolerant boundary tests (tol dominates
// every per-edge nearSegment tolerance, and point-to-envelope distance
// lower-bounds point-to-segment distance) and +Inf to the right for the
// +X ray crossings. Each candidate then runs the exact per-edge tests
// of ringLocation/PointInRing, so the result is bit-identical to the
// linear scan: boundary hits and crossing parity are order-independent,
// and the per-polygon shell/hole decision tree is replayed in
// declaration order from the per-ring states.
func (s *shape) locateIndexed(p geom.Coord) Location {
	tol := relateEps * math.Max(s.scale, math.Max(math.Abs(p.X), math.Abs(p.Y)))
	query := geom.Rect{MinX: p.X - tol, MinY: p.Y - tol, MaxX: math.Inf(1), MaxY: p.Y + tol}

	var rbuf [16]ringState
	var rstate []ringState
	if len(s.rings) <= len(rbuf) {
		rstate = rbuf[:len(s.rings)]
	} else {
		rstate = make([]ringState, len(s.rings))
	}
	lineHit := false
	s.locTree.Search(query, func(e rtree.Entry) bool {
		ed := &s.locEdges[e.ID]
		if ed.ring < 0 {
			if !lineHit && nearSegment(p, ed.a, ed.b) {
				lineHit = true
			}
			return true
		}
		st := &rstate[ed.ring]
		if !st.boundary && nearSegment(p, ed.a, ed.b) {
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
	ri := 0
	for pi := range s.polys {
		poly := s.polys[pi]
		base := ri
		ri += len(poly)
		if len(poly) == 0 {
			continue
		}
		ploc := Interior
		switch ringRes(rstate[base], s.rings[base].n) {
		case geom.RingExterior:
			ploc = Exterior
		case geom.RingBoundary:
			ploc = Boundary
		default:
			for h := 1; h < len(poly); h++ {
				done := false
				switch ringRes(rstate[base+h], s.rings[base+h].n) {
				case geom.RingInterior:
					ploc, done = Exterior, true
				case geom.RingBoundary:
					ploc, done = Boundary, true
				}
				if done {
					break
				}
			}
		}
		switch ploc {
		case Interior:
			return Interior
		case Boundary:
			loc = Boundary
		}
	}

	if lineHit {
		if s.lineBoundary[p] {
			if loc == Exterior {
				loc = Boundary
			}
		} else {
			return Interior
		}
	}
	for _, q := range s.points {
		if q.Equal(p) {
			return Interior
		}
	}
	return loc
}

// segPairs invokes fn for every segment pair (one from sa, one from sb)
// whose envelopes intersect — the same candidate set the brute-force
// nested loop enumerates, since rtree.Search filters with the same
// geom.Rect.Intersects — until fn returns false. When a tree is
// available the smaller side probes the larger side's tree; fn always
// receives the sa segment first so downstream floating-point
// computation is order-stable.
func segPairs(sa, sb *shape, fn func(ga, gb *seg) bool) {
	switch {
	case sb.segTree != nil && (sa.segTree == nil || len(sb.segs) >= len(sa.segs)):
		for i := range sa.segs {
			ga := &sa.segs[i]
			if !ga.env.Intersects(sb.env) {
				continue
			}
			more := true
			sb.segTree.Search(ga.env, func(e rtree.Entry) bool {
				more = fn(ga, &sb.segs[e.ID])
				return more
			})
			if !more {
				return
			}
		}
	case sa.segTree != nil:
		for j := range sb.segs {
			gb := &sb.segs[j]
			if !gb.env.Intersects(sa.env) {
				continue
			}
			more := true
			sa.segTree.Search(gb.env, func(e rtree.Entry) bool {
				more = fn(&sa.segs[e.ID], gb)
				return more
			})
			if !more {
				return
			}
		}
	default:
		for i := range sa.segs {
			ga := &sa.segs[i]
			if !ga.env.Intersects(sb.env) {
				continue
			}
			for j := range sb.segs {
				gb := &sb.segs[j]
				if !ga.env.Intersects(gb.env) {
					continue
				}
				if !fn(ga, gb) {
					return
				}
			}
		}
	}
}
