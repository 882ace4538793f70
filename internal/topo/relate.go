package topo

import "jackpine/internal/geom"

// Relate computes the DE-9IM intersection matrix of two geometries.
//
// The algorithm decomposes both geometries into point, segment and
// polygon parts, gathers all pairwise segment intersections, classifies
// the resulting event points and split sub-segments against both
// geometries, and then derives the areal (dimension 2) cells from
// neighbourhood arguments: a boundary piece of an areal geometry lying in
// the interior (or exterior) of the other implies a two-dimensional
// overlap of the adjacent region.
func Relate(a, b geom.Geometry) Matrix {
	sa, sb := decompose(a), decompose(b)
	return relateShapes(sa, sb, noExit)
}

// cellSet is a set of DE-9IM matrix cells: bit row*3+col, the cell's
// index in Matrix.
type cellSet uint16

// The cells, in Matrix order (EE, always 2, needs no name).
const (
	cellII cellSet = 1 << iota
	cellIB
	cellIE
	cellBI
	cellBB
	cellBE
	cellEI
	cellEB
)

// Exit sets. A named predicate whose formula is already decided once
// any cell of its set is non-F passes that set to relateShapes, which
// then stops at the first upgrade into it. Upgrade only ever raises a
// cell, so the rest of the walk could not change the answer: the
// formula reads the same on the partial matrix as on the full one.
// Predicates whose deciding cells need an exact dimension (Crosses,
// Overlaps) pass noExit.
const (
	noExit         cellSet = 0                                 // the full matrix
	intersectsExit         = cellII | cellIB | cellBI | cellBB // a shared point: true
	touchesExit            = cellII                            // interiors meet: false
	withinExit             = cellIE | cellBE                   // A leaves B: false
	coversExit             = cellEI | cellEB                   // B leaves A: false
	equalsExit             = withinExit | coversExit           // either leaves the other: false
)

// relateWalk is one walk of the relate algorithm: the matrix built so
// far and the calling predicate's exit set.
type relateWalk struct {
	m    Matrix
	exit cellSet
}

// up raises cell (row, col) to dim — cell (col, row) when swap is set,
// so one step serves both operand orders — and reports whether the
// cell is in the exit set, i.e. whether the walk may stop. Every dim
// passed is non-F, so the raised cell is non-F afterwards.
func (w *relateWalk) up(row, col Location, dim int8, swap bool) bool {
	if swap {
		row, col = col, row
	}
	w.m.Upgrade(row, col, dim)
	return w.exit&(1<<(int(row)*3+int(col))) != 0
}

// relateShapes computes the DE-9IM matrix of (sa, sb), stopping early
// once a cell of exit becomes non-F (see the exit sets above). With
// noExit it always returns the full matrix.
func relateShapes(sa, sb *shape, exit cellSet) Matrix {
	m := NewMatrix()
	m.Set(Exterior, Exterior, 2)

	if !sa.nonEmpty || !sb.nonEmpty {
		// Empty operands: only exterior rows/columns can be non-empty.
		if sa.nonEmpty {
			m.Set(Interior, Exterior, int8(sa.dim))
			m.Set(Boundary, Exterior, sa.boundaryDim())
		}
		if sb.nonEmpty {
			m.Set(Exterior, Interior, int8(sb.dim))
			m.Set(Exterior, Boundary, sb.boundaryDim())
		}
		return m
	}

	if !sa.env.Intersects(sb.env) {
		return disjointMatrix(sa, sb)
	}

	// Both shapes get segment indexes, and large shapes location
	// indexes; the indexed paths enumerate exactly the candidate sets
	// the brute-force loops filter to, so the matrix is identical
	// either way.
	sa.index()
	sb.index()

	// Upgrade is a max, so the order of the steps cannot change the
	// full matrix. The cheap steps that most often settle a predicate
	// run first — one interior point per polygon, then the event
	// points — and the sub-segment sweeps, which locate every piece of
	// every segment, run last; || stops at the first step that settles.
	w := relateWalk{m: m, exit: exit}
	_ = w.interiorPoints(sa, sb, false) ||
		w.interiorPoints(sb, sa, true) ||
		w.eventPoints(sa, sb) ||
		w.subSegments(sa, sb, false) ||
		w.subSegments(sb, sa, true)
	return w.m
}

// disjointMatrix builds the matrix for geometries with disjoint envelopes.
func disjointMatrix(sa, sb *shape) Matrix {
	m := NewMatrix()
	m.Set(Interior, Exterior, int8(sa.dim))
	m.Set(Boundary, Exterior, sa.boundaryDim())
	m.Set(Exterior, Interior, int8(sb.dim))
	m.Set(Exterior, Boundary, sb.boundaryDim())
	m.Set(Exterior, Exterior, 2)
	return m
}

// interiorPoints derives the 2D cells of src's areal interior (src is
// B when swap is set) from one interior point per polygon located in
// other, and reports whether the walk may stop.
func (w *relateWalk) interiorPoints(src, other *shape, swap bool) bool {
	if !src.hasArea() {
		return false
	}
	// Removing a 0/1-dimensional set from a non-empty open 2D interior
	// leaves a 2D set.
	if !other.hasArea() && w.up(Interior, Exterior, 2, swap) {
		return true
	}
	for i := range src.polys {
		ip, ok := geom.InteriorPoint(src.polys[i])
		if !ok {
			continue
		}
		var stop bool
		switch other.locate(ip) {
		case Interior:
			stop = other.hasArea() && w.up(Interior, Interior, 2, swap)
		case Exterior:
			stop = w.up(Interior, Exterior, 2, swap)
		case Boundary:
			if other.hasArea() {
				// A 2D neighbourhood inside src straddles other's
				// boundary and meets its 1D ring in a curve.
				stop = w.up(Interior, Interior, 2, swap) ||
					w.up(Interior, Exterior, 2, swap) ||
					w.up(Interior, Boundary, 1, swap)
			} else {
				stop = w.up(Interior, Boundary, 0, swap)
			}
		}
		if stop {
			return true
		}
	}
	return false
}

// eventPoints locates each event point in both shapes as it is found
// and reports whether the walk may stop.
func (w *relateWalk) eventPoints(sa, sb *shape) bool {
	return forEachEventPoint(sa, sb, func(p geom.Coord) bool {
		return w.up(sa.locate(p), sb.locate(p), 0, false)
	})
}

// forEachEventPoint calls visit once for every point where the
// classification of one geometry against the other can change: all
// pairwise segment intersections, the 1D boundary points of both, and
// the 0D parts of both. Points are deduplicated: many segments meeting
// at one point (shared corners, stars) would otherwise trigger repeated
// locate calls, and the matrix is unaffected because Upgrade is a max.
// It stops, and returns true, as soon as visit returns true.
func forEachEventPoint(sa, sb *shape, visit func(geom.Coord) bool) bool {
	var seen map[geom.Coord]struct{}
	once := func(p geom.Coord) bool {
		if _, dup := seen[p]; dup {
			return false
		}
		if seen == nil {
			seen = make(map[geom.Coord]struct{})
		}
		seen[p] = struct{}{}
		return visit(p)
	}
	pair := func(i, j int) bool {
		ga, gb := &sa.segs[i], &sb.segs[j]
		kind, p0, p1 := geom.SegSegIntersection(ga.a, ga.b, gb.a, gb.b)
		switch kind {
		case geom.SegPoint:
			return !once(p0)
		case geom.SegOverlap:
			return !once(p0) && !once(p1)
		}
		return true
	}
	// The enumerator probes its second operand's index: a packed side
	// goes second (the larger when both are), and the pair is handed
	// back in (sa, sb) order, so SegSegIntersection's operands keep
	// their order.
	var done bool
	if ia, ib := sa.pairIndex(), sb.pairIndex(); ia.Packed() && (!ib.Packed() || len(sa.segs) > len(sb.segs)) {
		done = ia.Pairs(sb.envs, func(j, i int) bool { return pair(i, j) })
	} else {
		done = ib.Pairs(sa.envs, pair)
	}
	if !done {
		return true
	}
	for _, bnd := range [2]map[geom.Coord]bool{sa.lineBoundary, sb.lineBoundary} {
		for p := range bnd {
			if once(p) {
				return true
			}
		}
	}
	for _, pts := range [2][]geom.Coord{sa.points, sb.points} {
		for _, p := range pts {
			if once(p) {
				return true
			}
		}
	}
	return false
}

// subSegments splits the segments of src at all crossings with other's
// segments and classifies each piece's midpoint in other, then reports
// whether the walk may stop. src is A (matrix rows) when swap is false
// and B (matrix columns) when it is true.
func (w *relateWalk) subSegments(src, other *shape, swap bool) bool {
	idx := other.pairIndex()
	cuts := make([]float64, 0, 8)
	for i := range src.segs {
		sg, env := &src.segs[i], src.envs[i]
		cuts = cuts[:0]
		if env.Intersects(other.env) {
			// Cuts are sorted by value below, so the index's visit
			// order does not matter.
			idx.Search(env, func(j int) bool {
				og := &other.segs[j]
				kind, p0, p1 := geom.SegSegIntersection(sg.a, sg.b, og.a, og.b)
				switch kind {
				case geom.SegPoint:
					cuts = append(cuts, geom.SegParam(sg.a, sg.b, p0))
				case geom.SegOverlap:
					cuts = append(cuts, geom.SegParam(sg.a, sg.b, p0), geom.SegParam(sg.a, sg.b, p1))
				}
				return true
			})
			// The other shape's isolated points also change the
			// classification at a single parameter value.
			for _, p := range other.points {
				if env.ContainsCoord(p) && geom.OnSegment(p, sg.a, sg.b) {
					cuts = append(cuts, geom.SegParam(sg.a, sg.b, p))
				}
			}
		}
		cuts = append(cuts, 0, 1)
		sortCuts(cuts)

		rowLoc := Interior
		if sg.ring {
			rowLoc = Boundary
		}
		for k := 0; k+1 < len(cuts); k++ {
			t0, t1 := cuts[k], cuts[k+1]
			if t1-t0 < 1e-12 {
				continue
			}
			tm := (t0 + t1) / 2
			mid := geom.Coord{
				X: sg.a.X + tm*(sg.b.X-sg.a.X),
				Y: sg.a.Y + tm*(sg.b.Y-sg.a.Y),
			}
			loc := other.locate(mid)
			if w.up(rowLoc, loc, 1, swap) {
				return true
			}
			// Neighbourhood deduction: the areal interior adjacent to
			// a ring piece lies in the same region of the other
			// geometry, as does the adjacent exterior.
			if sg.ring && w.deduceArealCells(other, loc, swap) {
				return true
			}
		}
	}
	return false
}

// deduceArealCells upgrades the 2D cells implied by a ring sub-segment
// of an areal geometry classified at loc in the other geometry, and
// reports whether the walk may stop.
func (w *relateWalk) deduceArealCells(other *shape, loc Location, swap bool) bool {
	switch loc {
	case Exterior:
		// Both sides of the boundary piece (the areal interior and the
		// areal exterior) lie in the other geometry's exterior.
		return w.up(Interior, Exterior, 2, swap)
	case Interior:
		// When the other geometry is areal its interior is open: both
		// sides of this boundary piece are inside it.
		return other.hasArea() &&
			(w.up(Interior, Interior, 2, swap) || w.up(Exterior, Interior, 2, swap))
	}
	// Coincident boundaries: no side information.
	return false
}

func sortCuts(cuts []float64) {
	for i := 1; i < len(cuts); i++ {
		for j := i; j > 0 && cuts[j] < cuts[j-1]; j-- {
			cuts[j], cuts[j-1] = cuts[j-1], cuts[j]
		}
	}
}
