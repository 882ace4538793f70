package overlay

import (
	"sort"

	"jackpine/internal/geom"
)

// Union returns the union of two geometries. Areal operands combine via
// polygon overlay; lower-dimensional operands are returned alongside the
// areal result in a Collection when mixed. Union of two empty geometries
// is an empty Collection.
func Union(a, b geom.Geometry) geom.Geometry {
	da, db := dimOf(a), dimOf(b)
	switch {
	case da == 2 && db == 2:
		return simplifyMulti(PolygonOp(a, b, OpUnion))
	case da < 0:
		return cloneOrEmpty(b)
	case db < 0:
		return cloneOrEmpty(a)
	default:
		// Mixed / lower dimensions: a flat collection of both operands.
		return geom.Collection{a.Clone(), b.Clone()}
	}
}

// UnionAll unions a list of areal geometries with balanced divide and
// conquer, which keeps intermediate results small.
func UnionAll(gs []geom.Geometry) geom.Geometry {
	switch len(gs) {
	case 0:
		return geom.MultiPolygon{}
	case 1:
		return simplifyMulti(toMultiPolygon(gs[0]))
	}
	mid := len(gs) / 2
	left := UnionAll(gs[:mid])
	right := UnionAll(gs[mid:])
	return simplifyMulti(PolygonOp(left, right, OpUnion))
}

// Intersection returns the point-set intersection of two geometries,
// supporting all type combinations used by the SQL layer:
//
//   - areal × areal   → MultiPolygon (overlay)
//   - line  × areal   → MultiLineString (the clipped pieces)
//   - point × any     → the points inside the other geometry
//   - line  × line    → Collection of crossing points and shared pieces
//
// The result is empty (an empty Collection) when the inputs do not
// intersect.
func Intersection(a, b geom.Geometry) geom.Geometry {
	da, db := dimOf(a), dimOf(b)
	if da < 0 || db < 0 {
		return geom.Collection{}
	}
	// Normalize: lower dimension first.
	if da > db {
		return Intersection(b, a)
	}
	switch {
	case da == 0:
		return pointIntersection(a, b)
	case da == 1 && db == 1:
		return lineLineIntersection(a, b)
	case da == 1 && db == 2:
		return ClipLines(a, b, true)
	default: // 2 × 2
		return simplifyMulti(PolygonOp(a, b, OpIntersection))
	}
}

// Difference returns a minus b. Areal × areal uses overlay; subtracting
// a lower-dimensional geometry from an areal one returns a unchanged;
// line minus areal clips to the polygon's exterior; other combinations
// subtract pointwise where representable.
func Difference(a, b geom.Geometry) geom.Geometry {
	da, db := dimOf(a), dimOf(b)
	if da < 0 {
		return geom.Collection{}
	}
	if db < 0 {
		return cloneOrEmpty(a)
	}
	switch {
	case da == 2 && db == 2:
		return simplifyMulti(PolygonOp(a, b, OpDifference))
	case da == 2:
		return cloneOrEmpty(a) // removing a 0/1-dim set leaves the area
	case da == 1 && db == 2:
		return ClipLines(a, b, false)
	case da == 0:
		var out geom.MultiPoint
		forEachPoint(a, func(p geom.Point) {
			if locGeometry(p.Coord, b) == locExterior {
				out = append(out, p)
			}
		})
		return out
	default:
		// line minus line/point: removing a 0-dim set leaves the line.
		return cloneOrEmpty(a)
	}
}

// SymDifference returns the symmetric difference of two areal geometries.
func SymDifference(a, b geom.Geometry) geom.Geometry {
	left := Difference(a, b)
	right := Difference(b, a)
	return Union(left, right)
}

// dimOf returns the dimension of g, or -1 when empty or nil.
func dimOf(g geom.Geometry) int {
	if g == nil || g.IsEmpty() {
		return -1
	}
	return g.Dimension()
}

func cloneOrEmpty(g geom.Geometry) geom.Geometry {
	if g == nil {
		return geom.Collection{}
	}
	return g.Clone()
}

// simplifyMulti collapses a MultiPolygon result: empty → empty Collection,
// single polygon → Polygon. Output ring ordering is made deterministic.
func simplifyMulti(mp geom.MultiPolygon) geom.Geometry {
	if len(mp) == 0 {
		return geom.Collection{}
	}
	sort.Slice(mp, func(i, j int) bool {
		ei, ej := mp[i].Envelope(), mp[j].Envelope()
		if ei.MinX != ej.MinX {
			return ei.MinX < ej.MinX
		}
		return ei.MinY < ej.MinY
	})
	if len(mp) == 1 {
		return mp[0]
	}
	return mp
}

func forEachPoint(g geom.Geometry, fn func(geom.Point)) {
	switch t := g.(type) {
	case geom.Point:
		if !t.Empty {
			fn(t)
		}
	case geom.MultiPoint:
		for _, p := range t {
			if !p.Empty {
				fn(p)
			}
		}
	case geom.Collection:
		for _, sub := range t {
			forEachPoint(sub, fn)
		}
	}
}

func forEachLine(g geom.Geometry, fn func(geom.LineString)) {
	switch t := g.(type) {
	case geom.LineString:
		if len(t) >= 2 {
			fn(t)
		}
	case geom.MultiLineString:
		for _, l := range t {
			if len(l) >= 2 {
				fn(l)
			}
		}
	case geom.Collection:
		for _, sub := range t {
			forEachLine(sub, fn)
		}
	}
}

// locGeometry classifies a coordinate against an arbitrary geometry
// (union semantics, boundary counted for areal and linear parts).
func locGeometry(p geom.Coord, g geom.Geometry) ovLoc {
	loc := locExterior
	switch t := g.(type) {
	case geom.Point:
		if !t.Empty && t.Coord.Equal(p) {
			return locInterior
		}
	case geom.MultiPoint:
		for _, q := range t {
			if !q.Empty && q.Coord.Equal(p) {
				return locInterior
			}
		}
	case geom.LineString:
		for i := 0; i < len(t)-1; i++ {
			if geom.OnSegment(p, t[i], t[i+1]) {
				return locBoundary
			}
		}
	case geom.MultiLineString:
		for _, l := range t {
			if locGeometry(p, l) != locExterior {
				return locBoundary
			}
		}
	case geom.Polygon:
		return locatePolygonOv(p, t)
	case geom.MultiPolygon:
		return locateMulti(p, t)
	case geom.Collection:
		for _, sub := range t {
			if l := locGeometry(p, sub); l > loc {
				loc = l
			}
			if loc == locInterior {
				return locInterior
			}
		}
	}
	return loc
}

// pointIntersection returns the points of a that lie on/in b.
func pointIntersection(a, b geom.Geometry) geom.Geometry {
	var out geom.MultiPoint
	forEachPoint(a, func(p geom.Point) {
		if locGeometry(p.Coord, b) != locExterior {
			out = append(out, p)
		}
	})
	if len(out) == 0 {
		return geom.Collection{}
	}
	if len(out) == 1 {
		return out[0]
	}
	return out
}

// ClipLines clips the linear geometry a against the areal geometry b,
// keeping the pieces inside (keepInside true) or outside (false). Pieces
// running along b's boundary count as inside.
func ClipLines(a, b geom.Geometry, keepInside bool) geom.Geometry {
	mp := toMultiPolygon(b)
	// Collect the polygon's ring segments for splitting.
	var ringEdges []ovEdge
	for _, poly := range mp {
		for _, r := range poly {
			for i := 0; i < len(r)-1; i++ {
				ringEdges = append(ringEdges, ovEdge{a: r[i], b: r[i+1], owner: 1})
			}
		}
	}
	var pieces geom.MultiLineString
	forEachLine(a, func(l geom.LineString) {
		var lineEdges []ovEdge
		for i := 0; i < len(l)-1; i++ {
			if !l[i].Equal(l[i+1]) {
				lineEdges = append(lineEdges, ovEdge{a: l[i], b: l[i+1], owner: 0})
			}
		}
		sub := splitEdges(lineEdges, ringEdges)
		var cur geom.LineString
		flush := func() {
			if len(cur) >= 2 {
				pieces = append(pieces, cur)
			}
			cur = nil
		}
		for _, e := range sub {
			mid := geom.Coord{X: (e.a.X + e.b.X) / 2, Y: (e.a.Y + e.b.Y) / 2}
			loc := locateMulti(mid, mp)
			keep := loc != locExterior
			if !keepInside {
				keep = loc == locExterior
			}
			if !keep {
				flush()
				continue
			}
			if len(cur) == 0 {
				cur = geom.LineString{e.a, e.b}
			} else if cur[len(cur)-1].Equal(e.a) {
				cur = append(cur, e.b)
			} else {
				flush()
				cur = geom.LineString{e.a, e.b}
			}
		}
		flush()
	})
	if len(pieces) == 0 {
		return geom.Collection{}
	}
	if len(pieces) == 1 {
		return pieces[0]
	}
	return pieces
}

// lineLineIntersection returns the crossing points and collinear shared
// pieces of two linear geometries.
func lineLineIntersection(a, b geom.Geometry) geom.Geometry {
	var segsA, segsB []ovEdge
	forEachLine(a, func(l geom.LineString) {
		for i := 0; i < len(l)-1; i++ {
			segsA = append(segsA, ovEdge{a: l[i], b: l[i+1]})
		}
	})
	forEachLine(b, func(l geom.LineString) {
		for i := 0; i < len(l)-1; i++ {
			segsB = append(segsB, ovEdge{a: l[i], b: l[i+1]})
		}
	})
	seenPts := make(map[geom.Coord]bool)
	var pts geom.MultiPoint
	var lines geom.MultiLineString
	idxB := geom.NewSegIndex(edgeEnvs(nil, segsB))
	idxB.Pairs(edgeEnvs(nil, segsA), func(i, j int) bool {
		ea, eb := segsA[i], segsB[j]
		kind, p0, p1 := geom.SegSegIntersection(ea.a, ea.b, eb.a, eb.b)
		switch kind {
		case geom.SegPoint:
			if !seenPts[p0] {
				seenPts[p0] = true
				pts = append(pts, geom.Point{Coord: p0})
			}
		case geom.SegOverlap:
			lines = append(lines, geom.LineString{p0, p1})
		}
		return true
	})
	// Drop points that lie on a shared piece (they are redundant).
	var outPts geom.MultiPoint
	for _, p := range pts {
		onLine := false
		for _, l := range lines {
			if geom.OnSegment(p.Coord, l[0], l[1]) {
				onLine = true
				break
			}
		}
		if !onLine {
			outPts = append(outPts, p)
		}
	}
	switch {
	case len(lines) == 0 && len(outPts) == 0:
		return geom.Collection{}
	case len(lines) == 0 && len(outPts) == 1:
		return outPts[0]
	case len(lines) == 0:
		return outPts
	case len(outPts) == 0 && len(lines) == 1:
		return lines[0]
	case len(outPts) == 0:
		return lines
	default:
		out := geom.Collection{}
		for _, p := range outPts {
			out = append(out, p)
		}
		for _, l := range lines {
			out = append(out, l)
		}
		return out
	}
}
