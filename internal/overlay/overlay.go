// Package overlay implements constructive planar geometry: polygon
// boolean operations (intersection, union, difference, symmetric
// difference), buffers, convex hulls, and the mixed-type ST_Intersection
// semantics built on them.
//
// Polygon boolean operations use an overlay-graph method: all edges of
// both operands are split at their pairwise intersections, each resulting
// sub-edge is classified against the other operand (inside / outside /
// on-boundary), the operation's selection rules pick the boundary
// sub-edges of the result, and the selected directed edges are stitched
// back into rings. Inputs must be valid polygons (see geom.Validate);
// outputs have counter-clockwise shells and clockwise holes.
package overlay

import (
	"math"

	"jackpine/internal/geom"
)

// Op identifies a boolean overlay operation.
type Op int

// The supported boolean operations.
const (
	OpIntersection Op = iota
	OpUnion
	OpDifference
)

// PolygonOp applies the boolean operation to two areal operands and
// returns the resulting region. Operands may be Polygon or MultiPolygon;
// the result is a MultiPolygon (possibly empty).
func PolygonOp(a, b geom.Geometry, op Op) geom.MultiPolygon {
	pa, pb := toMultiPolygon(a), toMultiPolygon(b)
	if len(pa) == 0 {
		if op == OpIntersection || op == OpDifference {
			return nil
		}
		return normalizeMulti(pb)
	}
	if len(pb) == 0 {
		if op == OpIntersection {
			return nil
		}
		return normalizeMulti(pa)
	}
	// Envelope screening.
	ea, eb := pa.Envelope(), pb.Envelope()
	if !ea.Intersects(eb) {
		switch op {
		case OpIntersection:
			return nil
		case OpDifference:
			return normalizeMulti(pa)
		default:
			out := normalizeMulti(pa)
			return append(out, normalizeMulti(pb)...)
		}
	}
	g := newOverlayGraph(normalizeMulti(pa), normalizeMulti(pb))
	return g.run(op)
}

// toMultiPolygon extracts the areal parts of g.
func toMultiPolygon(g geom.Geometry) geom.MultiPolygon {
	switch t := g.(type) {
	case geom.Polygon:
		if t.IsEmpty() {
			return nil
		}
		return geom.MultiPolygon{t}
	case geom.MultiPolygon:
		var out geom.MultiPolygon
		for _, p := range t {
			if !p.IsEmpty() {
				out = append(out, p)
			}
		}
		return out
	case geom.Collection:
		var out geom.MultiPolygon
		for _, sub := range t {
			out = append(out, toMultiPolygon(sub)...)
		}
		return out
	default:
		return nil
	}
}

// normalizeMulti deep-copies polygons with shells counter-clockwise and
// holes clockwise, dropping degenerate rings.
func normalizeMulti(mp geom.MultiPolygon) geom.MultiPolygon {
	out := make(geom.MultiPolygon, 0, len(mp))
	for _, p := range mp {
		np := make(geom.Polygon, 0, len(p))
		for i, r := range p {
			if len(r) < 4 || math.Abs(geom.RingSignedArea2(r)) == 0 {
				continue
			}
			nr := append(geom.Ring(nil), r...)
			ccw := geom.RingIsCCW(nr)
			if i == 0 && !ccw || i > 0 && ccw {
				geom.ReverseCoords(nr)
			}
			np = append(np, nr)
		}
		if len(np) > 0 {
			out = append(out, np)
		}
	}
	return out
}

// ovEdge is a directed sub-edge in the overlay graph.
type ovEdge struct {
	a, b  geom.Coord
	owner int // 0 = first operand, 1 = second
}

type overlayGraph struct {
	ops   [2]geom.MultiPolygon
	edges [2][]ovEdge // original directed edges per operand
}

func newOverlayGraph(a, b geom.MultiPolygon) *overlayGraph {
	g := &overlayGraph{ops: [2]geom.MultiPolygon{a, b}}
	for side, mp := range g.ops {
		for _, p := range mp {
			for _, r := range p {
				for i := 0; i < len(r)-1; i++ {
					if !r[i].Equal(r[i+1]) {
						g.edges[side] = append(g.edges[side], ovEdge{a: r[i], b: r[i+1], owner: side})
					}
				}
			}
		}
	}
	return g
}

// run executes the operation and assembles the resulting polygons.
func (g *overlayGraph) run(op Op) geom.MultiPolygon {
	subA, subB := splitBoth(g.edges[0], g.edges[1])

	// Index B sub-edges by canonical endpoints for coincidence lookup.
	type dirInfo struct{ same, opposite bool }
	coincident := make(map[[4]float64]*dirInfo, len(subB))
	for _, e := range subB {
		k, forward := canonKey(e.a, e.b)
		info := coincident[k]
		if info == nil {
			info = &dirInfo{}
			coincident[k] = info
		}
		if forward {
			info.same = true
		} else {
			info.opposite = true
		}
	}

	var selected []ovEdge
	// Classify and select A's sub-edges.
	for _, e := range subA {
		mid := geom.Coord{X: (e.a.X + e.b.X) / 2, Y: (e.a.Y + e.b.Y) / 2}
		k, forward := canonKey(e.a, e.b)
		if info, ok := coincident[k]; ok {
			sameDir := (forward && info.same) || (!forward && info.opposite)
			switch op {
			case OpUnion, OpIntersection:
				if sameDir {
					selected = append(selected, e)
				}
			case OpDifference:
				if !sameDir {
					selected = append(selected, e)
				}
			}
			continue
		}
		switch loc := locateMulti(mid, g.ops[1]); {
		case op == OpIntersection && loc == locInterior,
			op == OpUnion && loc == locExterior,
			op == OpDifference && loc == locExterior:
			selected = append(selected, e)
		case loc == locBoundary:
			// Midpoint grazes the other boundary without a coincident
			// sub-edge: a tangency at the sampling point. Resolve by
			// sampling off-centre.
			alt := geom.Coord{X: e.a.X + 0.25*(e.b.X-e.a.X), Y: e.a.Y + 0.25*(e.b.Y-e.a.Y)}
			loc = locateMulti(alt, g.ops[1])
			if (op == OpIntersection && loc == locInterior) ||
				(op != OpIntersection && loc == locExterior) {
				selected = append(selected, e)
			}
		}
	}
	// Classify and select B's sub-edges (coincident ones were decided via
	// A's copies above).
	for _, e := range subB {
		mid := geom.Coord{X: (e.a.X + e.b.X) / 2, Y: (e.a.Y + e.b.Y) / 2}
		loc := locateMulti(mid, g.ops[0])
		switch {
		case op == OpIntersection && loc == locInterior:
			selected = append(selected, e)
		case op == OpUnion && loc == locExterior:
			selected = append(selected, e)
		case op == OpDifference && loc == locInterior:
			selected = append(selected, ovEdge{a: e.b, b: e.a, owner: e.owner})
		}
	}

	rings := stitch(selected)
	return assemblePolygons(rings)
}

// canonKey builds an order-independent key for a segment and reports
// whether (a, b) is in canonical order.
func canonKey(a, b geom.Coord) ([4]float64, bool) {
	if a.X < b.X || (a.X == b.X && a.Y < b.Y) {
		return [4]float64{a.X, a.Y, b.X, b.Y}, true
	}
	return [4]float64{b.X, b.Y, a.X, a.Y}, false
}

// splitBoth splits the edges of both operands at their pairwise
// intersections. Each intersection point is computed exactly once and the
// same coordinate is registered on both sides, so the resulting sub-edge
// endpoints match bit-for-bit and stitch cleanly.
func splitBoth(aEdges, bEdges []ovEdge) (subA, subB []ovEdge) {
	cutsA := make([][]cutPoint, len(aEdges))
	cutsB := make([][]cutPoint, len(bEdges))
	cut := func(i, j int) bool {
		ea, eb := aEdges[i], bEdges[j]
		kind, p0, p1 := geom.SegSegIntersection(ea.a, ea.b, eb.a, eb.b)
		if kind == geom.SegDisjoint {
			return true
		}
		p0 = snapToEndpoints(p0, ea, eb)
		cutsA[i] = append(cutsA[i], cutPoint{geom.SegParam(ea.a, ea.b, p0), p0})
		cutsB[j] = append(cutsB[j], cutPoint{geom.SegParam(eb.a, eb.b, p0), p0})
		if kind == geom.SegOverlap {
			p1 = snapToEndpoints(p1, ea, eb)
			cutsA[i] = append(cutsA[i], cutPoint{geom.SegParam(ea.a, ea.b, p1), p1})
			cutsB[j] = append(cutsB[j], cutPoint{geom.SegParam(eb.a, eb.b, p1), p1})
		}
		return true
	}
	edgePairs(aEdges, bEdges, cut)
	return applyCuts(aEdges, cutsA, 1e-9), applyCuts(bEdges, cutsB, 1e-9)
}

// edgePairs calls fn(i, j) for every edge a[i] and edge b[j] whose
// envelopes intersect. It indexes the smaller side, whose index is the
// cheaper to build; either way each edge meets its partners in
// ascending order, so every cut list fills in the same order.
func edgePairs(a, b []ovEdge, fn func(i, j int) bool) {
	// Stack buffers hold the envelopes of the edge lists the overlay
	// mostly meets (a buffer pair has up to 64 edges a side) without
	// allocating.
	var bufA, bufB [64]geom.Rect
	envA, envB := edgeEnvs(bufA[:0], a), edgeEnvs(bufB[:0], b)
	if len(a) < len(b) {
		idx := geom.NewSegIndex(envA)
		idx.Pairs(envB, func(j, i int) bool { return fn(i, j) })
		return
	}
	idx := geom.NewSegIndex(envB)
	idx.Pairs(envA, fn)
}

// edgeEnvs appends the envelope of each edge to dst.
func edgeEnvs(dst []geom.Rect, edges []ovEdge) []geom.Rect {
	for _, e := range edges {
		dst = append(dst, geom.RectFromPoints(e.a, e.b))
	}
	return dst
}

// snapToEndpoints moves an intersection point onto a nearby edge endpoint
// so both sides of the overlay register bit-identical split coordinates.
// The snap tolerance is relative to each edge's length, matching the
// parameter epsilon used by applyCuts.
func snapToEndpoints(p geom.Coord, ea, eb ovEdge) geom.Coord {
	for _, e := range [...]ovEdge{ea, eb} {
		tol := 1e-9 * (math.Abs(e.b.X-e.a.X) + math.Abs(e.b.Y-e.a.Y))
		if math.Abs(p.X-e.a.X)+math.Abs(p.Y-e.a.Y) <= tol {
			return e.a
		}
		if math.Abs(p.X-e.b.X)+math.Abs(p.Y-e.b.Y) <= tol {
			return e.b
		}
	}
	return p
}

// applyCuts subdivides each edge at its recorded cut parameters,
// skipping cuts within eps of the previous cut or of the edge's end.
func applyCuts(edges []ovEdge, cuts [][]cutPoint, eps float64) []ovEdge {
	var out []ovEdge
	for i, e := range edges {
		cs := cuts[i]
		if len(cs) == 0 {
			out = append(out, e)
			continue
		}
		sortCutPoints(cs)
		prev := e.a
		prevT := 0.0
		for _, c := range cs {
			if c.t <= prevT+eps || c.t >= 1-eps || c.p.Equal(prev) {
				continue
			}
			out = append(out, ovEdge{a: prev, b: c.p, owner: e.owner})
			prev = c.p
			prevT = c.t
		}
		if !prev.Equal(e.b) {
			out = append(out, ovEdge{a: prev, b: e.b, owner: e.owner})
		}
	}
	return out
}

// splitEdges splits each edge of src at every intersection with edges of
// other, preserving direction. Used where only one side needs splitting
// (line clipping); polygon overlay uses splitBoth for exact endpoint
// agreement between the two sides.
func splitEdges(src, other []ovEdge) []ovEdge {
	cuts := make([][]cutPoint, len(src))
	edgePairs(src, other, func(i, j int) bool {
		e, o := src[i], other[j]
		kind, p0, p1 := geom.SegSegIntersection(e.a, e.b, o.a, o.b)
		switch kind {
		case geom.SegPoint:
			cuts[i] = append(cuts[i], cutPoint{geom.SegParam(e.a, e.b, p0), p0})
		case geom.SegOverlap:
			cuts[i] = append(cuts[i], cutPoint{geom.SegParam(e.a, e.b, p0), p0}, cutPoint{geom.SegParam(e.a, e.b, p1), p1})
		}
		return true
	})
	return applyCuts(src, cuts, 1e-12)
}

type cutPoint struct {
	t float64
	p geom.Coord
}

func sortCutPoints(cs []cutPoint) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cs[j].t < cs[j-1].t; j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

// Point-in-region classification for overlay selection.
type ovLoc int

const (
	locExterior ovLoc = iota
	locBoundary
	locInterior
)

func locateMulti(p geom.Coord, mp geom.MultiPolygon) ovLoc {
	loc := locExterior
	for _, poly := range mp {
		switch locatePolygonOv(p, poly) {
		case locInterior:
			return locInterior
		case locBoundary:
			loc = locBoundary
		}
	}
	return loc
}

func locatePolygonOv(p geom.Coord, poly geom.Polygon) ovLoc {
	if len(poly) == 0 {
		return locExterior
	}
	switch geom.PointInRing(p, poly[0]) {
	case geom.RingExterior:
		return locExterior
	case geom.RingBoundary:
		return locBoundary
	}
	for _, hole := range poly[1:] {
		switch geom.PointInRing(p, hole) {
		case geom.RingInterior:
			return locExterior
		case geom.RingBoundary:
			return locBoundary
		}
	}
	return locInterior
}

// stitch links the selected directed edges into closed rings. At
// junctions with several outgoing edges the walk picks the edge making
// the sharpest counter-clockwise turn, which keeps result interiors on
// the left and rings simple.
func stitch(edges []ovEdge) []geom.Ring {
	outgoing := make(map[geom.Coord][]int, len(edges))
	for i, e := range edges {
		outgoing[e.a] = append(outgoing[e.a], i)
	}
	used := make([]bool, len(edges))
	var rings []geom.Ring

	for start := range edges {
		if used[start] {
			continue
		}
		ring := geom.Ring{edges[start].a}
		cur := start
		for steps := 0; steps <= len(edges); steps++ {
			used[cur] = true
			ring = append(ring, edges[cur].b)
			if edges[cur].b.Equal(ring[0]) {
				break
			}
			next := pickNext(edges, outgoing[edges[cur].b], edges[cur], used)
			if next < 0 {
				ring = nil // dangling chain: drop it
				break
			}
			cur = next
		}
		if len(ring) >= 4 && ring[0].Equal(ring[len(ring)-1]) {
			ring = dedupeRing(ring)
			if len(ring) >= 4 && math.Abs(geom.RingSignedArea2(ring)) > 1e-18 {
				rings = append(rings, ring)
			}
		}
	}
	return rings
}

// pickNext chooses the unused outgoing edge with the smallest clockwise
// rotation from the incoming direction (equivalently, the sharpest left
// turn), excluding an immediate reversal unless it is the only option.
func pickNext(edges []ovEdge, candidates []int, in ovEdge, used []bool) int {
	inAng := math.Atan2(in.b.Y-in.a.Y, in.b.X-in.a.X)
	best := -1
	bestTurn := math.Inf(1)
	reversal := -1
	for _, c := range candidates {
		if used[c] {
			continue
		}
		e := edges[c]
		outAng := math.Atan2(e.b.Y-e.a.Y, e.b.X-e.a.X)
		// Turn angle in (0, 2π]: rotation from the incoming direction to
		// the outgoing direction measured clockwise; the smallest value
		// is the sharpest left (counter-clockwise) turn.
		turn := math.Mod(inAng+math.Pi-outAng+4*math.Pi, 2*math.Pi)
		if turn < 1e-12 {
			reversal = c // exact U-turn: only as a last resort
			continue
		}
		if turn < bestTurn {
			bestTurn = turn
			best = c
		}
	}
	if best < 0 {
		return reversal
	}
	return best
}

func dedupeRing(r geom.Ring) geom.Ring {
	out := r[:1]
	for _, c := range r[1:] {
		if !c.Equal(out[len(out)-1]) {
			out = append(out, c)
		}
	}
	if len(out) >= 2 && !out[0].Equal(out[len(out)-1]) {
		out = append(out, out[0])
	}
	return out
}

// assemblePolygons groups stitched rings into polygons: counter-clockwise
// rings are shells, clockwise rings are holes assigned to the smallest
// enclosing shell.
func assemblePolygons(rings []geom.Ring) geom.MultiPolygon {
	type shellInfo struct {
		ring geom.Ring
		area float64
	}
	var shells []shellInfo
	var holes []geom.Ring
	for _, r := range rings {
		if geom.RingIsCCW(r) {
			shells = append(shells, shellInfo{r, math.Abs(geom.RingSignedArea2(r)) / 2})
		} else {
			holes = append(holes, r)
		}
	}
	if len(shells) == 0 {
		return nil
	}
	polys := make(geom.MultiPolygon, len(shells))
	for i, s := range shells {
		polys[i] = geom.Polygon{s.ring}
	}
	for _, h := range holes {
		bestIdx := -1
		bestArea := math.Inf(1)
		for i, s := range shells {
			if s.area < bestArea && ringContainsRing(s.ring, h) {
				bestArea = s.area
				bestIdx = i
			}
		}
		if bestIdx >= 0 {
			polys[bestIdx] = append(polys[bestIdx], h)
		}
	}
	return polys
}

// ringContainsRing reports whether inner lies inside outer, using
// majority sampling over inner's vertices and edge midpoints to tolerate
// boundary contact.
func ringContainsRing(outer, inner geom.Ring) bool {
	in, out := 0, 0
	consider := func(p geom.Coord) {
		switch geom.PointInRing(p, outer) {
		case geom.RingInterior:
			in++
		case geom.RingExterior:
			out++
		}
	}
	for i := 0; i < len(inner)-1; i++ {
		consider(inner[i])
		consider(geom.Coord{X: (inner[i].X + inner[i+1].X) / 2, Y: (inner[i].Y + inner[i+1].Y) / 2})
		if in+out >= 8 {
			break
		}
	}
	return in > out
}
