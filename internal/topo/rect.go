package topo

import (
	"math"

	"jackpine/internal/geom"
)

// rectWindow is a prepared axis-aligned rectangle, ST_MakeEnvelope's
// window; DESIGN.md, "Rectangle windows", shows why its answers are relate's.
type rectWindow struct {
	r     geom.Rect
	ring  geom.Ring // relate's SegSegIntersection operands
	scale float64   // the prepared shape's scale
}

// asRect recognizes one closed 5-point ring of positive width and
// height whose vertices are envelope corners and whose edges alternate
// between horizontal and vertical: four distinct corners.
func asRect(g geom.Geometry, scale float64) *rectWindow {
	p, ok := g.(geom.Polygon)
	if !ok || len(p) != 1 || len(p[0]) != 5 || !p[0][0].Equal(p[0][4]) {
		return nil
	}
	ring, e, eq := p[0], p[0].Envelope(), geom.ExactEq
	if !(e.MinX < e.MaxX && e.MinY < e.MaxY) || math.IsInf(e.Width()+e.Height(), 0) {
		return nil
	}
	for i := 0; i < 4; i++ {
		a, b, c := ring[i], ring[i+1], ring[(i+2)%4]
		if !(eq(a.X, e.MinX) || eq(a.X, e.MaxX)) || !(eq(a.Y, e.MinY) || eq(a.Y, e.MaxY)) ||
			eq(a.X, b.X) == eq(a.Y, b.Y) || eq(a.Y, b.Y) == eq(b.Y, c.Y) {
			return nil
		}
	}
	return &rectWindow{r: e, ring: ring, scale: scale}
}

// rectScan is one kernel decision in progress.
type rectScan struct {
	w       *rectWindow
	in, out geom.Rect // the rectangle shrunk and grown by b
	rev     bool      // the candidate is relate's first operand
	near    bool      // a coordinate reached the band, or a hit went undecided
	inside  bool      // the rectangle's centre lies inside some polygon
}

// intersects decides Intersects with the candidate g first when rev is
// set, second otherwise; ok is false when only relate can decide.
func (w *rectWindow) intersects(g geom.Geometry, rev bool) (hit, ok bool) {
	if g == nil || g.IsEmpty() {
		return false, true
	}
	env := g.Envelope()
	if !env.Intersects(w.r) {
		return false, true
	}
	b := 8 * relateEps * max(w.scale, math.Abs(env.MinX), math.Abs(env.MaxX), math.Abs(env.MinY), math.Abs(env.MaxY))
	if !(b < math.Inf(1)) {
		return false, false
	}
	k := rectScan{w: w, rev: rev, out: w.r.Expand(b), in: w.r.Expand(-b)}
	areal := false
	switch t := g.(type) {
	case geom.Point:
		hit = !t.Empty && k.point(t.Coord, true)
	case geom.MultiPoint:
		for i := 0; i < len(t) && !hit; i++ {
			hit = !t[i].Empty && k.point(t[i].Coord, true)
		}
	case geom.LineString:
		hit, _ = k.path(t, false)
	case geom.MultiLineString:
		for i := 0; i < len(t) && !hit; i++ {
			hit, _ = k.path(t[i], false)
		}
	case geom.Polygon:
		areal, hit = !t.IsEmpty(), k.polygon(t)
	case geom.MultiPolygon:
		for i := 0; i < len(t) && !hit; i++ {
			areal, hit = areal || !t[i].IsEmpty(), k.polygon(t[i])
		}
	default:
		return false, false
	}
	return hit || areal && k.inside, hit || !k.near
}

// point decides a point of the candidate. A vertex strictly inside the
// shrunk rectangle is shared; any point not strictly outside the grown
// one (a NaN included) reaches the band.
func (k *rectScan) point(c geom.Coord, vertex bool) bool {
	if vertex && k.in.ContainsCoordStrict(c) {
		return true
	}
	k.near = k.near || !(c.X < k.out.MinX || c.X > k.out.MaxX || c.Y < k.out.MinY || c.Y > k.out.MaxY)
	return false
}

// path decides the raw edges of a line or ring and returns the centre's
// ray parity against them, as ringLocation computes it far from edges.
func (k *rectScan) path(cs []geom.Coord, hole bool) (hit, odd bool) {
	c := k.w.r.Center()
	for i := 0; i+1 < len(cs); i++ {
		a, b := cs[i], cs[i+1]
		if k.edge(a, b, hole) {
			return true, false
		}
		if (a.Y > c.Y) != (b.Y > c.Y) {
			if t := (c.Y - a.Y) / (b.Y - a.Y); a.X+t*(b.X-a.X) > c.X {
				odd = !odd
			}
		}
	}
	return false, odd && len(cs) >= 3 // ringRes: fewer than 3 vertices is exterior
}

// polygon decides the rings and notes the centre inside, as polygonLocation would.
func (k *rectScan) polygon(p geom.Polygon) bool {
	if p.IsEmpty() { // relate skips the whole polygon
		return false
	}
	in := false
	for h, r := range p {
		k.near = k.near || len(r) > 0 && !r[0].Equal(r[len(r)-1]) // an open ring's parity proves nothing
		hit, odd := k.path(r, h > 0)
		if hit {
			return true
		}
		in = h == 0 && odd || h > 0 && in && !odd
	}
	k.inside = k.inside || in
	return false
}

// edge decides one raw edge a–b of the candidate; hole marks a hole's.
func (k *rectScan) edge(a, b geom.Coord, hole bool) bool {
	if a.Equal(b) { // relate drops zero-length edges; only the band counts
		return k.point(a, false)
	}
	if k.in.ContainsCoordStrict(a) || k.in.ContainsCoordStrict(b) {
		return true
	}
	e := geom.RectFromPoints(a, b)
	for i, meets := 0, e.Intersects(k.w.r); meets && i < 4; i++ {
		p1, p2, q1, q2 := k.w.ring[i], k.w.ring[i+1], a, b
		if !e.Intersects(geom.RectFromPoints(p1, p2)) {
			continue
		}
		if k.rev { // relate's operand order
			p1, p2, q1, q2 = a, b, p1, p2
		}
		// Relate locates p0 in both operands: in the closed rectangle it
		// is not exterior to the window, nor within tol of a line or shell
		// edge to the candidate. An invalid hole may leave its shell.
		if kind, p0, _ := geom.SegSegIntersection(p1, p2, q1, q2); kind != geom.SegDisjoint {
			if !hole && k.w.r.ContainsCoord(p0) && nearSegment(p0, a, b, math.Inf(1)) {
				return true
			}
			k.near = true
		}
	}
	// An edge whose box meets the grown rectangle (or is NaN) reaches the band.
	o := &k.out
	k.near = k.near || !(e.MaxX < o.MinX || e.MinX > o.MaxX || e.MaxY < o.MinY || e.MinY > o.MaxY)
	return false
}
