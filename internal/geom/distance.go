package geom

import "math"

// Distance returns the minimum Euclidean distance between two geometries.
// It returns +Inf if either geometry is empty. Distance is zero whenever
// the geometries intersect (including containment: a point inside a
// polygon is at distance zero from it).
func Distance(a, b Geometry) float64 {
	if a == nil || b == nil || a.IsEmpty() || b.IsEmpty() {
		return math.Inf(1)
	}
	// Normalize so the "simpler" type comes first to halve the dispatch.
	best := math.Inf(1)
	forEachPart(a, func(pa Geometry) {
		forEachPart(b, func(pb Geometry) {
			if d := partDistance(pa, pb); d < best {
				best = d
			}
		})
	})
	return best
}

// DWithin reports whether Distance(a, b) <= d, exactly: for non-empty
// operands it returns that comparison for every d, d == Distance(a, b)
// included, but decides it against d instead of computing the distance.
// Distance is the minimum over segment (and point) distances plus a
// containment test; DWithin computes the same segment distances with
// the same calls, stops at the first one within d, skips a segment
// whose envelope lies beyond d (see reach), and runs the containment
// test last, only when no segment is within d. An empty or nil operand,
// for which Distance reports +Inf, is within no distance, as the
// spatial index and the envelope prefilters treat it.
func DWithin(a, b Geometry, d float64) bool {
	return a != nil && b != nil && DWithinEnv(a, a.Envelope(), b, b.Envelope(), d)
}

// DWithinEnv is DWithin for non-nil operands whose envelopes the caller
// already holds, such as a join that stored them at build time: ea and
// eb must contain a.Envelope() and b.Envelope().
func DWithinEnv(a Geometry, ea Rect, b Geometry, eb Rect, d float64) bool {
	switch {
	case a.IsEmpty(), b.IsEmpty(), !(d >= 0):
		return false // Distance is never negative, and NaN holds nothing
	case math.IsInf(d, 1):
		return true
	}
	if pa, ok := a.(Point); ok {
		if pb, ok := b.(Point); ok {
			return coordsWithin(pa.Coord, pb.Coord, d)
		}
	}
	k := within{d: d, ea: ea, eb: eb}
	k.m = max(math.Abs(ea.MinX), math.Abs(ea.MinY), math.Abs(ea.MaxX), math.Abs(ea.MaxY),
		math.Abs(eb.MinX), math.Abs(eb.MinY), math.Abs(eb.MaxX), math.Abs(eb.MaxY))
	k.r = reach(d, k.m)
	k.apart = ea.MinX > eb.MaxX+k.r || eb.MinX > ea.MaxX+k.r ||
		ea.MinY > eb.MaxY+k.r || eb.MinY > ea.MaxY+k.r
	if primitive(a) && primitive(b) {
		return k.parts(a, b)
	}
	found := false
	forEachPart(a, func(pa Geometry) {
		forEachPart(b, func(pb Geometry) {
			found = found || k.parts(pa, pb)
		})
	})
	return found
}

// coordsWithin is Dist(a, b) <= d for d >= 0. Squared lengths decide
// it outside a relative band of 2^-30, far wider than their rounding
// (a few ulps) and math.Hypot's; inside the band, and wherever a square
// could overflow or lose precision to underflow, math.Hypot decides, as
// Distance computes it.
func coordsWithin(a, b Coord, d float64) bool {
	dx, dy := a.X-b.X, a.Y-b.Y
	s, dd := dx*dx+dy*dy, d*d
	if s >= 0x1p-960 && s <= 0x1p960 && dd >= 0x1p-960 && dd <= 0x1p960 {
		if s < dd*(1-0x1p-30) {
			return true
		}
		if s > dd*(1+0x1p-30) {
			return false
		}
	}
	return math.Hypot(dx, dy) <= d
}

// reach is how far beyond d a segment's envelope may lie and still hold
// a computed segment distance within d, for coordinates of magnitude at
// most m. DistPointSegment rounds relative to the coordinates it reads,
// not to the distance it returns (a threshold of 100 between coordinates
// near 1e6 carries error near 1e6·2^-53), and its projection stays in
// the segment's envelope up to that error, so the computed distance is
// at least the envelope gap less a few ulps of m. The margin is 2^-40 of
// d + m, thousands of times that, plus a floor for subnormal results.
// A NaN or infinite reach skips nothing.
func reach(d, m float64) float64 { return d + (d+m)*0x1p-40 + 0x1p-1000 }

// within is one DWithinEnv decision over non-empty operands with d >= 0.
type within struct {
	d, r   float64 // the threshold and its reach for coordinates bounded by m
	m      float64 // bound on |coordinate| from both envelopes; polygon holes may exceed it
	ea, eb Rect
	apart  bool // the envelopes lie more than r apart, so only holes can come within d
}

// primitive reports whether g is a single point, line or polygon.
func primitive(g Geometry) bool {
	switch g.(type) {
	case Point, LineString, Polygon:
		return true
	}
	return false
}

// parts decides one pair of primitive parts, mirroring partDistance.
func (k *within) parts(a, b Geometry) bool {
	switch ta := a.(type) {
	case Point:
		switch tb := b.(type) {
		case Point:
			return !k.apart && coordsWithin(ta.Coord, tb.Coord, k.d)
		case LineString:
			return !k.apart && k.pointLine(ta.Coord, tb, k.r)
		case Polygon:
			return k.pointPolygon(ta.Coord, tb, k.eb)
		}
	case LineString:
		switch tb := b.(type) {
		case Point:
			return !k.apart && k.pointLine(tb.Coord, ta, k.r)
		case LineString:
			return !k.apart && k.lines(ta, tb, k.r)
		case Polygon:
			return k.linePolygon(ta, tb, k.eb)
		}
	case Polygon:
		switch tb := b.(type) {
		case Point:
			return k.pointPolygon(tb.Coord, ta, k.ea)
		case LineString:
			return k.linePolygon(tb, ta, k.ea)
		case Polygon:
			return k.polygons(ta, tb)
		}
	}
	return false
}

// segOutside reports whether segment a–b lies wholly on one side of w.
// A NaN coordinate never lies outside.
func segOutside(w Rect, a, b Coord) bool {
	return a.X < w.MinX && b.X < w.MinX || a.X > w.MaxX && b.X > w.MaxX ||
		a.Y < w.MinY && b.Y < w.MinY || a.Y > w.MaxY && b.Y > w.MaxY
}

// pointLine is distPointLine(p, l) <= d, skipping segments farther than
// r from p along an axis.
func (k *within) pointLine(p Coord, l []Coord, r float64) bool {
	if len(l) == 1 {
		return Dist(p, l[0]) <= k.d
	}
	w := Rect{p.X - r, p.Y - r, p.X + r, p.Y + r}
	for i := 0; i+1 < len(l); i++ {
		if !segOutside(w, l[i], l[i+1]) && DistPointSegment(p, l[i], l[i+1]) <= k.d {
			return true
		}
	}
	return false
}

// lines is distLineLine(a, b) <= d, skipping segment pairs farther than
// r apart along an axis. DistSegSeg tests no crossing between disjoint
// envelopes, so a skipped pair's distance is its endpoints', all beyond d.
func (k *within) lines(a, b []Coord, r float64) bool {
	if len(a) == 1 {
		return k.pointLine(a[0], b, r)
	}
	if len(b) == 1 {
		return k.pointLine(b[0], a, r)
	}
	for i := 0; i+1 < len(a); i++ {
		p, q := a[i], a[i+1]
		w := Rect{min(p.X, q.X) - r, min(p.Y, q.Y) - r, max(p.X, q.X) + r, max(p.Y, q.Y) + r}
		for j := 0; j+1 < len(b); j++ {
			if !segOutside(w, b[j], b[j+1]) && DistSegSeg(p, q, b[j], b[j+1]) <= k.d {
				return true
			}
		}
	}
	return false
}

// holeMag raises m to bound the coordinates of p's holes, which its
// envelope (the shell's) need not contain.
func holeMag(p Polygon, m float64) float64 {
	for _, h := range p[1:] {
		for _, c := range h {
			m = max(m, math.Abs(c.X), math.Abs(c.Y))
		}
	}
	return m
}

// pointPolygon is distPointPolygon(c, p) <= d; env contains p's shell.
func (k *within) pointPolygon(c Coord, p Polygon, env Rect) bool {
	r := k.r
	if len(p) > 1 {
		r = reach(k.d, holeMag(p, k.m))
	}
	for i, ring := range p {
		if (i > 0 || !k.apart) && k.pointLine(c, ring, r) {
			return true
		}
	}
	return k.inside(c, p, env)
}

// linePolygon is distLinePolygon(l, p) <= d; env contains p's shell.
func (k *within) linePolygon(l LineString, p Polygon, env Rect) bool {
	r := k.r
	if len(p) > 1 {
		r = reach(k.d, holeMag(p, k.m))
	}
	for i, ring := range p {
		if (i > 0 || !k.apart) && k.lines(l, ring, r) {
			return true
		}
	}
	for _, c := range l {
		if k.inside(c, p, env) {
			return true
		}
	}
	return false
}

// polygons is distPolygonPolygon(a, b) <= d.
func (k *within) polygons(a, b Polygon) bool {
	r := k.r
	if len(a) > 1 || len(b) > 1 {
		r = reach(k.d, holeMag(b, holeMag(a, k.m)))
	}
	for i, ra := range a {
		for j, rb := range b {
			if (i > 0 || j > 0 || !k.apart) && k.lines(ra, rb, r) {
				return true
			}
		}
	}
	return k.inside(a[0][0], b, k.eb) || k.inside(b[0][0], a, k.ea)
}

// inside is pointInPolygonLoose(c, p), skipped where that must be false;
// env contains p's shell. Above or below the shell's envelope, c lies in
// no edge's half-open y-span; right of it, beyond the rounding of a
// crossing's x, no crossing counts. Left of it the count is even only
// for a closed ring free of NaN, so the test runs.
func (k *within) inside(c Coord, p Polygon, env Rect) bool {
	if c.Y > env.MaxY || c.Y < env.MinY || c.X > env.MaxX+reach(0, k.m) {
		return false
	}
	return pointInPolygonLoose(c, p)
}

// forEachPart visits the primitive (non-multi) parts of g.
func forEachPart(g Geometry, fn func(Geometry)) {
	switch t := g.(type) {
	case MultiPoint:
		for _, p := range t {
			if !p.Empty {
				fn(p)
			}
		}
	case MultiLineString:
		for _, l := range t {
			if !l.IsEmpty() {
				fn(l)
			}
		}
	case MultiPolygon:
		for _, p := range t {
			if !p.IsEmpty() {
				fn(p)
			}
		}
	case Collection:
		for _, sub := range t {
			forEachPart(sub, fn)
		}
	default:
		if !g.IsEmpty() {
			fn(g)
		}
	}
}

// partDistance computes distance between primitive geometries.
func partDistance(a, b Geometry) float64 {
	switch ta := a.(type) {
	case Point:
		switch tb := b.(type) {
		case Point:
			return Dist(ta.Coord, tb.Coord)
		case LineString:
			return distPointLine(ta.Coord, tb)
		case Polygon:
			return distPointPolygon(ta.Coord, tb)
		}
	case LineString:
		switch tb := b.(type) {
		case Point:
			return distPointLine(tb.Coord, ta)
		case LineString:
			return distLineLine(ta, tb)
		case Polygon:
			return distLinePolygon(ta, tb)
		}
	case Polygon:
		switch tb := b.(type) {
		case Point:
			return distPointPolygon(tb.Coord, ta)
		case LineString:
			return distLinePolygon(tb, ta)
		case Polygon:
			return distPolygonPolygon(ta, tb)
		}
	}
	return math.Inf(1)
}

func distPointLine(p Coord, l LineString) float64 {
	if len(l) == 1 {
		return Dist(p, l[0])
	}
	best := math.Inf(1)
	for i := 0; i < len(l)-1; i++ {
		if d := DistPointSegment(p, l[i], l[i+1]); d < best {
			best = d
		}
	}
	return best
}

// pointInPolygonLoose reports whether c is inside or on the polygon.
func pointInPolygonLoose(c Coord, p Polygon) bool {
	if len(p) == 0 {
		return false
	}
	switch PointInRing(c, p[0]) {
	case RingExterior:
		return false
	case RingBoundary:
		return true
	}
	for _, hole := range p[1:] {
		if PointInRing(c, hole) == RingInterior {
			return false
		}
	}
	return true
}

func distPointPolygon(c Coord, p Polygon) float64 {
	if pointInPolygonLoose(c, p) {
		return 0
	}
	best := math.Inf(1)
	for _, ring := range p {
		if d := distPointLine(c, LineString(ring)); d < best {
			best = d
		}
	}
	return best
}

func distLineLine(a, b LineString) float64 {
	if len(a) == 1 {
		return distPointLine(a[0], b)
	}
	if len(b) == 1 {
		return distPointLine(b[0], a)
	}
	best := math.Inf(1)
	for i := 0; i < len(a)-1; i++ {
		for j := 0; j < len(b)-1; j++ {
			if d := DistSegSeg(a[i], a[i+1], b[j], b[j+1]); d < best {
				best = d
				if ExactEq(best, 0) {
					return 0
				}
			}
		}
	}
	return best
}

func distLinePolygon(l LineString, p Polygon) float64 {
	if len(p) == 0 || len(l) == 0 {
		return math.Inf(1)
	}
	// Any vertex inside the polygon means contact or containment.
	for _, c := range l {
		if pointInPolygonLoose(c, p) {
			return 0
		}
	}
	best := math.Inf(1)
	for _, ring := range p {
		if d := distLineLine(l, LineString(ring)); d < best {
			best = d
			if ExactEq(best, 0) {
				return 0
			}
		}
	}
	return best
}

func distPolygonPolygon(a, b Polygon) float64 {
	if len(a) == 0 || len(b) == 0 {
		return math.Inf(1)
	}
	// Containment screening: a vertex of one inside the other.
	if pointInPolygonLoose(a[0][0], b) || pointInPolygonLoose(b[0][0], a) {
		return 0
	}
	best := math.Inf(1)
	for _, ra := range a {
		for _, rb := range b {
			if d := distLineLine(LineString(ra), LineString(rb)); d < best {
				best = d
				if ExactEq(best, 0) {
					return 0
				}
			}
		}
	}
	return best
}
