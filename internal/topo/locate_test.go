package topo

import (
	"math"
	"testing"

	"jackpine/internal/geom"
	"jackpine/internal/tiger"
)

// linearLocate is locate before its bounds: every ring edge and line
// segment runs nearSegment with its own 2·tol box reject, and no point
// is decided from the envelope.
func linearLocate(s *shape, p geom.Coord) Location {
	loc := Exterior
	for _, poly := range s.polys {
		switch polygonLocation(len(poly), func(h int) geom.PointInRingResult { return linearRingLocation(p, poly[h]) }) {
		case Interior:
			return Interior
		case Boundary:
			loc = Boundary
		}
	}
	lineHit := false
	for i := range s.segs {
		if sg := &s.segs[i]; !sg.ring && nearSegment(p, sg.a, sg.b, 2*edgeTol(p, sg.a, sg.b)) {
			lineHit = true
			break
		}
	}
	return s.locateRest(p, loc, lineHit)
}

// edgeTol is nearSegment's own tolerance for p against a–b.
func edgeTol(p, a, b geom.Coord) float64 {
	return relateEps * max(math.Abs(a.X), math.Abs(a.Y), math.Abs(b.X), math.Abs(b.Y), math.Abs(p.X), math.Abs(p.Y), 1)
}

func linearRingLocation(p geom.Coord, ring geom.Ring) geom.PointInRingResult {
	var st ringState
	for i := 0; i+1 < len(ring); i++ {
		a, b := ring[i], ring[i+1]
		if nearSegment(p, a, b, 2*edgeTol(p, a, b)) {
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

// locateProbes returns points around g that straddle every bound locate
// uses: at 0, ½, 1, 1½, 2 and 3 times each edge's own tolerance off the
// edge's middle (both sides) and beyond its first vertex, and just
// inside, on and just outside locate's envelope bound on every side.
// At most maxEdges edges per geometry are probed.
func locateProbes(s *shape, g geom.Geometry, maxEdges int) []geom.Coord {
	var edges [][2]geom.Coord
	collect := func(cs []geom.Coord) {
		for i := 0; i+1 < len(cs) && len(edges) < maxEdges; i++ {
			edges = append(edges, [2]geom.Coord{cs[i], cs[i+1]})
		}
	}
	var walk func(g geom.Geometry)
	walk = func(g geom.Geometry) {
		switch t := g.(type) {
		case geom.Point:
			edges = append(edges, [2]geom.Coord{t.Coord, t.Coord})
		case geom.MultiPoint:
			for _, p := range t {
				walk(p)
			}
		case geom.LineString:
			collect(t)
		case geom.MultiLineString:
			for _, l := range t {
				collect(l)
			}
		case geom.Polygon:
			for _, r := range t {
				collect(r)
			}
		case geom.MultiPolygon:
			for _, p := range t {
				walk(p)
			}
		case geom.Collection:
			for _, sub := range t {
				walk(sub)
			}
		}
	}
	walk(g)
	var out []geom.Coord
	for _, e := range edges {
		a, b := e[0], e[1]
		tol := relateEps * max(math.Abs(a.X), math.Abs(a.Y), math.Abs(b.X), math.Abs(b.Y), 1)
		dx, dy := b.X-a.X, b.Y-a.Y
		if n := math.Hypot(dx, dy); n > 0 {
			dx, dy = dx/n, dy/n
		} else {
			dx, dy = 1, 0
		}
		mid := geom.Coord{X: (a.X + b.X) / 2, Y: (a.Y + b.Y) / 2}
		for _, k := range []float64{0, 0.5, 1, 1.5, 2, 3} {
			off := k * tol
			out = append(out,
				geom.Coord{X: mid.X - dy*off, Y: mid.Y + dx*off},
				geom.Coord{X: mid.X + dy*off, Y: mid.Y - dx*off},
				geom.Coord{X: a.X - dx*off, Y: a.Y - dy*off})
		}
	}
	c := s.cover
	if c.IsEmpty() {
		return out
	}
	mid := c.Center()
	bound := func(x, y float64) float64 {
		return 2 * relateEps * max(s.scale, math.Abs(x), math.Abs(y), 1)
	}
	for _, side := range []struct {
		x, y   float64 // the probe before the bound is added
		sx, sy float64
	}{
		{c.MaxX, mid.Y, 1, 0}, {c.MinX, mid.Y, -1, 0},
		{mid.X, c.MaxY, 0, 1}, {mid.X, c.MinY, 0, -1},
	} {
		d := bound(side.x, side.y)
		p := geom.Coord{X: side.x + side.sx*d, Y: side.y + side.sy*d}
		for _, step := range []float64{-1, 0, 1} {
			q := p
			switch {
			case side.sx != 0 && step != 0:
				q.X = math.Nextafter(p.X, step*math.Inf(1))
			case side.sy != 0 && step != 0:
				q.Y = math.Nextafter(p.Y, step*math.Inf(1))
			}
			out = append(out, q)
		}
	}
	return out
}

// TestLocateMatchesLinear holds locate — both its linear and indexed
// paths, with the envelope shortcut and the per-edge box skip — to the
// unbounded linear walk on tiger shapes, the near-degenerate lattice
// and hand-made holes, multipolygons, lines, repeated-point and open
// rings.
func TestLocateMatchesLinear(t *testing.T) {
	ring := func(cs ...float64) geom.Ring {
		var r geom.Ring
		for i := 0; i+1 < len(cs); i += 2 {
			r = append(r, geom.Coord{X: cs[i], Y: cs[i+1]})
		}
		return r
	}
	shapes := degenerateLattice()
	shapes = append(shapes,
		geom.Polygon{ring(0, 0, 0, 0, 4, 0, 4, 4, 4, 4, 0, 4, 0, 0)},                                                  // repeated vertices
		geom.Polygon{ring(0, 0, 4, 0, 4, 4, 0, 4, 0, 0), ring(2, 2, 2, 2, 2, 2, 2, 2)},                                // a hole of one repeated point
		geom.Polygon{ring(0, 0, 4, 0, 4, 4, 0, 4)},                                                                    // open ring
		geom.Polygon{ring(-5, -5, -5, -5, -5, -5)},                                                                    // a ring of one repeated point
		geom.MultiPolygon{{ring(0, 0, 1, 0, 1, 1, 0, 1, 0, 0)}, {ring(7e5, 7e5, 7e5+1, 7e5, 7e5+1, 7e5+1, 7e5, 7e5)}}, // far-apart parts
		geom.MultiLineString{{{X: 0, Y: 0}, {X: 3, Y: 1}}, {{X: 3, Y: 1}, {X: 3, Y: 1}, {X: 5, Y: 0}}},
		geom.Collection{geom.Pt(9, 9), geom.Polygon{ngon(48, 1e5, -1e5, 3)}},
	)
	ds := tiger.Generate(tiger.Small, 1)
	for _, e := range ds.Edges {
		shapes = append(shapes, e.Geom)
	}
	for _, layer := range [][]tiger.Area{ds.AreaWater, ds.AreaLandmarks, ds.Parcels} {
		for _, a := range layer {
			shapes = append(shapes, a.Geom)
		}
	}
	for _, p := range ds.PointLandmarks[:50] {
		shapes = append(shapes, p.Geom)
	}
	checked, indexed, locs := 0, 0, [3]int{}
	for _, g := range shapes {
		s := decompose(g)
		s.index()
		if s.locIdx != nil {
			indexed++
		}
		for _, p := range locateProbes(s, g, 48) {
			got, want := s.locate(p), linearLocate(s, p)
			if got != want {
				t.Fatalf("locate(%v) = %v, linear walk says %v for %s", p, got, want, geom.WKT(g))
			}
			checked++
			locs[want]++
		}
	}
	if indexed == 0 || locs[Interior] == 0 || locs[Boundary] == 0 || locs[Exterior] == 0 {
		t.Fatalf("probes do not cover both paths and all locations: %d indexed shapes, locations %v", indexed, locs)
	}
	t.Logf("%d probes over %d shapes (%d indexed), locations I/B/E %v", checked, len(shapes), indexed, locs)
}
