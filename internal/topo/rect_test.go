package topo

import (
	"math"
	"testing"

	"jackpine/internal/geom"
	"jackpine/internal/tiger"
)

// ms1Windows returns the query windows of MS1's first iters operations
// over ds: three zoom levels from one random base (8, 4 and 2 blocks),
// then two street-level pans. The base window repeats
// core.QueryContext.Window's stream; core.WindowWKT's %g round-trips
// every bound exactly.
func ms1Windows(ds *tiger.Dataset, iters int) []geom.Rect {
	var out []geom.Rect
	add := func(w geom.Rect) { out = append(out, w) }
	for iter := 0; iter < iters; iter++ {
		h := uint64(1469598103934665603)
		for _, c := range []byte("MS1") {
			h = (h ^ uint64(c)) * 1099511628211
		}
		h ^= uint64(ds.Seed) * 0x9E3779B97F4A7C15
		h ^= uint64(iter+1) * 0xBF58476D1CE4E5B9
		next := func() float64 {
			h += 0x9E3779B97F4A7C15
			z := h
			z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
			z = (z ^ (z >> 27)) * 0x94D049BB133111EB
			return float64((z^(z>>31))>>11) / (1 << 53)
		}
		side, ext := 8*tiger.BlockSize, ds.Extent
		x := ext.MinX + next()*(max(ext.MaxX-side, ext.MinX)-ext.MinX)
		y := ext.MinY + next()*(max(ext.MaxY-side, ext.MinY)-ext.MinY)
		for _, blocks := range []float64{8, 4, 2} {
			add(geom.Rect{MinX: x, MinY: y, MaxX: x + blocks*100, MaxY: y + blocks*100})
		}
		w := geom.Rect{MinX: x, MinY: y, MaxX: x + 200, MaxY: y + 200}
		for pan := 0; pan < 2; pan++ {
			w = geom.Rect{MinX: w.MinX + 100, MinY: w.MinY, MaxX: w.MaxX + 100, MaxY: w.MaxY}
			add(w)
		}
	}
	return out
}

// tigerLayers returns the four MS1 layers' geometries.
func tigerLayers(ds *tiger.Dataset) map[string][]geom.Geometry {
	layers := map[string][]geom.Geometry{}
	for _, e := range ds.Edges {
		layers["edges"] = append(layers["edges"], e.Geom)
	}
	for _, a := range ds.AreaWater {
		layers["areawater"] = append(layers["areawater"], a.Geom)
	}
	for _, a := range ds.AreaLandmarks {
		layers["arealm"] = append(layers["arealm"], a.Geom)
	}
	for _, p := range ds.PointLandmarks {
		layers["pointlm"] = append(layers["pointlm"], p.Geom)
	}
	return layers
}

// checkRect compares the prepared rectangle's Intersects and Disjoint,
// in both operand orders, with the unprepared relate answers, and
// reports whether the kernel decided all four without the fallback.
func checkRect(t *testing.T, pr *Prepared, c geom.Geometry) bool {
	t.Helper()
	r := pr.Geometry()
	want, wantRev := Intersects(r, c), Intersects(c, r)
	if got := pr.Eval(PredIntersects, c); got != want {
		t.Errorf("Eval(Intersects) = %v, relate says %v for %s / %s", got, want, geom.WKT(r), geom.WKT(c))
	}
	if got := pr.EvalReversed(PredIntersects, c); got != wantRev {
		t.Errorf("EvalReversed(Intersects) = %v, relate says %v for %s / %s", got, wantRev, geom.WKT(c), geom.WKT(r))
	}
	if got := pr.Eval(PredDisjoint, c); got != Disjoint(r, c) {
		t.Errorf("Eval(Disjoint) = %v, relate disagrees for %s / %s", got, geom.WKT(r), geom.WKT(c))
	}
	if got := pr.EvalReversed(PredDisjoint, c); got != Disjoint(c, r) {
		t.Errorf("EvalReversed(Disjoint) = %v, relate disagrees for %s / %s", got, geom.WKT(c), geom.WKT(r))
	}
	if pr.rect == nil {
		return false
	}
	_, ok := pr.rect.intersects(c, false)
	_, okRev := pr.rect.intersects(c, true)
	return ok && okRev
}

// rectLattice returns candidates around the rectangle r placed at the
// kernel's bound b: edges on and along the rectangle's sides, corner
// touches, parallel lines, points and boxes at gaps of 0, ½b, b, 2b,
// 4b, 8b and 16b on both sides of every side (the kernel's own bound
// grows with the candidate's coordinates, so the larger gaps straddle it
// for the small rectangles), diagonals past the corners, holes that
// hold or cut the rectangle, multi-parts, the rectangle inside a
// candidate, and an invalid hole outside its shell.
func rectLattice(r geom.Rect, b float64) []geom.Geometry {
	pt := func(x, y float64) geom.Coord { return geom.Coord{X: x, Y: y} }
	box := func(x0, y0, x1, y1 float64) geom.Polygon {
		return geom.Rect{MinX: x0, MinY: y0, MaxX: x1, MaxY: y1}.ToPolygon()
	}
	hole := func(outer, inner geom.Polygon) geom.Polygon {
		ring := make(geom.Ring, len(inner[0]))
		for i, c := range inner[0] {
			ring[len(ring)-1-i] = c
		}
		return geom.Polygon{outer[0], ring}
	}
	w, h := r.Width(), r.Height()
	mid := r.Center()
	var out []geom.Geometry
	gaps := []float64{0, w / 4}
	for _, k := range []float64{0.5, 1, 2, 4, 8, 16} {
		gaps = append(gaps, k*b, -k*b)
	}
	for _, g := range gaps {
		// g > 0 is outside the rectangle, g < 0 inside.
		for _, side := range []struct{ nx, ny, ex, ey float64 }{
			{0, -1, r.MinX, r.MinY}, {0, 1, r.MinX, r.MaxY}, {-1, 0, r.MinX, r.MinY}, {1, 0, r.MaxX, r.MinY},
		} {
			// A line parallel to the side, across its whole length and
			// beyond, and one inside its span.
			x0, y0 := side.ex+side.nx*g, side.ey+side.ny*g
			if side.nx == 0 {
				out = append(out,
					geom.LineString{pt(r.MinX-w, y0), pt(r.MaxX+w, y0)},
					geom.LineString{pt(r.MinX+w/4, y0), pt(r.MaxX-w/4, y0)},
					geom.Point{Coord: pt(mid.X, y0)},
					box(r.MinX+w/4, y0+side.ny*w/2, r.MaxX-w/4, y0)) // a box on the outer side
			} else {
				out = append(out,
					geom.LineString{pt(x0, r.MinY-h), pt(x0, r.MaxY+h)},
					geom.LineString{pt(x0, r.MinY+h/4), pt(x0, r.MaxY-h/4)},
					geom.Point{Coord: pt(x0, mid.Y)},
					box(x0, r.MinY+h/4, x0+side.nx*w/2, r.MaxY-h/4))
			}
		}
		// Corner contact and near-misses at the upper-right corner.
		cx, cy := r.MaxX+g, r.MaxY+g
		out = append(out,
			box(cx, cy, cx+w, cy+h),
			geom.Point{Coord: pt(cx, cy)},
			geom.LineString{pt(cx, cy), pt(cx+w, cy+h)},
			// A diagonal that passes the corner at distance g·√½.
			geom.LineString{pt(cx+w, r.MaxY+g-w), pt(r.MaxX+g-h, cy+h)},
			// A big polygon with the rectangle in its hole, the hole's
			// edges g outside the rectangle's.
			hole(box(r.MinX-3*w, r.MinY-3*h, r.MaxX+3*w, r.MaxY+3*h), box(r.MinX-g, r.MinY-g, r.MaxX+g, r.MaxY+g)),
			// The rectangle inside a candidate that grows by g.
			box(r.MinX-g, r.MinY-g, r.MaxX+g, r.MaxY+g),
			// A hook whose envelope covers the rectangle and whose tip
			// stops g below it.
			geom.LineString{pt(mid.X, r.MinY-g), pt(mid.X, r.MinY-h), pt(r.MaxX+w, r.MinY-h), pt(r.MaxX+w, r.MaxY+h)},
		)
	}
	out = append(out,
		// Edges along the rectangle's sides.
		geom.LineString{pt(r.MinX, r.MinY), pt(r.MaxX, r.MinY)},
		geom.LineString{pt(r.MinX-w, r.MinY), pt(r.MinX+w/2, r.MinY)},
		box(r.MinX, r.MinY-h, r.MaxX, r.MinY),
		box(r.MinX-w, r.MinY, r.MinX, r.MaxY),
		r.ToPolygon(),
		// Corners and sides as points.
		geom.MultiPoint{{Coord: pt(r.MinX, r.MinY)}, {Coord: pt(r.MaxX+w, r.MaxY)}},
		geom.MultiPoint{{Coord: pt(mid.X, r.MaxY)}},
		geom.MultiPoint{{Coord: pt(r.MaxX+w, r.MaxY+h)}, {Empty: true}},
		// Holes that cut the rectangle, and the rectangle straddling
		// a hole's edge.
		hole(box(r.MinX-w, r.MinY-h, r.MaxX+w, r.MaxY+h), box(mid.X, mid.Y, r.MaxX+w/2, r.MaxY+h/2)),
		hole(box(r.MinX-w, r.MinY-h, r.MaxX+w, r.MaxY+h), box(r.MinX+w/4, r.MinY+h/4, r.MaxX-w/4, r.MaxY-h/4)),
		// Multi-parts on both sides of the rectangle.
		geom.MultiPolygon{box(r.MinX-2*w, r.MinY, r.MinX-w, r.MaxY), box(mid.X, mid.Y, r.MaxX+w, r.MaxY+h)},
		geom.MultiPolygon{box(r.MinX-2*w, r.MinY, r.MinX-w, r.MaxY), box(r.MaxX+w, r.MinY, r.MaxX+2*w, r.MaxY)},
		geom.MultiLineString{{pt(r.MinX-w, r.MinY-h), pt(r.MinX-w/2, r.MinY-h)}, {pt(r.MaxX+w, mid.Y), pt(mid.X, mid.Y)}},
		// Holes outside their shell (invalid) that cross the rectangle
		// or touch its corner; only relate knows what to make of them.
		geom.Polygon{box(r.MaxX+w, r.MaxY+h, r.MaxX+2*w, r.MaxY+2*h)[0], box(mid.X, mid.Y, r.MaxX+w/2, r.MaxY+h/2)[0]},
		geom.Polygon{box(r.MaxX+w, r.MaxY+h, r.MaxX+2*w, r.MaxY+2*h)[0], box(r.MaxX, r.MaxY, r.MaxX+w/2, r.MaxY+h/2)[0]},
		// An open ring whose ray parity is odd at the rectangle's top
		// edge and even at its centre.
		geom.Polygon{geom.Ring{pt(r.MaxX+w, r.MaxY-h/8), pt(r.MaxX+w, r.MaxY+h), pt(r.MinX-w, r.MaxY+h), pt(r.MinX-w, r.MinY-h)}},
		// Zero-length edges and a one-point ring.
		geom.LineString{pt(mid.X, mid.Y), pt(mid.X, mid.Y), pt(r.MaxX+w, mid.Y)},
		geom.Polygon{geom.Ring{pt(mid.X, mid.Y), pt(mid.X, mid.Y), pt(mid.X, mid.Y), pt(mid.X, mid.Y)}},
		geom.Collection{geom.Point{Coord: mid}},
	)
	return out
}

// TestRectKernelMatchesRelate holds the rectangle kernel to relate: for
// every candidate of MS1's windows over the four tiger layers (every
// geometry whose envelope meets the window, the R-tree's candidate
// set), and over a lattice of degenerate cases around rectangles of
// three scales. On tiger at least 90 % of candidates must be decided
// without the fallback.
func TestRectKernelMatchesRelate(t *testing.T) {
	t.Run("tiger", func(t *testing.T) {
		ds := tiger.Generate(tiger.Medium, 1)
		if testing.Short() {
			ds = tiger.Generate(tiger.Small, 1)
		}
		layers := tigerLayers(ds)
		total, decided := 0, 0
		for _, w := range ms1Windows(ds, 8) {
			pr := Prepare(w.ToPolygon())
			if pr.rect == nil {
				t.Fatalf("window %v not recognized as a rectangle", w)
			}
			for _, gs := range layers {
				for _, g := range gs {
					if !g.Envelope().Intersects(w) {
						continue
					}
					total++
					if checkRect(t, pr, g) {
						decided++
					}
				}
			}
		}
		if total < 1000 || float64(decided) < 0.9*float64(total) {
			t.Fatalf("kernel decided %d of %d candidates, want >= 90 %% of >= 1000", decided, total)
		}
		t.Logf("kernel decided %d of %d candidates", decided, total)
	})
	t.Run("lattice", func(t *testing.T) {
		total, decided := 0, 0
		for _, r := range []geom.Rect{
			{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10},
			{MinX: -3, MinY: 1, MaxX: -1, MaxY: 7},
			{MinX: 1e5, MinY: -3e5, MaxX: 1e5 + 7, MaxY: -3e5 + 2},
		} {
			pr := Prepare(r.ToPolygon())
			if pr.rect == nil {
				t.Fatalf("%v not recognized as a rectangle", r)
			}
			b := 8 * relateEps * max(1, math.Abs(r.MinX), math.Abs(r.MaxX), math.Abs(r.MinY), math.Abs(r.MaxY))
			for _, c := range rectLattice(r, b) {
				total++
				if checkRect(t, pr, c) {
					decided++
				}
			}
		}
		if decided == 0 || decided == total {
			t.Fatalf("kernel decided %d of %d lattice candidates: the lattice misses the band or the kernel", decided, total)
		}
		t.Logf("kernel decided %d of %d lattice candidates", decided, total)
	})
	t.Run("not rectangles", func(t *testing.T) {
		ring := func(cs ...float64) geom.Polygon {
			var r geom.Ring
			for i := 0; i+1 < len(cs); i += 2 {
				r = append(r, geom.Coord{X: cs[i], Y: cs[i+1]})
			}
			return geom.Polygon{r}
		}
		for _, g := range []geom.Geometry{
			ring(0, 0, 0, 0, 0, 10, 0, 10, 0, 0),   // zero width
			ring(0, 0, 10, 0, 10, 0, 0, 0, 0, 0),   // zero height
			ring(0, 0, 10, 0, 10, 10, 10, 0, 0, 0), // a spike: three corners
			ring(0, 0, 10, 0, 0, 0, 0, 10, 0, 0),   // two spikes
			ring(5, 0, 10, 5, 5, 10, 0, 5, 5, 0),   // a rotated square
			ring(0, 0, 10, 0, 10, 10, 0, 10, 0, 1), // open
			ring(0, 0, 10, 0, 10, 10, 0, 10),       // four points
			geom.MultiPolygon{ring(0, 0, 10, 0, 10, 10, 0, 10, 0, 0)},
			geom.Polygon{ring(0, 0, 10, 0, 10, 10, 0, 10, 0, 0)[0], ring(2, 2, 2, 3, 3, 3, 3, 2, 2, 2)[0]},
			ring(0, 0, 10, 0, 10, math.Inf(1), 0, math.Inf(1), 0, 0),
			ring(0, 0, 10, 0, 10, math.NaN(), 0, math.NaN(), 0, 0),
		} {
			pr := Prepare(g)
			if pr.rect != nil {
				t.Errorf("%s recognized as a rectangle", geom.WKT(g))
			}
			for _, c := range rectLattice(geom.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}, 1e-7)[:40] {
				checkRect(t, pr, c)
			}
		}
	})
}

// TestRectWindowAllocs holds the kernel to zero allocations per
// candidate it decides: EvalReversed(Intersects) over the tiger edges,
// arealm and parcels that meet MS1's windows.
func TestRectWindowAllocs(t *testing.T) {
	ds := tiger.Generate(tiger.Small, 1)
	var layers [][]geom.Geometry
	for _, l := range [][]tiger.Area{ds.AreaLandmarks, ds.Parcels} {
		var gs []geom.Geometry
		for _, a := range l {
			gs = append(gs, a.Geom)
		}
		layers = append(layers, gs)
	}
	layers = append(layers, tigerLayers(ds)["edges"])
	for _, w := range ms1Windows(ds, 2) {
		pr := Prepare(w.ToPolygon())
		for _, gs := range layers {
			var decided []geom.Geometry
			for _, g := range gs {
				if _, ok := pr.rect.intersects(g, true); ok && g.Envelope().Intersects(w) {
					decided = append(decided, g)
				}
			}
			if len(decided) == 0 {
				continue
			}
			allocs := testing.AllocsPerRun(20, func() {
				for _, g := range decided {
					pr.EvalReversed(PredIntersects, g)
				}
			})
			if allocs != 0 {
				t.Fatalf("%v allocations per run over %d decided candidates of window %v, want 0", allocs, len(decided), w)
			}
		}
	}
}

// FuzzRectIntersects holds Prepared Intersects and Disjoint against a
// rectangle, in both operand orders, to the unprepared functions.
func FuzzRectIntersects(f *testing.F) {
	for _, s := range []struct {
		x, y, w, h float64
		wkt        string
	}{
		{0, 0, 10, 10, "POLYGON ((5 5, 15 5, 15 15, 5 15, 5 5))"},
		{0, 0, 10, 10, "LINESTRING (-1 -1, 11 11)"},
		{0, 0, 10, 10, "LINESTRING (10 0, 20 0)"},
		{0, 0, 10, 10, "POINT (10 10)"},
		{0, 0, 10, 10, "POLYGON ((-5 -5, 15 -5, 15 15, -5 15, -5 -5), (-1 -1, -1 11, 11 11, 11 -1, -1 -1))"},
		{0, 0, 10, 10, "MULTIPOLYGON (((11 0, 12 0, 12 1, 11 1, 11 0)), ((-2 -2, -1 -2, -1 -1, -2 -2)))"},
		{1e5, 1e5, 7, 3, "LINESTRING (100007.00000001 99999, 100007.00000001 100004)"},
		{0, 0, 1, 1, "MULTIPOINT ((0.5 0.5), (2 2))"},
	} {
		f.Add(s.x, s.y, s.w, s.h, s.wkt)
	}
	f.Fuzz(func(t *testing.T, x, y, w, h float64, wkt string) {
		if len(wkt) > 2048 {
			t.Skip("oversized input")
		}
		r := geom.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}
		if !(r.MinX < r.MaxX && r.MinY < r.MaxY) || math.IsInf(r.Width()+r.Height(), 0) {
			t.Skip("not a rectangle")
		}
		c := parseUsable(t, wkt)
		pr := Prepare(r.ToPolygon())
		if pr.rect == nil {
			t.Fatalf("%v not recognized as a rectangle", r)
		}
		checkRect(t, pr, c)
	})
}
