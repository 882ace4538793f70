package topo

import (
	"math"
	"testing"

	"jackpine/internal/geom"
	"jackpine/internal/overlay"
	"jackpine/internal/tiger"
)

// exitPreds are the named predicates that pass an exit set to the
// relate walk, so their answer may come from a partial matrix.
var exitPreds = []Predicate{
	PredEquals, PredDisjoint, PredIntersects, PredTouches,
	PredWithin, PredContains, PredCovers, PredCoveredBy,
}

// matrixDef evaluates pred by its OGC DE-9IM definition on a full
// matrix m of (a, b).
func matrixDef(pred Predicate, m Matrix) bool {
	anyOf := func(patterns ...string) bool {
		for _, p := range patterns {
			if m.Matches(p) {
				return true
			}
		}
		return false
	}
	switch pred {
	case PredEquals:
		return m.Matches("T*F**FFF*")
	case PredDisjoint:
		return m.Matches("FF*FF****")
	case PredIntersects:
		return !m.Matches("FF*FF****")
	case PredTouches:
		return anyOf("FT*******", "F**T*****", "F***T****")
	case PredWithin:
		return m.Matches("T*F**F***")
	case PredContains:
		return m.Matches("T*****FF*")
	case PredCovers:
		return anyOf("T*****FF*", "*T****FF*", "***T**FF*", "****T*FF*")
	case PredCoveredBy:
		return anyOf("T*F**F***", "*TF**F***", "**FT*F***", "**F*TF***")
	}
	panic("no matrix definition for " + pred.String())
}

// checkExitUnprepared asserts that every early-exit predicate, in both
// operand orders, equals its matrix definition on the full matrices
// mab = Relate(a, b) and mba = Relate(b, a).
func checkExitUnprepared(t *testing.T, a, b geom.Geometry, mab, mba Matrix) {
	t.Helper()
	for _, pred := range exitPreds {
		if got, want := pred.Eval(a, b), matrixDef(pred, mab); got != want {
			t.Errorf("%s(a, b) = %v, matrix %s says %v for %s / %s",
				pred, got, mab, want, geom.WKT(a), geom.WKT(b))
		}
		if got, want := pred.Eval(b, a), matrixDef(pred, mba); got != want {
			t.Errorf("%s(b, a) = %v, matrix %s says %v for %s / %s",
				pred, got, mba, want, geom.WKT(a), geom.WKT(b))
		}
	}
}

// checkExitPrepared asserts the same through the prepared kernel, with
// pa = Prepare(a) on either side.
func checkExitPrepared(t *testing.T, pa *Prepared, b geom.Geometry, mab, mba Matrix) {
	t.Helper()
	a := pa.Geometry()
	for _, pred := range exitPreds {
		want, wantRev := matrixDef(pred, mab), matrixDef(pred, mba)
		if got := pa.Eval(pred, b); got != want {
			t.Errorf("Prepared.Eval(%s) = %v, matrix %s says %v for %s / %s",
				pred, got, mab, want, geom.WKT(a), geom.WKT(b))
		}
		if got := pa.EvalReversed(pred, b); got != wantRev {
			t.Errorf("Prepared.EvalReversed(%s) = %v, matrix %s says %v for %s / %s",
				pred, got, mba, wantRev, geom.WKT(a), geom.WKT(b))
		}
	}
}

// checkExit checks one pair through the prepared kernel, and through
// the unprepared one too when unprepared is set. The full matrices come
// from the prepared kernel, which FuzzPrepared holds to Relate.
func checkExit(t *testing.T, pa *Prepared, b geom.Geometry, unprepared bool) {
	t.Helper()
	mab, mba := pa.Relate(b), pa.RelateReversed(b)
	checkExitPrepared(t, pa, b, mab, mba)
	if unprepared {
		checkExitUnprepared(t, pa.Geometry(), b, mab, mba)
	}
}

// TestEarlyExitMatchesRelate is the deterministic oracle for the early
// exit: every predicate that may stop the relate walk early must equal
// its DE-9IM definition on the full matrix, over the candidate pairs of
// the benchmark's own joins and over a near-degenerate lattice.
func TestEarlyExitMatchesRelate(t *testing.T) {
	t.Run("tiger", func(t *testing.T) {
		if testing.Short() {
			t.Skip("medium dataset")
		}
		ds := tiger.Generate(tiger.Medium, 1)
		pairs := 0
		// MS7's arealm ⋈ areawater join candidates.
		for _, w := range ds.AreaWater {
			pw := Prepare(w.Geom)
			for _, lm := range ds.AreaLandmarks {
				if lm.Geom.Envelope().Intersects(w.Geom.Envelope()) {
					checkExit(t, pw, lm.Geom, true)
					pairs++
				}
			}
		}
		// The flood scenario's parcels ⋈ ST_Buffer(water, 40) candidates,
		// prepared only: unprepared, every call would re-index the buffer.
		for _, w := range ds.AreaWater {
			pbuf := Prepare(overlay.Buffer(w.Geom, 40, 0))
			env := pbuf.Geometry().Envelope()
			for _, p := range ds.Parcels {
				if env.Intersects(p.Geom.Envelope()) {
					checkExit(t, pbuf, p.Geom, false)
					pairs++
				}
			}
		}
		if pairs < 100 {
			t.Fatalf("only %d candidate pairs checked", pairs)
		}
	})
	t.Run("lattice", func(t *testing.T) {
		shapes := degenerateLattice()
		for _, a := range shapes {
			pa := Prepare(a)
			for _, b := range shapes {
				checkExit(t, pa, b, true)
			}
		}
	})
}

// degenerateLattice builds shapes on a small integer lattice that meet
// in every degenerate way the relate walk must get right — shared
// edges, collinear overlaps, a vertex on an edge, slivers, holes — plus
// shapes of at least indexMinSegs segments, so both point-location
// paths and both pair enumerations run.
func degenerateLattice() []geom.Geometry {
	box := func(x0, y0, x1, y1 float64) geom.Polygon {
		return geom.Polygon{geom.Ring{{X: x0, Y: y0}, {X: x1, Y: y0}, {X: x1, Y: y1}, {X: x0, Y: y1}, {X: x0, Y: y0}}}
	}
	// dense is box(0, 0, 4, 4) with every side split into n pieces.
	dense := func(n int) geom.Polygon {
		var r geom.Ring
		corners := [...]geom.Coord{{X: 0, Y: 0}, {X: 4, Y: 0}, {X: 4, Y: 4}, {X: 0, Y: 4}, {X: 0, Y: 0}}
		for s := 0; s < 4; s++ {
			a, b := corners[s], corners[s+1]
			for i := 0; i < n; i++ {
				f := float64(i) / float64(n)
				r = append(r, geom.Coord{X: a.X + f*(b.X-a.X), Y: a.Y + f*(b.Y-a.Y)})
			}
		}
		return geom.Polygon{append(r, r[0])}
	}
	// comb has teeth along y = 2 from x = 0 to 4, touching dense's
	// vertices and the lattice boxes' edges.
	comb := func(teeth int) geom.Polygon {
		r := geom.Ring{{X: 0, Y: 4}, {X: 0, Y: 2}}
		w := 4 / float64(teeth)
		for i := 0; i < teeth; i++ {
			x := float64(i) * w
			r = append(r, geom.Coord{X: x + w/2, Y: 1}, geom.Coord{X: x + w, Y: 2})
		}
		return geom.Polygon{append(r, geom.Coord{X: 4, Y: 4}, geom.Coord{X: 0, Y: 4})}
	}
	line := func(cs ...float64) geom.LineString {
		var l geom.LineString
		for i := 0; i+1 < len(cs); i += 2 {
			l = append(l, geom.Coord{X: cs[i], Y: cs[i+1]})
		}
		return l
	}
	withHole := box(0, 0, 4, 4)
	withHole = append(withHole, box(1, 1, 3, 3)[0])
	return []geom.Geometry{
		box(0, 0, 2, 2),
		box(2, 0, 4, 2), // shares an edge with box(0, 0, 2, 2)
		box(1, 0, 3, 2), // overlaps both
		box(2, 1, 4, 3), // shares half an edge
		box(1, 2, 3, 4), // collinear edge overlap on y = 2
		box(0, 0, 4, 4),
		withHole,
		box(1, 1, 3, 3), // fills the hole exactly
		geom.Polygon{geom.Ring{{X: 1, Y: 2}, {X: 2, Y: 3}, {X: 0, Y: 3}, {X: 1, Y: 2}}},                 // vertex on an edge
		geom.Polygon{geom.Ring{{X: 0, Y: 2}, {X: 2, Y: 2}, {X: 1, Y: 2 + 1e-9}, {X: 0, Y: 2}}},          // sliver on an edge
		geom.Polygon{geom.Ring{{X: 0, Y: 2}, {X: 4, Y: 2 + 1e-12}, {X: 0, Y: 2 + 2e-12}, {X: 0, Y: 2}}}, // sliver across edges
		dense(16),                       // 64 segments: indexed
		geom.Polygon{ngon(40, 2, 2, 2)}, // inscribed in box(0, 0, 4, 4)
		comb(20),                        // 42 segments: indexed
		geom.MultiPolygon{box(0, 0, 1, 1), box(3, 3, 4, 4)},
		line(0, 2, 4, 2),                   // along shared edges
		line(1, 0, 3, 0),                   // collinear with a bottom edge
		line(-1, 1, 5, 1),                  // crosses everything at y = 1
		line(2, 2, 2, 5),                   // starts on a corner
		line(0, 0, 1, 1, 2, 0),             // touches at vertices
		line(1, 1, 3, 1, 3, 3, 1, 3, 1, 1), // closed: the hole's ring
		geom.Pt(2, 2),                      // shared corner
		geom.Pt(1, 0),                      // on an edge
		geom.Pt(1, 1),                      // hole corner
		geom.Pt(2, 2+1e-12),                // a hair off the shared corner
		geom.MultiPoint{geom.Pt(0, 0), geom.Pt(5, 5)},
	}
}

// nearSegmentDistanceOnly is nearSegment without the envelope reject:
// the distance test alone.
func nearSegmentDistanceOnly(p, a, b geom.Coord) bool {
	scale := math.Max(math.Max(math.Abs(a.X), math.Abs(a.Y)),
		math.Max(math.Max(math.Abs(b.X), math.Abs(b.Y)),
			math.Max(math.Max(math.Abs(p.X), math.Abs(p.Y)), 1)))
	return geom.DistPointSegment(p, a, b) <= relateEps*scale
}

// TestNearSegmentEnvelopeReject checks that the envelope reject never
// changes nearSegment's answer. Points sit at tol·(1 ± 1e-3) from
// segments of several scales and slopes — off the interior, beyond the
// endpoints and around the envelope corners — and at 2·tol·(1 ± 1e-3),
// where the reject starts to fire.
func TestNearSegmentEnvelopeReject(t *testing.T) {
	checked, near := 0, 0
	for _, scale := range []float64{1, 1e3, 7e5, 1e8} {
		for _, seg := range [][2]geom.Coord{
			{{X: 0, Y: 0}, {X: 1, Y: 0}},         // horizontal
			{{X: 0, Y: 0}, {X: 0, Y: 1}},         // vertical
			{{X: 0, Y: 0}, {X: 1, Y: 1}},         // diagonal
			{{X: 0.2, Y: 0.9}, {X: 0.7, Y: 0.1}}, // steep
			{{X: 0, Y: 0}, {X: 1, Y: 1e-9}},      // nearly horizontal
			{{X: 0.5, Y: 0.5}, {X: 0.5, Y: 0.5}}, // degenerate
		} {
			a := geom.Coord{X: seg[0].X * scale, Y: seg[0].Y * scale}
			b := geom.Coord{X: seg[1].X * scale, Y: seg[1].Y * scale}
			tol := relateEps * math.Max(math.Max(math.Abs(a.X), math.Abs(a.Y)),
				math.Max(math.Max(math.Abs(b.X), math.Abs(b.Y)), 1))
			for _, k := range []float64{1 - 1e-3, 1 + 1e-3, 2 * (1 - 1e-3), 2 * (1 + 1e-3)} {
				for _, base := range []geom.Coord{a, b, {X: (a.X + b.X) / 2, Y: (a.Y + b.Y) / 2}} {
					for i := 0; i < 16; i++ {
						th := 2 * math.Pi * float64(i) / 16
						p := geom.Coord{X: base.X + k*tol*math.Cos(th), Y: base.Y + k*tol*math.Sin(th)}
						got, want := nearSegment(p, a, b, 2*tol), nearSegmentDistanceOnly(p, a, b)
						if got != want {
							t.Errorf("nearSegment(%v, %v, %v) = %v, distance test says %v", p, a, b, got, want)
						}
						checked++
						if want {
							near++
						}
					}
				}
			}
		}
	}
	if near == 0 || near == checked {
		t.Fatalf("%d of %d probes near: the probes do not straddle the tolerance", near, checked)
	}
}

// TestEvalPreparedMatchesEval checks that EvalPrepared, with both
// operands prepared, returns exactly what Prepared.Eval and
// Prepared.EvalReversed return for all ten named predicates, in both
// operand orders, over the MS7 arealm ⋈ areawater candidate pairs and
// the near-degenerate lattice.
func TestEvalPreparedMatchesEval(t *testing.T) {
	check := func(pa, pb *Prepared) {
		t.Helper()
		a, b := pa.Geometry(), pb.Geometry()
		for pred := PredEquals; pred <= PredCoveredBy; pred++ {
			if got, want := EvalPrepared(pred, pa, pb), pa.Eval(pred, b); got != want {
				t.Errorf("EvalPrepared(%s, a, b) = %v, Prepared.Eval says %v for %s / %s",
					pred, got, want, geom.WKT(a), geom.WKT(b))
			}
			if got, want := EvalPrepared(pred, pb, pa), pa.EvalReversed(pred, b); got != want {
				t.Errorf("EvalPrepared(%s, b, a) = %v, Prepared.EvalReversed says %v for %s / %s",
					pred, got, want, geom.WKT(a), geom.WKT(b))
			}
		}
	}
	t.Run("tiger", func(t *testing.T) {
		if testing.Short() {
			t.Skip("medium dataset")
		}
		ds := tiger.Generate(tiger.Medium, 1)
		pairs := 0
		for _, w := range ds.AreaWater {
			pw := Prepare(w.Geom)
			for _, lm := range ds.AreaLandmarks {
				if lm.Geom.Envelope().Intersects(w.Geom.Envelope()) {
					check(Prepare(lm.Geom), pw)
					pairs++
				}
			}
		}
		if pairs < 100 {
			t.Fatalf("only %d candidate pairs checked", pairs)
		}
	})
	t.Run("lattice", func(t *testing.T) {
		shapes := degenerateLattice()
		for _, a := range shapes {
			pa := Prepare(a)
			for _, b := range shapes {
				check(pa, Prepare(b))
			}
		}
	})
}
