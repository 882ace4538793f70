package topo

import (
	"testing"

	"jackpine/internal/geom"
)

// FuzzPrepared is the metamorphic layer over the prepared-geometry
// kernel: for every valid pair it checks that evaluation routed through
// topo.Prepare — with the prepared geometry on either side — agrees
// bit-for-bit with the unprepared package-level functions, and that the
// FuzzDE9IM algebra still holds when one operand is prepared. Indexing
// is forced (Prepare + sub-threshold forcing in the kernel tests covers
// the rest), so divergence between the index-probed and brute-force
// paths surfaces here as a prepared-vs-naive mismatch. Every predicate
// that may stop the relate walk early is also held to its DE-9IM
// definition on the full Relate matrix, through Eval and EvalReversed.
func FuzzPrepared(f *testing.F) {
	pairs := [][2]string{
		{"POINT (1 1)", "POINT (1 1)"},
		{"POINT (1 1)", "LINESTRING (0 0, 2 2)"},
		{"LINESTRING (0 0, 2 2)", "LINESTRING (0 2, 2 0)"},
		{"LINESTRING (0 0, 1 0)", "LINESTRING (1 0, 2 0)"},
		{"POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))", "POLYGON ((1 1, 2 1, 2 2, 1 2, 1 1))"},
		{"POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))", "POLYGON ((2 0, 4 0, 4 2, 2 2, 2 0))"},
		{"POLYGON ((0 0, 3 0, 3 3, 0 3, 0 0))", "LINESTRING (-1 1, 4 1)"},
		{"MULTIPOINT (0 0, 2 2)", "POLYGON ((1 1, 3 1, 3 3, 1 3, 1 1))"},
		{"POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0), (1 1, 3 1, 3 3, 1 3, 1 1))", "POINT (2 2)"},
		{"GEOMETRYCOLLECTION (POINT (0 0), LINESTRING (1 1, 2 2))", "POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))"},
	}
	for _, p := range pairs {
		f.Add(p[0], p[1])
	}
	f.Fuzz(func(t *testing.T, wa, wb string) {
		if len(wa) > 2048 || len(wb) > 2048 {
			t.Skip("oversized input")
		}
		a := parseUsable(t, wa)
		b := parseUsable(t, wb)

		pa := Prepare(a)
		want := Relate(a, b)
		if got := pa.Relate(b); got != want {
			t.Errorf("Prepared.Relate = %s, want %s for %s / %s",
				got, want, geom.WKT(a), geom.WKT(b))
		}
		wantRev := Relate(b, a)
		if got := pa.RelateReversed(b); got != wantRev {
			t.Errorf("Prepared.RelateReversed = %s, want %s for %s / %s",
				got, wantRev, geom.WKT(a), geom.WKT(b))
		}
		checkExitPrepared(t, pa, b, want, wantRev)
		if got := pa.Relate(b).Transpose(); got != pa.RelateReversed(b) {
			t.Errorf("prepared transpose symmetry broken for %s / %s",
				geom.WKT(a), geom.WKT(b))
		}
		for pred := PredEquals; pred <= PredCoveredBy; pred++ {
			if got, want := pa.Eval(pred, b), pred.Eval(a, b); got != want {
				t.Errorf("Prepared.Eval(%s) = %v, want %v for %s / %s",
					pred, got, want, geom.WKT(a), geom.WKT(b))
			}
			if got, want := pa.EvalReversed(pred, b), pred.Eval(b, a); got != want {
				t.Errorf("Prepared.EvalReversed(%s) = %v, want %v for %s / %s",
					pred, got, want, geom.WKT(a), geom.WKT(b))
			}
		}
		// The FuzzDE9IM algebra, with one side prepared.
		if pa.Eval(PredDisjoint, b) == pa.Eval(PredIntersects, b) {
			t.Errorf("prepared Disjoint != !Intersects for %s / %s", geom.WKT(a), geom.WKT(b))
		}
		if !pa.Eval(PredEquals, a) {
			t.Errorf("prepared Equals not reflexive for %s", geom.WKT(a))
		}
		if pa.Eval(PredContains, b) != Within(b, a) {
			t.Errorf("prepared Contains/Within duality broken for %s / %s",
				geom.WKT(a), geom.WKT(b))
		}
		if pa.Eval(PredCovers, b) != CoveredBy(b, a) {
			t.Errorf("prepared Covers/CoveredBy duality broken for %s / %s",
				geom.WKT(a), geom.WKT(b))
		}
	})
}
