package topo

import (
	"testing"

	"jackpine/internal/geom"
)

// FuzzDE9IM is the metamorphic layer over the DE-9IM predicate kernel:
// instead of comparing against an oracle (there is none in-tree), it
// checks the algebra the predicates must satisfy for every valid pair of
// geometries:
//
//	Intersects(a, b) == Intersects(b, a)          symmetry
//	Disjoint(a, b)   == !Intersects(a, b)         complement
//	Equals(a, a)                                  reflexivity
//	Equals(a, b)     == Equals(b, a)              symmetry
//	Touches/Overlaps symmetric                    symmetry
//	Contains(a, b)   == Within(b, a)              duality
//	Covers(a, b)     == CoveredBy(b, a)           duality
//	Relate(a, b)     == Relate(b, a) transposed   matrix symmetry
//
// It also holds every predicate that may stop the relate walk early
// (exitPreds) to its DE-9IM definition on the full Relate matrix, in
// both operand orders: the early exit must never change an answer.
//
// Inputs are WKT pairs (the committed corpus under
// testdata/fuzz/FuzzDE9IM is drawn from the TIGER generator, so seeds
// look like real benchmark geometry). Unparseable, invalid or empty
// inputs are skipped: the parser and validator have their own fuzz
// targets in internal/geom, and the DE-9IM algebra is only specified on
// non-empty valid geometries.
func FuzzDE9IM(f *testing.F) {
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
		// Text length bounds vertex count, so this also bounds the
		// work inside Relate: the O(n log n) STR bulk load of the
		// segment indexes and the index-probed pair enumeration.
		if len(wa) > 2048 || len(wb) > 2048 {
			t.Skip("oversized input")
		}
		a := parseUsable(t, wa)
		b := parseUsable(t, wb)

		inter := Intersects(a, b)
		if Intersects(b, a) != inter {
			t.Errorf("Intersects not symmetric: %s vs %s", geom.WKT(a), geom.WKT(b))
		}
		if Disjoint(a, b) == inter {
			t.Errorf("Disjoint != !Intersects: %s vs %s", geom.WKT(a), geom.WKT(b))
		}
		if !Equals(a, a) {
			t.Errorf("Equals not reflexive: %s", geom.WKT(a))
		}
		if Equals(a, b) != Equals(b, a) {
			t.Errorf("Equals not symmetric: %s vs %s", geom.WKT(a), geom.WKT(b))
		}
		if Touches(a, b) != Touches(b, a) {
			t.Errorf("Touches not symmetric: %s vs %s", geom.WKT(a), geom.WKT(b))
		}
		if Overlaps(a, b) != Overlaps(b, a) {
			t.Errorf("Overlaps not symmetric: %s vs %s", geom.WKT(a), geom.WKT(b))
		}
		if Contains(a, b) != Within(b, a) {
			t.Errorf("Contains/Within duality broken: %s vs %s", geom.WKT(a), geom.WKT(b))
		}
		if Covers(a, b) != CoveredBy(b, a) {
			t.Errorf("Covers/CoveredBy duality broken: %s vs %s", geom.WKT(a), geom.WKT(b))
		}
		mab, mba := Relate(a, b), Relate(b, a)
		if mab != mba.Transpose() {
			t.Errorf("Relate(a,b) != Relate(b,a)^T: %s vs %s for %s / %s",
				mab, mba.Transpose(), geom.WKT(a), geom.WKT(b))
		}
		checkExitUnprepared(t, a, b, mab, mba)
	})
}

// parseUsable parses WKT and skips the test for inputs outside the
// fuzz target's domain (unparseable, invalid, or empty geometry).
func parseUsable(t *testing.T, w string) geom.Geometry {
	t.Helper()
	g, err := geom.ParseWKT(w)
	if err != nil {
		t.Skip("unparseable input")
	}
	if g.IsEmpty() || !geom.IsValid(g) {
		t.Skip("empty or invalid geometry")
	}
	return g
}
