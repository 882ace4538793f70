package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEmptyRect(t *testing.T) {
	e := EmptyRect()
	if !e.IsEmpty() {
		t.Fatal("EmptyRect not empty")
	}
	if e.Area() != 0 || e.Width() != 0 || e.Height() != 0 || e.Perimeter() != 0 {
		t.Error("empty rect should have zero measures")
	}
	if e.Intersects(Rect{0, 0, 1, 1}) {
		t.Error("empty rect must not intersect anything")
	}
	if e.ContainsRect(Rect{0, 0, 1, 1}) {
		t.Error("empty rect must not contain anything")
	}
	if !(Rect{0, 0, 1, 1}).ContainsRect(e) {
		t.Error("non-empty rect contains the empty rect")
	}
}

func TestRectUnionIntersect(t *testing.T) {
	a := Rect{0, 0, 2, 2}
	b := Rect{1, 1, 3, 3}
	if got := a.Union(b); got != (Rect{0, 0, 3, 3}) {
		t.Errorf("Union = %+v", got)
	}
	if got := a.Intersect(b); got != (Rect{1, 1, 2, 2}) {
		t.Errorf("Intersect = %+v", got)
	}
	c := Rect{5, 5, 6, 6}
	if !a.Intersect(c).IsEmpty() {
		t.Error("disjoint rects should intersect to empty")
	}
	if a.Union(EmptyRect()) != a {
		t.Error("union with empty should be identity")
	}
	if EmptyRect().Union(a) != a {
		t.Error("union with empty should be identity (reversed)")
	}
}

func TestRectIntersectsEdgeTouch(t *testing.T) {
	a := Rect{0, 0, 1, 1}
	b := Rect{1, 0, 2, 1} // shares the x=1 edge
	if !a.Intersects(b) {
		t.Error("edge-touching rects must intersect")
	}
	c := Rect{1, 1, 2, 2} // shares only corner (1,1)
	if !a.Intersects(c) {
		t.Error("corner-touching rects must intersect")
	}
	d := Rect{1.0001, 0, 2, 1}
	if a.Intersects(d) {
		t.Error("separated rects must not intersect")
	}
}

func TestRectContains(t *testing.T) {
	r := Rect{0, 0, 10, 10}
	if !r.ContainsCoord(Coord{0, 0}) || !r.ContainsCoord(Coord{10, 10}) {
		t.Error("boundary coords should be contained")
	}
	if r.ContainsCoordStrict(Coord{0, 5}) {
		t.Error("strict containment must exclude boundary")
	}
	if !r.ContainsCoordStrict(Coord{5, 5}) {
		t.Error("interior coord should be strictly contained")
	}
	if !r.ContainsRect(Rect{2, 2, 8, 8}) {
		t.Error("inner rect should be contained")
	}
	if r.ContainsRect(Rect{2, 2, 11, 8}) {
		t.Error("overflowing rect must not be contained")
	}
}

func TestRectExpand(t *testing.T) {
	r := Rect{0, 0, 2, 2}
	if got := r.Expand(1); got != (Rect{-1, -1, 3, 3}) {
		t.Errorf("Expand(1) = %+v", got)
	}
	if got := r.Expand(-2); !got.IsEmpty() {
		t.Errorf("over-shrunk rect should be empty, got %+v", got)
	}
	if !EmptyRect().Expand(5).IsEmpty() {
		t.Error("expanding the empty rect should stay empty")
	}
	if got := r.ExpandCoord(Coord{5, -1}); got != (Rect{0, -1, 5, 2}) {
		t.Errorf("ExpandCoord = %+v", got)
	}
}

func TestRectDistance(t *testing.T) {
	a := Rect{0, 0, 1, 1}
	cases := []struct {
		b    Rect
		want float64
	}{
		{Rect{2, 0, 3, 1}, 1},                    // right gap 1
		{Rect{0, 2, 1, 3}, 1},                    // above gap 1
		{Rect{2, 2, 3, 3}, math.Sqrt2},           // diagonal gap
		{Rect{0.5, 0.5, 0.6, 0.6}, 0},            // inside
		{Rect{1, 1, 2, 2}, 0},                    // corner touch
		{Rect{-4, -5, -3, -4}, math.Hypot(3, 4)}, // diagonal far corner
		{Rect{4, 5, 4, 5}, 5},                    // point outside
		{Rect{0.5, 0.5, 0.5, 0.5}, 0},            // point inside
	}
	for i, tc := range cases {
		if got := a.Distance(tc.b); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("case %d: Distance = %v, want %v", i, got, tc.want)
		}
	}
}

func TestRectToPolygon(t *testing.T) {
	p := (Rect{0, 0, 2, 3}).ToPolygon()
	if len(p) != 1 || len(p[0]) != 5 {
		t.Fatalf("unexpected polygon shape: %v", p)
	}
	if !RingIsCCW(p[0]) {
		t.Error("rect polygon should be counter-clockwise")
	}
	if got := Area(p); got != 6 {
		t.Errorf("area = %v, want 6", got)
	}
	if len(EmptyRect().ToPolygon()) != 0 {
		t.Error("empty rect should convert to empty polygon")
	}
}

// normRect converts four arbitrary floats into a valid small rectangle.
func normRect(a, b, c, d float64) Rect {
	f := func(v float64) float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0
		}
		return math.Mod(v, 1000)
	}
	x1, x2 := f(a), f(b)
	y1, y2 := f(c), f(d)
	return Rect{math.Min(x1, x2), math.Min(y1, y2), math.Max(x1, x2), math.Max(y1, y2)}
}

func TestRectPropertyUnionContains(t *testing.T) {
	prop := func(a, b, c, d, e, f, g, h float64) bool {
		r1 := normRect(a, b, c, d)
		r2 := normRect(e, f, g, h)
		u := r1.Union(r2)
		return u.ContainsRect(r1) && u.ContainsRect(r2)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestRectPropertyIntersectSymmetry(t *testing.T) {
	prop := func(a, b, c, d, e, f, g, h float64) bool {
		r1 := normRect(a, b, c, d)
		r2 := normRect(e, f, g, h)
		if r1.Intersects(r2) != r2.Intersects(r1) {
			return false
		}
		i := r1.Intersect(r2)
		// The intersection must be within both.
		if !i.IsEmpty() && (!r1.ContainsRect(i) || !r2.ContainsRect(i)) {
			return false
		}
		// Intersects agrees with non-empty intersection.
		return r1.Intersects(r2) == !i.IsEmpty()
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestRectPropertyDistanceZeroIffIntersect(t *testing.T) {
	prop := func(a, b, c, d, e, f, g, h float64) bool {
		r1 := normRect(a, b, c, d)
		r2 := normRect(e, f, g, h)
		if r1.IsEmpty() || r2.IsEmpty() {
			return true
		}
		return (r1.Distance(r2) == 0) == r1.Intersects(r2)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
