package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDistancePointPoint(t *testing.T) {
	if d := Distance(Pt(0, 0), Pt(3, 4)); d != 5 {
		t.Errorf("Distance = %v, want 5", d)
	}
}

func TestDistancePointLine(t *testing.T) {
	l := LineString{{0, 0}, {10, 0}}
	if d := Distance(Pt(5, 3), l); d != 3 {
		t.Errorf("Distance = %v, want 3", d)
	}
	if d := Distance(l, Pt(5, 3)); d != 3 {
		t.Errorf("reversed Distance = %v, want 3", d)
	}
	if d := Distance(Pt(5, 0), l); d != 0 {
		t.Errorf("on-line Distance = %v, want 0", d)
	}
}

func TestDistancePointPolygon(t *testing.T) {
	sq := squareAt(0, 0, 4)
	if d := Distance(Pt(2, 2), sq); d != 0 {
		t.Errorf("inside point: Distance = %v, want 0", d)
	}
	if d := Distance(Pt(4, 2), sq); d != 0 {
		t.Errorf("boundary point: Distance = %v, want 0", d)
	}
	if d := Distance(Pt(7, 2), sq); d != 3 {
		t.Errorf("outside point: Distance = %v, want 3", d)
	}
	// Point inside the hole of a donut: distance to the hole ring.
	if d := Distance(Pt(5, 5), donut()); d != 1 {
		t.Errorf("hole point: Distance = %v, want 1", d)
	}
}

func TestDistanceLineLine(t *testing.T) {
	a := LineString{{0, 0}, {10, 0}}
	b := LineString{{0, 4}, {10, 4}}
	if d := Distance(a, b); d != 4 {
		t.Errorf("parallel lines: %v, want 4", d)
	}
	c := LineString{{5, -1}, {5, 1}}
	if d := Distance(a, c); d != 0 {
		t.Errorf("crossing lines: %v, want 0", d)
	}
}

func TestDistancePolygonPolygon(t *testing.T) {
	a := squareAt(0, 0, 2)
	b := squareAt(5, 0, 2)
	if d := Distance(a, b); d != 3 {
		t.Errorf("side gap: %v, want 3", d)
	}
	inner := squareAt(0.5, 0.5, 0.5)
	if d := Distance(a, inner); d != 0 {
		t.Errorf("contained polygon: %v, want 0", d)
	}
	if d := Distance(inner, a); d != 0 {
		t.Errorf("containing polygon reversed: %v, want 0", d)
	}
}

func TestDistanceLinePolygon(t *testing.T) {
	sq := squareAt(0, 0, 4)
	through := LineString{{-2, 2}, {6, 2}}
	if d := Distance(through, sq); d != 0 {
		t.Errorf("crossing line: %v, want 0", d)
	}
	inside := LineString{{1, 1}, {3, 3}}
	if d := Distance(inside, sq); d != 0 {
		t.Errorf("contained line: %v, want 0", d)
	}
	away := LineString{{0, 10}, {4, 10}}
	if d := Distance(away, sq); d != 6 {
		t.Errorf("distant line: %v, want 6", d)
	}
}

func TestDistanceMultiAndCollection(t *testing.T) {
	mp := MultiPoint{Pt(100, 100), Pt(3, 4)}
	if d := Distance(Pt(0, 0), mp); d != 5 {
		t.Errorf("multipoint min distance: %v, want 5", d)
	}
	col := Collection{LineString{{50, 50}, {60, 60}}, squareAt(0, 0, 1)}
	if d := Distance(Pt(2, 0.5), col); d != 1 {
		t.Errorf("collection distance: %v, want 1", d)
	}
}

func TestDistanceEmpty(t *testing.T) {
	if d := Distance(Pt(0, 0), Polygon{}); !math.IsInf(d, 1) {
		t.Errorf("distance to empty should be +Inf, got %v", d)
	}
	if d := Distance(nil, Pt(0, 0)); !math.IsInf(d, 1) {
		t.Errorf("distance to nil should be +Inf, got %v", d)
	}
}

func TestDWithin(t *testing.T) {
	a := Pt(0, 0)
	b := Pt(3, 4)
	if !DWithin(a, b, 5) {
		t.Error("DWithin at exact distance should hold")
	}
	if DWithin(a, b, 4.999) {
		t.Error("DWithin below distance should fail")
	}
	if DWithin(a, Polygon{}, 1e18) {
		t.Error("DWithin with empty geometry should fail")
	}
}

func TestDistancePropertySymmetric(t *testing.T) {
	geoms := []Geometry{
		Pt(0, 0), Pt(7, -2),
		LineString{{0, 0}, {5, 5}},
		LineString{{10, 0}, {10, 10}},
		squareAt(2, 2, 3),
		donut(),
		MultiPoint{Pt(1, 9), Pt(-4, 2)},
	}
	for i, a := range geoms {
		for j, b := range geoms {
			d1, d2 := Distance(a, b), Distance(b, a)
			if math.Abs(d1-d2) > 1e-9 {
				t.Errorf("asymmetric distance between %d and %d: %v vs %v", i, j, d1, d2)
			}
			if i == j && d1 != 0 {
				t.Errorf("self-distance of %d = %v", i, d1)
			}
		}
	}
}

func TestDistancePropertyTriangleish(t *testing.T) {
	// For points, distance obeys the triangle inequality.
	norm := func(v float64) float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0
		}
		return math.Mod(v, 1000)
	}
	prop := func(ax, ay, bx, by, cx, cy float64) bool {
		a := Pt(norm(ax), norm(ay))
		b := Pt(norm(bx), norm(by))
		c := Pt(norm(cx), norm(cy))
		return Distance(a, c) <= Distance(a, b)+Distance(b, c)+1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestDWithinPropertyAgreesWithDistance(t *testing.T) {
	norm := func(v float64) float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0
		}
		return math.Mod(v, 100)
	}
	sq := squareAt(10, 10, 20)
	prop := func(x, y, dRaw float64) bool {
		p := Pt(norm(x), norm(y))
		d := math.Abs(norm(dRaw))
		return DWithin(p, sq, d) == (Distance(p, sq) <= d)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// fuzzShape decodes a geometry for FuzzDWithin. The first byte picks the
// kind (its top bit leaves rings open); the rest are int8 coordinate
// pairs placed at shift + v·scale. Small integers make shared edges,
// repeated vertices (zero-length segments) and collinear runs common; a
// large shift over a small scale puts them where rounding is relative
// to the coordinates, and scales near 1e±200 overflow or underflow
// squared lengths and orientation products.
func fuzzShape(data []byte, scale, shift float64) Geometry {
	kind := byte(0)
	if len(data) > 0 {
		kind, data = data[0], data[1:]
	}
	var cs []Coord
	for i := 0; i+1 < len(data); i += 2 {
		cs = append(cs, Coord{shift + float64(int8(data[i]))*scale, shift + float64(int8(data[i+1]))*scale})
	}
	if len(cs) == 0 {
		cs = []Coord{{shift, shift}}
	}
	ring := func(cs []Coord) Ring {
		r := append(Ring(nil), cs...)
		if kind&0x80 == 0 && !r[0].Equal(r[len(r)-1]) {
			r = append(r, r[0])
		}
		return r
	}
	half := (len(cs) + 1) / 2
	switch (kind & 0x7f) % 8 {
	case 0:
		return Point{Coord: cs[0]}
	case 1:
		return LineString(cs)
	case 2:
		return Polygon{ring(cs)}
	case 3: // a hole, wherever its coordinates put it
		if half == len(cs) {
			return Polygon{ring(cs)}
		}
		return Polygon{ring(cs[:half]), ring(cs[half:])}
	case 4:
		mp := make(MultiPoint, len(cs))
		for i, c := range cs {
			mp[i] = Point{Coord: c}
		}
		return mp
	case 5:
		var ml MultiLineString
		for i := 0; i < len(cs); i += 3 {
			ml = append(ml, LineString(cs[i:min(i+3, len(cs))]))
		}
		return ml
	case 6:
		if half == len(cs) {
			return MultiPolygon{{ring(cs)}}
		}
		return MultiPolygon{{ring(cs[:half])}, {ring(cs[half:])}}
	default:
		return Collection{Point{Coord: cs[len(cs)-1]}, LineString(cs[:half]), Polygon{ring(cs)}}
	}
}

// FuzzDWithin holds DWithin to its definition, Distance(a, b) <= d, on
// points, lines, polygons with holes and multi-part shapes, with d at
// the distance itself, its float neighbours, zero, negative zero, a
// negative value, NaN, +Inf or the raw input.
func FuzzDWithin(f *testing.F) {
	pt := func(x, y int8) []byte { return []byte{0, byte(x), byte(y)} }
	square := []byte{2, 0, 0, 10, 0, 10, 10, 0, 10}
	withHole := []byte{3, 0, 0, 10, 0, 10, 10, 0, 10, 0, 0, 3, 3, 6, 3, 6, 6, 3, 6}
	// Point pairs whose squared distance overflows, underflows, or
	// underflows in part; each held true at a threshold below the distance.
	f.Add(pt(0, 0), pt(1, 0), 1e200, 0.0, uint8(8), 1e199)
	f.Add(pt(0, 0), pt(1, 0), 1e-200, 0.0, uint8(8), 1e-201)
	f.Add(pt(0, 0), pt(3, 4), 1e-170, 0.0, uint8(8), 4.9e-170)
	f.Add(pt(3, 4), pt(0, 0), 1.0, 0.0, uint8(0), 0.0)
	f.Add(pt(5, 5), withHole, 1.0, 0.0, uint8(0), 0.0)
	f.Add(pt(4, 4), withHole, 1e-3, 1e6, uint8(2), 0.0)
	f.Add(pt(-7, 3), square, 1e-3, 1e6, uint8(0), 0.0)
	f.Add(pt(-7, 3), square, 1e200, 0.0, uint8(1), 0.0)
	f.Add([]byte{1, 0, 20, 5, 5, 5, 5, 20, 5}, square, 1.0, 0.0, uint8(0), 0.0)
	f.Add([]byte{1, 0, 1, 0, 2}, []byte{1, 0, 0, 10, 0}, 1e-200, 0.0, uint8(0), 0.0)
	f.Add([]byte{2, 10, 0, 20, 0, 20, 10, 10, 10}, square, 1.0, 0.0, uint8(3), 0.0)
	f.Add([]byte{6, 0, 0, 1, 1, 2, 2, 30, 30, 31, 30, 31, 31}, withHole, 0.5, -3.0, uint8(0), 0.0)
	f.Add([]byte{7, 1, 2, 3, 4, 50, 50, 60, 50}, []byte{5, 0, 0, 1, 1, 2, 2, 3, 3}, 1.0, 0.0, uint8(1), 0.0)
	f.Add([]byte{0x82, 0, 0, 10, 0, 10, 10}, pt(-3, 5), 1.0, 0.0, uint8(0), 0.0)
	f.Fuzz(func(t *testing.T, da, db []byte, scale, shift float64, mode uint8, raw float64) {
		if math.IsNaN(scale) || math.IsInf(scale, 0) || math.IsNaN(shift) || math.IsInf(shift, 0) {
			return
		}
		a, b := fuzzShape(da, scale, shift), fuzzShape(db, scale, shift)
		for _, pair := range [][2]Geometry{{a, b}, {b, a}} {
			g, h := pair[0], pair[1]
			dist := Distance(g, h)
			d := raw
			switch mode % 9 {
			case 0:
				d = dist
			case 1:
				d = math.Nextafter(dist, math.Inf(1))
			case 2:
				d = math.Nextafter(dist, math.Inf(-1))
			case 3:
				d = 0
			case 4:
				d = math.Copysign(0, -1)
			case 5:
				d = -1 - math.Abs(raw)
			case 6:
				d = math.NaN()
			case 7:
				d = math.Inf(1)
			}
			if got, want := DWithin(g, h, d), dist <= d; got != want {
				t.Fatalf("DWithin(%s, %s, %v) = %v, but Distance is %v", WKT(g), WKT(h), d, got, dist)
			}
		}
	})
}
