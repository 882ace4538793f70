package geom

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

// TestEnvelopeWKBMatchesDecoded asserts the WKB envelope fast path is
// bit-identical to decoding and calling Envelope(), across every
// geometry kind including the tricky cases: empty points (NaN
// ordinates), polygons with holes (every ring counts), and nested
// collections.
func TestEnvelopeWKBMatchesDecoded(t *testing.T) {
	cases := []Geometry{
		Point{Coord: Coord{3, -7}},
		Point{Empty: true},
		LineString{{0, 0}, {10, 5}, {-2, 8}},
		LineString{},
		Polygon{
			Ring{{0, 0}, {10, 0}, {10, 10}, {0, 10}, {0, 0}},
			// Hole ring deliberately outside the outer envelope's span:
			// both forms must count it.
			Ring{{2, 2}, {30, 2}, {30, 3}, {2, 3}, {2, 2}},
		},
		Polygon{},
		MultiPoint{{Coord: Coord{1, 1}}, {Coord: Coord{-5, 9}}, {Empty: true}},
		MultiPoint{},
		MultiLineString{{{0, 0}, {1, 1}}, {{5, -5}, {6, 6}}},
		MultiPolygon{
			{Ring{{0, 0}, {4, 0}, {4, 4}, {0, 4}, {0, 0}}},
			{Ring{{10, 10}, {12, 10}, {12, 12}, {10, 12}, {10, 10}}},
		},
		Collection{
			Point{Coord: Coord{100, 100}},
			LineString{{-50, 0}, {0, -50}},
			Collection{Point{Empty: true}},
		},
		Collection{},
	}
	for _, g := range cases {
		wkb := MarshalWKB(g)
		got, err := EnvelopeWKB(wkb)
		if err != nil {
			t.Errorf("%s: EnvelopeWKB error: %v", WKT(g), err)
			continue
		}
		want := g.Envelope()
		if !rectIdentical(got, want) {
			t.Errorf("%s: EnvelopeWKB = %+v, Envelope() = %+v", WKT(g), got, want)
		}
	}
}

// rectIdentical compares rects bit-for-bit (so ±Inf empty bounds and
// NaN propagation are distinguished, unlike ==).
func rectIdentical(a, b Rect) bool {
	same := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	}
	return same(a.MinX, b.MinX) && same(a.MinY, b.MinY) &&
		same(a.MaxX, b.MaxX) && same(a.MaxY, b.MaxY)
}

// TestPolygonEnvelopeCoversEveryRing: a polygon's envelope is the union
// of its rings' envelopes wherever the holes lie — inside the shell,
// beyond each of its four sides, straddling it, or several at once —
// and EnvelopeWKB agrees with the decoded Envelope() bit for bit, in a
// multipolygon too. An empty shell empties the polygon, holes or not.
func TestPolygonEnvelopeCoversEveryRing(t *testing.T) {
	shell := Ring{{0, 0}, {10, 0}, {10, 10}, {0, 10}, {0, 0}}
	square := func(x, y, s float64) Ring {
		return Ring{{x, y}, {x + s, y}, {x + s, y + s}, {x, y + s}, {x, y}}
	}
	holes := []Ring{
		square(2, 2, 3),      // inside
		square(100, 100, 10), // beyond the top-right corner
		square(-30, 4, 2),    // left
		square(4, -30, 2),    // below
		square(4, 25, 2),     // above
		square(8, 8, 5),      // straddling the shell
	}
	var cases []Polygon
	for i, h := range holes {
		cases = append(cases, Polygon{shell, h})
		if i > 0 {
			cases = append(cases, Polygon{shell, holes[i-1], h})
		}
	}
	for _, p := range cases {
		want := p[0].Envelope()
		for _, h := range p[1:] {
			want = want.Union(h.Envelope())
		}
		got := p.Envelope()
		if !rectIdentical(got, want) {
			t.Errorf("%s: Envelope() = %+v, want the union of its rings %+v", WKT(p), got, want)
		}
		for _, g := range []Geometry{p, MultiPolygon{p, {square(50, 50, 1)}}} {
			wkb, err := EnvelopeWKB(MarshalWKB(g))
			if err != nil {
				t.Fatalf("%s: %v", WKT(g), err)
			}
			if !rectIdentical(wkb, g.Envelope()) {
				t.Errorf("%s: EnvelopeWKB = %+v, Envelope() = %+v", WKT(g), wkb, g.Envelope())
			}
		}
	}
	empty := Polygon{Ring{}, square(1, 1, 1)}
	wkb, err := EnvelopeWKB(MarshalWKB(empty))
	if err != nil {
		t.Fatal(err)
	}
	if !empty.Envelope().IsEmpty() || !rectIdentical(wkb, empty.Envelope()) {
		t.Errorf("empty shell with a hole: Envelope() = %+v, EnvelopeWKB = %+v, want both empty",
			empty.Envelope(), wkb)
	}
}

func TestEnvelopeWKBRejectsCorruptInput(t *testing.T) {
	valid := MarshalWKB(LineString{{0, 0}, {1, 1}})
	bad := [][]byte{
		nil,
		{},
		valid[:len(valid)-3],          // truncated coordinates
		append(valid[:0:0], valid...), // mutated below
	}
	bad[3] = append([]byte{}, valid...)
	bad[3][0] = 7 // bogus byte-order marker
	for i, data := range bad {
		if _, err := EnvelopeWKB(data); err == nil {
			t.Errorf("case %d: corrupt WKB accepted", i)
		}
	}
	if _, err := EnvelopeWKB(append(valid, 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

// TestEnvelopeWKBMalformedInputs pins the hostile-input contract: every
// malformed encoding yields an error wrapping ErrCorruptWKB — never a
// panic, never a silent garbage envelope. These byte strings are built
// by hand so each one isolates a single corruption.
func TestEnvelopeWKBMalformedInputs(t *testing.T) {
	// le assembles a little-endian WKB body from the marker, a type
	// code, and raw words.
	le := func(typ uint32, words ...uint32) []byte {
		out := []byte{1}
		out = binary.LittleEndian.AppendUint32(out, typ)
		for _, w := range words {
			out = binary.LittleEndian.AppendUint32(out, w)
		}
		return out
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty input", []byte{}},
		{"byte-order marker only", []byte{1}},
		{"bad byte-order marker", []byte{2, 1, 0, 0, 0}},
		{"truncated type code", []byte{1, 3, 0}},
		{"unknown type code", le(99)},
		{"point with no coordinates", le(uint32(TypePoint))},
		{"point with half a coordinate", append(le(uint32(TypePoint)), 0, 0, 0, 0)},
		{"linestring count overflow", le(uint32(TypeLineString), 0xFFFFFFFF)},
		{"polygon ring-count overflow", le(uint32(TypePolygon), 0xFFFFFFFF)},
		{"collection element-count overflow", le(uint32(TypeGeometryCollection), 0xFFFFFFFF)},
		{"polygon ring truncated after count", le(uint32(TypePolygon), 1)},
		{"multipoint with truncated element", le(uint32(TypeMultiPoint), 1)},
	}
	// Deep nesting: collections-of-collections past the recursion bound.
	deep := []byte(nil)
	for i := 0; i < 64; i++ {
		deep = append(deep, le(uint32(TypeGeometryCollection), 1)...)
	}
	cases = append(cases, struct {
		name string
		data []byte
	}{"nesting past the recursion bound", deep})

	for _, tc := range cases {
		if _, err := EnvelopeWKB(tc.data); !errors.Is(err, ErrCorruptWKB) {
			t.Errorf("%s: error = %v, want ErrCorruptWKB", tc.name, err)
		}
	}

	// A sweep over every proper prefix of a nested valid geometry:
	// truncating anywhere — inside headers, counts, or coordinates —
	// must produce a clean error.
	valid := MarshalWKB(Collection{
		Point{Coord: Coord{1, 2}},
		Polygon{Ring{{0, 0}, {4, 0}, {4, 4}, {0, 0}}},
	})
	for n := 0; n < len(valid); n++ {
		if _, err := EnvelopeWKB(valid[:n]); err == nil {
			t.Errorf("prefix of %d/%d bytes accepted", n, len(valid))
		}
	}

	// A zero-point ring is degenerate but decodable: the fast path must
	// agree with the decoded form rather than erroring or panicking.
	zeroRing := le(uint32(TypePolygon), 1, 0)
	r, err := EnvelopeWKB(zeroRing)
	if err != nil {
		t.Fatalf("zero-point ring: %v", err)
	}
	if !rectIdentical(r, EmptyRect()) {
		t.Errorf("zero-point ring envelope = %+v, want empty", r)
	}
}
