package topo

import (
	"math"
	"testing"

	"jackpine/internal/geom"
)

func benchPolygon(cx, cy float64, n int) geom.Polygon {
	ring := make(geom.Ring, 0, n+1)
	for i := 0; i < n; i++ {
		a := 2 * math.Pi * float64(i) / float64(n)
		r := 10 + 3*math.Sin(5*a)
		ring = append(ring, geom.Coord{X: cx + r*math.Cos(a), Y: cy + r*math.Sin(a)})
	}
	ring = append(ring, ring[0])
	return geom.Polygon{ring}
}

func BenchmarkRelatePolygonPolygonOverlap(b *testing.B) {
	p1 := benchPolygon(0, 0, 64)
	p2 := benchPolygon(8, 3, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Relate(p1, p2)
	}
}

func BenchmarkRelatePolygonPolygonDisjoint(b *testing.B) {
	p1 := benchPolygon(0, 0, 64)
	p2 := benchPolygon(100, 100, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Relate(p1, p2)
	}
}

func BenchmarkIntersectsExact(b *testing.B) {
	p1 := benchPolygon(0, 0, 64)
	p2 := benchPolygon(8, 3, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !Intersects(p1, p2) {
			b.Fatal("should intersect")
		}
	}
}

func BenchmarkIntersectsMBR(b *testing.B) {
	p1 := benchPolygon(0, 0, 64)
	p2 := benchPolygon(8, 3, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !MBREval(PredIntersects, p1, p2) {
			b.Fatal("should intersect")
		}
	}
}

func BenchmarkContainsPointInPolygon(b *testing.B) {
	p := benchPolygon(0, 0, 128)
	pt := geom.Pt(1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !Contains(p, pt) {
			b.Fatal("should contain")
		}
	}
}

func BenchmarkTouchesSharedEdge(b *testing.B) {
	a := geom.Polygon{geom.Ring{{X: 0, Y: 0}, {X: 2, Y: 0}, {X: 2, Y: 2}, {X: 0, Y: 2}, {X: 0, Y: 0}}}
	c := geom.Polygon{geom.Ring{{X: 2, Y: 0}, {X: 4, Y: 0}, {X: 4, Y: 2}, {X: 2, Y: 2}, {X: 2, Y: 0}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !Touches(a, c) {
			b.Fatal("should touch")
		}
	}
}

// BenchmarkIntersectsCases times ST_Intersects of a 128-gon (indexed
// when prepared) against the three kinds of small candidate a refine
// step sees, unprepared and with the 128-gon prepared:
//   - crossing: the candidate straddles the boundary with its interior
//     point outside, so the first boundary crossing settles the answer;
//   - contained: the interior-point step settles it before any segment
//     pair is cut;
//   - neardisjoint: the envelopes overlap but the polygons do not, so
//     nothing settles early and every sub-segment midpoint is located.
func BenchmarkIntersectsCases(b *testing.B) {
	outer := benchPolygon(0, 0, 128)
	cases := []struct {
		name  string
		other geom.Polygon
		want  bool
	}{
		{"crossing", geom.Polygon{ngon(16, 12, 0, 3)}, true},
		{"contained", geom.Polygon{ngon(16, 1, 0, 3)}, true},
		{"neardisjoint", geom.Polygon{ngon(16, 10, 10, 3)}, false},
	}
	for _, c := range cases {
		b.Run(c.name+"/unprepared", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if Intersects(outer, c.other) != c.want {
					b.Fatal("wrong answer")
				}
			}
		})
		b.Run(c.name+"/prepared", func(b *testing.B) {
			p := Prepare(outer)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if p.Eval(PredIntersects, c.other) != c.want {
					b.Fatal("wrong answer")
				}
			}
		})
	}
}
