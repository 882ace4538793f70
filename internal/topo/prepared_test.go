package topo

import (
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"jackpine/internal/geom"
)

// relateNaive evaluates the kernel with the location index suppressed
// (the Once runs a build without it before relateShapes can build),
// i.e. the linear point-location path. Segment pairs still come from
// the segment index, whose pair sequence and window search geom's
// tests pin to the nested loop's.
func relateNaive(a, b geom.Geometry) Matrix {
	sa, sb := decompose(a), decompose(b)
	for _, s := range [2]*shape{sa, sb} {
		s.indexOnce.Do(func() { s.segIdx = geom.NewSegIndex(s.envs) })
	}
	return relateShapes(sa, sb, noExit)
}

// relateForced evaluates the kernel with the location index forced
// regardless of the segment index's cutoff, so small corpus geometries
// exercise the indexed location path too.
func relateForced(a, b geom.Geometry) Matrix {
	sa, sb := decompose(a), decompose(b)
	for _, s := range [2]*shape{sa, sb} {
		s.indexOnce.Do(func() {
			s.segIdx = geom.NewSegIndex(s.envs)
			s.buildLocIndex()
		})
	}
	return relateShapes(sa, sb, noExit)
}

// corpusPairs loads the committed FuzzDE9IM seed corpus (go fuzz v1
// format: two quoted strings per file).
func corpusPairs(t *testing.T) [][2]string {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", "FuzzDE9IM")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read corpus dir: %v", err)
	}
	var pairs [][2]string
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("read corpus file: %v", err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(lines) != 3 || lines[0] != "go test fuzz v1" {
			t.Fatalf("unexpected corpus format in %s", e.Name())
		}
		var pair [2]string
		for i, ln := range lines[1:] {
			ln = strings.TrimPrefix(ln, "string(")
			ln = strings.TrimSuffix(ln, ")")
			s, err := strconv.Unquote(ln)
			if err != nil {
				t.Fatalf("unquote corpus line in %s: %v", e.Name(), err)
			}
			pair[i] = s
		}
		pairs = append(pairs, pair)
	}
	if len(pairs) == 0 {
		t.Fatal("empty corpus")
	}
	return pairs
}

// ngon builds a closed regular n-gon ring around (cx, cy).
func ngon(n int, cx, cy, r float64) geom.Ring {
	ring := make(geom.Ring, 0, n+1)
	for i := 0; i < n; i++ {
		th := 2 * math.Pi * float64(i) / float64(n)
		ring = append(ring, geom.Coord{X: cx + r*math.Cos(th), Y: cy + r*math.Sin(th)})
	}
	return append(ring, ring[0])
}

// zigzag builds an n-vertex zigzag linestring starting at (x0, y0).
func zigzag(n int, x0, y0 float64) geom.LineString {
	ls := make(geom.LineString, 0, n)
	for i := 0; i < n; i++ {
		y := y0
		if i%2 == 1 {
			y += 7
		}
		ls = append(ls, geom.Coord{X: x0 + float64(i), Y: y})
	}
	return ls
}

// largePairs are geometry pairs big enough to cross the indexMinSegs
// threshold on at least one side, covering polygon/polygon,
// polygon-with-hole, line/polygon, shared-boundary and disjoint cases
// on TIGER-scale coordinates.
func largePairs() [][2]geom.Geometry {
	big := geom.Polygon{ngon(256, -77.0, 38.9, 0.5)}
	shifted := geom.Polygon{ngon(300, -76.7, 38.9, 0.5)}
	inner := geom.Polygon{ngon(64, -77.0, 38.9, 0.1)}
	holed := geom.Polygon{ngon(256, -77.0, 38.9, 0.5), ngon(128, -77.0, 38.9, 0.2)}
	far := geom.Polygon{ngon(256, 10, 10, 0.5)}
	line := zigzag(400, -77.5, 38.9)
	shared := geom.Polygon{geom.Ring{
		{X: -77.5, Y: 38.4}, {X: -77.0, Y: 38.4}, {X: -77.0, Y: 39.4},
		{X: -77.5, Y: 39.4}, {X: -77.5, Y: 38.4},
	}}
	return [][2]geom.Geometry{
		{big, shifted},
		{big, inner},
		{inner, big},
		{holed, inner},
		{holed, geom.Point{Coord: geom.Coord{X: -77.0, Y: 38.9}}},
		{big, far},
		{big, line},
		{line, holed},
		{big, shared},
		{big, big},
		{holed, holed},
		{line, zigzag(350, -77.4, 38.95)},
	}
}

// TestIndexedEquivalence pins that the indexed kernel paths produce
// byte-identical DE-9IM matrices to the brute-force paths, over the
// committed fuzz corpus (indexing forced) and over large synthetic
// geometries (indexing hit naturally and forced).
func TestIndexedEquivalence(t *testing.T) {
	for _, pair := range corpusPairs(t) {
		a, err := geom.ParseWKT(pair[0])
		if err != nil {
			t.Fatalf("corpus WKT: %v", err)
		}
		b, err := geom.ParseWKT(pair[1])
		if err != nil {
			t.Fatalf("corpus WKT: %v", err)
		}
		naive, forced := relateNaive(a, b), relateForced(a, b)
		if naive != forced {
			t.Errorf("indexed relate diverges on corpus pair %q / %q: %s vs %s",
				pair[0], pair[1], naive, forced)
		}
		if got := Relate(a, b); got != naive {
			t.Errorf("Relate diverges from naive on %q / %q: %s vs %s",
				pair[0], pair[1], got, naive)
		}
	}
	for i, pair := range largePairs() {
		naive, forced := relateNaive(pair[0], pair[1]), relateForced(pair[0], pair[1])
		if naive != forced {
			t.Errorf("indexed relate diverges on large pair %d: %s vs %s", i, naive, forced)
		}
		if got := Relate(pair[0], pair[1]); got != naive {
			t.Errorf("Relate diverges from naive on large pair %d: %s vs %s", i, got, naive)
		}
	}
}

// TestPreparedEquivalence pins that every Prepared method agrees with
// its package-level counterpart, in both operand orders.
func TestPreparedEquivalence(t *testing.T) {
	check := func(t *testing.T, a, b geom.Geometry) {
		t.Helper()
		pa := Prepare(a)
		if got, want := pa.Relate(b), Relate(a, b); got != want {
			t.Errorf("Prepared.Relate = %s, want %s", got, want)
		}
		if got, want := pa.RelateReversed(b), Relate(b, a); got != want {
			t.Errorf("Prepared.RelateReversed = %s, want %s", got, want)
		}
		pat := "T********"
		if got, want := pa.RelatePattern(b, pat), RelatePattern(a, b, pat); got != want {
			t.Errorf("Prepared.RelatePattern = %v, want %v", got, want)
		}
		if got, want := pa.RelatePatternReversed(b, pat), RelatePattern(b, a, pat); got != want {
			t.Errorf("Prepared.RelatePatternReversed = %v, want %v", got, want)
		}
		for pred := PredEquals; pred <= PredCoveredBy; pred++ {
			if got, want := pa.Eval(pred, b), pred.Eval(a, b); got != want {
				t.Errorf("Prepared.Eval(%s) = %v, want %v", pred, got, want)
			}
			if got, want := pa.EvalReversed(pred, b), pred.Eval(b, a); got != want {
				t.Errorf("Prepared.EvalReversed(%s) = %v, want %v", pred, got, want)
			}
		}
	}
	for _, pair := range corpusPairs(t) {
		a, errA := geom.ParseWKT(pair[0])
		b, errB := geom.ParseWKT(pair[1])
		if errA != nil || errB != nil {
			t.Fatalf("corpus WKT: %v / %v", errA, errB)
		}
		check(t, a, b)
	}
	for _, pair := range largePairs() {
		check(t, pair[0], pair[1])
	}
	// Spot-check asymmetric and symmetric predicates through Eval.
	a := geom.Polygon{ngon(256, 0, 0, 10)}
	b := geom.Polygon{ngon(32, 1, 0, 2)}
	pa := Prepare(a)
	if pa.Eval(PredContains, b) != Contains(a, b) || pa.Eval(PredWithin, b) != Within(a, b) ||
		pa.Eval(PredIntersects, b) != Intersects(a, b) {
		t.Error("Prepared.Eval diverges from package-level predicates")
	}
	// Degenerate operands must behave exactly like the unprepared path.
	for _, g := range []geom.Geometry{nil, geom.Point{Empty: true}} {
		pg := Prepare(g)
		if pg.Eval(PredIntersects, b) || pg.Eval(PredContains, b) {
			t.Error("prepared nil/empty geometry should hit no predicate")
		}
		if !pg.Eval(PredDisjoint, b) {
			t.Error("prepared nil/empty geometry should be disjoint from everything")
		}
		if got, want := pg.Relate(b), Relate(g, b); got != want {
			t.Errorf("prepared empty Relate = %s, want %s", got, want)
		}
	}
}

// TestGatherEventPointsDedupe pins the dedupe: coincident event points
// collapse to one locate call each, and the matrix is unchanged. Three
// star segments cross the box's west side at (2 2) and two touch its
// south side at (4 0), so segment pairs meet there repeatedly. The
// shapes are not indexed first: the enumeration must build what it
// reads.
func TestGatherEventPointsDedupe(t *testing.T) {
	star, err := geom.ParseWKT("LINESTRING (0 0, 4 4, 0 4, 4 0, 0 2, 4 2)")
	if err != nil {
		t.Fatal(err)
	}
	box, err := geom.ParseWKT("POLYGON ((2 0, 6 0, 6 6, 2 6, 2 0))")
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := decompose(star), decompose(box)
	seen := make(map[geom.Coord]struct{})
	forEachEventPoint(sa, sb, func(p geom.Coord) bool {
		if _, dup := seen[p]; dup {
			t.Fatalf("duplicate event point %v", p)
		}
		seen[p] = struct{}{}
		return false
	})
	// The four segment crossings, then the chain's two endpoints.
	want := []geom.Coord{{X: 2, Y: 2}, {X: 2, Y: 4}, {X: 2, Y: 1}, {X: 4, Y: 0}, {X: 0, Y: 0}, {X: 4, Y: 2}}
	for _, p := range want {
		if _, ok := seen[p]; !ok {
			t.Errorf("event point %v not visited", p)
		}
	}
	if len(seen) != len(want) {
		t.Errorf("visited %d event points %v, want %d", len(seen), seen, len(want))
	}
	// The matrix must match the hand-derived classification: the chain
	// crosses the box boundary and runs through interior and exterior.
	if got, want := Relate(star, box).String(), "1010F0212"; got != want {
		t.Errorf("Relate(star, box) = %s, want %s", got, want)
	}
}

// TestPreparedConcurrentReaders evaluates shared operands from several
// goroutines at once, as join workers do: a Prepared, indexed at
// Prepare, and a bare shape whose indexes the first relate from any
// goroutine builds. Every result must equal the sequential one; under
// -race the test also checks that the shared indexes are published
// safely.
func TestPreparedConcurrentReaders(t *testing.T) {
	pairs := largePairs()
	shared := pairs[0][0]
	var others []geom.Geometry
	var want []Matrix
	for _, pair := range pairs {
		others = append(others, pair[1])
		want = append(want, Relate(shared, pair[1]))
	}
	p, s := Prepare(shared), decompose(shared)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, o := range others {
				if got := p.Relate(o); got != want[i] {
					t.Errorf("Prepared.Relate on other %d = %s, want %s", i, got, want[i])
				}
				if got := relateShapes(s, decompose(o), noExit); got != want[i] {
					t.Errorf("shared-shape relate on other %d = %s, want %s", i, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}
