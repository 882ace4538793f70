package tiger

import (
	"reflect"
	"strings"
	"testing"

	"jackpine/internal/engine"
	"jackpine/internal/geom"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Small, 42)
	b := Generate(Small, 42)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed should generate identical datasets")
	}
	c := Generate(Small, 43)
	if reflect.DeepEqual(a.Edges, c.Edges) {
		t.Error("different seeds should differ")
	}
}

func TestGenerateScales(t *testing.T) {
	small := Generate(Small, 1)
	medium := Generate(Medium, 1)
	if medium.TotalFeatures() <= small.TotalFeatures()*2 {
		t.Errorf("medium (%d) should be much larger than small (%d)",
			medium.TotalFeatures(), small.TotalFeatures())
	}
	if small.Scale.String() != "small" || medium.Scale.String() != "medium" ||
		Large.String() != "large" {
		t.Error("scale names")
	}
}

func TestGenerateAllGeometriesValid(t *testing.T) {
	ds := Generate(Small, 7)
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	// Everything within the extent (with a little slack for the frame).
	slack := ds.Extent.Expand(1)
	for _, e := range ds.Edges {
		if !slack.ContainsRect(e.Geom.Envelope()) {
			t.Fatalf("edge %d outside extent", e.ID)
		}
	}
	for _, a := range ds.Parcels {
		if !slack.ContainsRect(a.Geom.Envelope()) {
			t.Fatalf("parcel %d outside extent", a.ID)
		}
	}
}

func TestEdgesHaveAddressesAndNames(t *testing.T) {
	ds := Generate(Small, 3)
	names := map[string]int{}
	for _, e := range ds.Edges {
		if e.Name == "" || e.Class == "" {
			t.Fatal("edge missing name/class")
		}
		if e.FromAddr >= e.ToAddr {
			t.Fatalf("edge %d address range %d..%d", e.ID, e.FromAddr, e.ToAddr)
		}
		names[e.Name]++
	}
	// Streets span many blocks: names must repeat across edges.
	repeated := 0
	for _, n := range names {
		if n > 1 {
			repeated++
		}
	}
	if repeated == 0 {
		t.Error("no street name spans multiple edges")
	}
}

func TestParcelsShareEdgesExactly(t *testing.T) {
	ds := Generate(Small, 5)
	// Find two horizontally adjacent parcels: consecutive ids within one
	// block row share a vertical edge.
	found := false
	for i := 0; i+1 < len(ds.Parcels) && !found; i++ {
		a, b := ds.Parcels[i].Geom, ds.Parcels[i+1].Geom
		ea, eb := a.Envelope(), b.Envelope()
		if ea.MaxX == eb.MinX && ea.MinY == eb.MinY {
			found = true
		}
	}
	if !found {
		t.Error("no exactly-adjacent parcel pair found")
	}
}

func TestStats(t *testing.T) {
	ds := Generate(Small, 9)
	stats := ds.Stats()
	if len(stats) != 5 {
		t.Fatalf("stats layers = %d", len(stats))
	}
	total := 0
	for _, s := range stats {
		if s.Features <= 0 || s.Coords <= 0 || s.WKBBytes <= 0 {
			t.Errorf("layer %s has empty stats: %+v", s.Layer, s)
		}
		total += s.Features
	}
	if total != ds.TotalFeatures() {
		t.Errorf("stats total %d != dataset total %d", total, ds.TotalFeatures())
	}
}

// execAdapter adapts an engine to the Execer interface.
type execAdapter struct{ e *engine.Engine }

func (a execAdapter) Exec(q string) error {
	_, err := a.e.Exec(q)
	return err
}

func TestLoadIntoEngine(t *testing.T) {
	ds := Generate(Small, 11)
	e := engine.Open(engine.GaiaDB())
	if err := Load(execAdapter{e}, ds, true); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{
		"edges":     len(ds.Edges),
		"areawater": len(ds.AreaWater),
		"arealm":    len(ds.AreaLandmarks),
		"pointlm":   len(ds.PointLandmarks),
		"parcels":   len(ds.Parcels),
	}
	for table, want := range counts {
		res := e.MustExec("SELECT COUNT(*) FROM " + table)
		if got := res.Rows[0][0].Int; got != int64(want) {
			t.Errorf("%s: loaded %d rows, want %d", table, got, want)
		}
	}
	// Spot checks: geocoding-style lookups hit the composite B+tree — a
	// name-only probe is a prefix range scan, name+address is narrower.
	res := e.MustExec("SELECT COUNT(*) FROM edges WHERE name = 'Oak St'")
	if res.Access[0] != "edges:btree-range" {
		t.Errorf("name lookup access = %v", res.Access)
	}
	if res.Rows[0][0].Int == 0 {
		t.Error("no edges named 'Oak St'")
	}
	res = e.MustExec("SELECT COUNT(*) FROM edges WHERE name = 'Oak St' AND fromaddr <= 310 AND toaddr >= 310")
	if res.Access[0] != "edges:btree-range" || res.Rows[0][0].Int != 1 {
		t.Errorf("address lookup: %v rows (%v)", res.Rows[0][0], res.Access)
	}
	// Window query drives the spatial index (fanned out across workers
	// on multi-core machines, hence the prefix/substring check).
	res = e.MustExec("SELECT COUNT(*) FROM pointlm WHERE ST_Intersects(geo, ST_MakeEnvelope(0, 0, 500, 500))")
	if !strings.HasPrefix(res.Access[0], "pointlm:") || !strings.Contains(res.Access[0], "spatial-index") {
		t.Errorf("window access = %v", res.Access)
	}
	// Geometries round-tripped through WKT/WKB intact.
	got := e.MustExec("SELECT ST_AsText(geo) FROM edges WHERE id = 1").Rows[0][0].Text
	if got != geom.WKT(ds.Edges[0].Geom) {
		t.Errorf("edge 1 geometry corrupted: %s vs %s", got, geom.WKT(ds.Edges[0].Geom))
	}
}

func TestLoadWithoutIndexes(t *testing.T) {
	ds := Generate(Small, 13)
	e := engine.Open(engine.GaiaDB())
	if err := Load(execAdapter{e}, ds, false); err != nil {
		t.Fatal(err)
	}
	res := e.MustExec("SELECT COUNT(*) FROM pointlm WHERE ST_Intersects(geo, ST_MakeEnvelope(0, 0, 500, 500))")
	if !strings.HasPrefix(res.Access[0], "pointlm:") || !strings.Contains(res.Access[0], "seqscan") {
		t.Errorf("unindexed access = %v", res.Access)
	}
}

func TestQuotingInNames(t *testing.T) {
	// Owner names come from a fixed pool without quotes today; this
	// guards the loader's escaping against future name pools.
	e := engine.Open(engine.GaiaDB())
	ds := &Dataset{
		Extent: geom.Rect{MaxX: 10, MaxY: 10},
		AreaLandmarks: []Area{{
			ID: 1, Name: "O'Hare", Category: "airport",
			Geom: geom.Polygon{geom.Ring{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}, {X: 0, Y: 1}, {X: 0, Y: 0}}},
		}},
	}
	if err := Load(execAdapter{e}, ds, false); err != nil {
		t.Fatal(err)
	}
	res := e.MustExec("SELECT name FROM arealm")
	if res.Rows[0][0].Text != "O'Hare" {
		t.Errorf("quoted name = %q", res.Rows[0][0].Text)
	}
}

// TestWKTAllocsPerCall pins geom.WKT to one allocation, its string, on
// every polygon of a generated dataset: the text is formatted into a
// pooled buffer sized from the coordinate count, which never grows.
func TestWKTAllocsPerCall(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers at random")
	}
	ds := Generate(Small, 1)
	for _, layer := range [][]Area{ds.AreaWater, ds.AreaLandmarks, ds.Parcels} {
		for _, a := range layer {
			var g geom.Geometry = a.Geom
			if allocs := testing.AllocsPerRun(20, func() { _ = geom.WKT(g) }); allocs > 1 {
				t.Fatalf("WKT of a %d-coordinate polygon: %v allocations, want 1", g.NumCoords(), allocs)
			}
		}
	}
}
