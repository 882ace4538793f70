package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"jackpine/internal/engine"
	"jackpine/internal/geom"
)

// TestGeocodeReverseConsistency geocodes addresses client-side and
// reverse-geocodes the resulting coordinates: the nearest edge to a
// point interpolated on a street is overwhelmingly that street.
func TestGeocodeReverseConsistency(t *testing.T) {
	connector, ctx := testTarget(t, engine.GaiaDB())
	conn, err := connector.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	agree := 0
	const trials = 30
	for i := 0; i < trials; i++ {
		name, house := ctx.RandomAddress("consistency", i)
		rs, err := conn.Query(fmt.Sprintf(
			"SELECT fromaddr, toaddr, geo FROM edges WHERE name = '%s' AND fromaddr <= %d AND toaddr >= %d",
			name, house, house))
		if err != nil {
			t.Fatal(err)
		}
		if len(rs.Rows) == 0 {
			t.Fatalf("no edge for %q #%d", name, house)
		}
		row := rs.Rows[0]
		line := row[2].Geom.(geom.LineString)
		frac := float64(house-row[0].Int) / float64(row[1].Int-row[0].Int)
		pt := geom.Coord{
			X: line[0].X + frac*(line[len(line)-1].X-line[0].X),
			Y: line[0].Y + frac*(line[len(line)-1].Y-line[0].Y),
		}
		rs, err = conn.Query(fmt.Sprintf(
			"SELECT name FROM edges ORDER BY ST_Distance(geo, ST_MakePoint(%g, %g)) LIMIT 1",
			pt.X, pt.Y))
		if err != nil {
			t.Fatal(err)
		}
		if len(rs.Rows) == 1 && rs.Rows[0][0].Text == name {
			agree++
		}
	}
	// Near intersections the nearest edge can be the crossing street;
	// demand a strong majority, not unanimity.
	if agree < trials*3/4 {
		t.Errorf("only %d/%d round trips agree", agree, trials)
	}
}

// TestFloodRiskParcelsWithinBuffer verifies MS4's semantic core: every
// parcel the scenario's join reports genuinely intersects the buffered
// water body.
func TestFloodRiskParcelsWithinBuffer(t *testing.T) {
	connector, ctx := testTarget(t, engine.GaiaDB())
	conn, err := connector.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	wid := ctx.RandomWaterID("MS4-check", 1)
	rs, err := conn.Query(fmt.Sprintf(
		"SELECT p.geo, w.geo FROM areawater w JOIN parcels p ON ST_Intersects(p.geo, ST_Buffer(w.geo, 40)) WHERE w.id = %d",
		wid))
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rs.Rows {
		parcel, water := row[0].Geom, row[1].Geom
		if d := geom.Distance(parcel, water); d > 40+1e-6 {
			t.Errorf("row %d: parcel at distance %v from water, beyond the 40-unit flood buffer", i, d)
		}
	}
	// Complement check: no parcel at distance <= 39 is missing.
	rs2, err := conn.Query(fmt.Sprintf(
		"SELECT COUNT(*) FROM areawater w JOIN parcels p ON ST_DWithin(p.geo, w.geo, 39) WHERE w.id = %d", wid))
	if err != nil {
		t.Fatal(err)
	}
	if int(rs2.Rows[0][0].Int) > len(rs.Rows) {
		t.Errorf("buffer join found %d parcels but %d are within 39 units",
			len(rs.Rows), rs2.Rows[0][0].Int)
	}
}

// TestToxicSpillFindsNearestHospitals checks MS6's kNN leg against a
// brute-force oracle over the dataset.
func TestToxicSpillFindsNearestHospitals(t *testing.T) {
	connector, ctx := testTarget(t, engine.GaiaDB())
	conn, err := connector.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	e := ctx.RandomEdge("MS6-check", 2)
	mid := geom.Coord{
		X: (e.Geom[0].X + e.Geom[len(e.Geom)-1].X) / 2,
		Y: (e.Geom[0].Y + e.Geom[len(e.Geom)-1].Y) / 2,
	}
	rs, err := conn.Query(fmt.Sprintf(
		"SELECT name, ST_Distance(geo, ST_MakePoint(%g, %g)) FROM pointlm WHERE category = 'hospital' "+
			"ORDER BY ST_Distance(geo, ST_MakePoint(%g, %g)) LIMIT 3", mid.X, mid.Y, mid.X, mid.Y))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 3 {
		t.Fatalf("kNN returned %d hospitals", len(rs.Rows))
	}
	// Oracle: scan the dataset with the kernel ST_DISTANCE calls. Each
	// rank's distance must equal the oracle's exactly, and its name must
	// be a hospital's at that distance.
	probe := geom.Point{Coord: mid}
	var best []float64
	hospitals := map[string][]float64{}
	for _, p := range ctx.Dataset.PointLandmarks {
		if p.Category != "hospital" {
			continue
		}
		d := geom.Distance(p.Geom, probe)
		best = append(best, d)
		hospitals[p.Name] = append(hospitals[p.Name], d)
	}
	sortFloats(best)
	for i, row := range rs.Rows {
		name, got := row[0].Text, row[1].Float
		if got != best[i] {
			t.Errorf("rank %d: engine distance %v, oracle %v", i, got, best[i])
		}
		if !slices.Contains(hospitals[name], got) {
			t.Errorf("rank %d: %q at distance %v is not a hospital at that distance", i, name, got)
		}
	}
}

func sortFloats(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// TestFullWindowsMode checks the paper-faithful full-join mode: windows
// cover the entire extent and the join results grow accordingly.
func TestFullWindowsMode(t *testing.T) {
	connector, ctx := testTarget(t, engine.GaiaDB())
	full := *ctx
	full.FullWindows = true
	if full.Window("x", 0, 4) != ctx.Dataset.Extent {
		t.Fatal("full-windows mode must return the extent")
	}
	conn, _ := connector.Connect()
	defer conn.Close()
	q := TopologicalSuite()[2] // MT3
	windowed, err := conn.Query(q.SQL(ctx, 0))
	if err != nil {
		t.Fatal(err)
	}
	fullRes, err := conn.Query(q.SQL(&full, 0))
	if err != nil {
		t.Fatal(err)
	}
	if fullRes.Rows[0][0].Int < windowed.Rows[0][0].Int {
		t.Errorf("full join count %v < windowed %v", fullRes.Rows[0][0], windowed.Rows[0][0])
	}
	if fullRes.Rows[0][0].Int == 0 {
		t.Error("full join found nothing")
	}
}

// TestQueryCatalogRendersEverything covers the query-definition table.
func TestQueryCatalogRendersEverything(t *testing.T) {
	ctx := NewQueryContext(Generate(t))
	for _, q := range MicroSuite() {
		sqlText := q.SQL(ctx, 0)
		if !strings.Contains(sqlText, "SELECT") {
			t.Errorf("%s: query text %q has no SELECT", q.ID, sqlText)
		}
	}
}
