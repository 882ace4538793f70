package jackpine

import (
	"fmt"
	"strings"
	"testing"

	"jackpine/internal/sql/refexec"
)

// TestHoistEquivalence is the rail for stage-invariant hoisting: every
// shape in which an expression over an outer table can be consumed
// downstream — probe window, join filter, projection, sort key,
// aggregate argument, a middle stage feeding a third table — plus the
// NULL and error edges, under serial and parallel plans, forced
// index-nested-loop and forced PBSM. Each configuration must return
// byte-identical rows, order and error text, and the brute-force oracle
// (refexec), which evaluates every conjunct and expression as written,
// with no stage slot, must admit the rows (their order where the
// statement fixes one) or fail with the same error text.
func TestHoistEquivalence(t *testing.T) {
	ds := GenerateDataset(ScaleSmall, 1)
	// One engine sweeps parallelism and strategy.
	eng := OpenEngine(GaiaDB())
	if err := LoadDataset(eng, ds, true); err != nil {
		t.Fatal(err)
	}
	// A water body without a geometry, and one whose name parses as WKT
	// while every other name makes ST_GeomFromText fail.
	eng.MustExec("INSERT INTO areawater VALUES (900001, 'nowhere', 'pond', NULL)")
	eng.MustExec("INSERT INTO areawater VALUES (900002, 'POINT (1 1)', 'pond', ST_MakePoint(1, 1))")
	conn, err := Connect(eng).Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ctx := NewQueryContext(ds)
	wid := ctx.RandomWaterID("MS4", 0)

	cases := []struct {
		name, sql string
		fails     bool
	}{
		{"flood 1", fmt.Sprintf("SELECT p.id, ST_Area(ST_Intersection(p.geo, ST_Buffer(w.geo, 40))) "+
			"FROM areawater w JOIN parcels p ON ST_Intersects(p.geo, ST_Buffer(w.geo, 40)) WHERE w.id = %d", wid), false},
		{"flood 2", fmt.Sprintf("SELECT COUNT(*), SUM(ST_Area(p.geo)) FROM areawater w "+
			"JOIN parcels p ON ST_Intersects(p.geo, ST_Buffer(w.geo, 40)) WHERE w.id = %d", wid), false},
		{"toxic spill", "SELECT e.id, e.name FROM areawater w JOIN edges e " +
			"ON ST_Intersects(e.geo, ST_Buffer(w.geo, 60)) WHERE w.id = 1 AND e.class = 'motorway'", false},
		{"projection only", "SELECT a.id, ST_Area(ST_Buffer(w.geo, 5)), ST_NumPoints(ST_Buffer(w.geo, 5)) " +
			"FROM areawater w JOIN arealm a ON ST_Intersects(a.geo, w.geo)", false},
		// Three water bodies; the parcel id cut is only there to keep brute
		// force (one buffer per pair) affordable.
		{"order by key", fmt.Sprintf("SELECT w.id, p.id FROM areawater w JOIN parcels p "+
			"ON ST_Intersects(p.geo, ST_Buffer(w.geo, 40)) WHERE w.id BETWEEN %d AND %d AND p.id %% 4 = 0 "+
			"ORDER BY ST_Area(ST_Buffer(w.geo, 40)) DESC, w.id, p.id", wid-1, wid+1), false},
		{"aggregate argument", fmt.Sprintf("SELECT COUNT(*), SUM(ST_Area(ST_Buffer(w.geo, 40))), "+
			"SUM(ST_Area(ST_Intersection(p.geo, ST_Buffer(w.geo, 40)))) FROM areawater w "+
			"JOIN parcels p ON ST_Intersects(p.geo, ST_Buffer(w.geo, 40)) "+
			"WHERE w.id BETWEEN %d AND %d AND p.id %% 4 = 0", wid-1, wid+1), false},
		{"three tables", fmt.Sprintf("SELECT p.id, l.id, ST_AsText(ST_Centroid(p.geo)), ST_Area(ST_Buffer(w.geo, 40)) "+
			"FROM areawater w JOIN parcels p ON ST_Intersects(p.geo, ST_Buffer(w.geo, 40)) "+
			"JOIN pointlm l ON ST_DWithin(l.geo, ST_Centroid(p.geo), 150) WHERE w.id = %d", wid), false},
		{"null outer geometry", "SELECT w.id, p.id, ST_Area(ST_Buffer(w.geo, 40)) FROM areawater w " +
			"JOIN parcels p ON ST_Intersects(p.geo, ST_Buffer(w.geo, 40)) WHERE w.id >= 900001", false},
		{"null outer projection", "SELECT w.id, p.id, ST_Area(ST_Buffer(w.geo, 40)) FROM areawater w " +
			"JOIN parcels p ON p.id = w.id - 900000 WHERE w.id >= 900001", false},
		// The projection errors for every water body but 900002; with no
		// parcel to join it must never be evaluated, with one it must
		// fail exactly as plain evaluation does.
		{"erroring outer, empty inner", "SELECT p.id, ST_AsText(ST_GeomFromText(w.name)) FROM areawater w " +
			"JOIN parcels p ON p.id = w.id + 800000", false},
		{"erroring outer, one survivor", "SELECT p.id, ST_AsText(ST_GeomFromText(w.name)) FROM areawater w " +
			"JOIN parcels p ON p.id = w.id - 900000 WHERE w.id = 900002", false},
		{"erroring outer", "SELECT p.id, ST_AsText(ST_GeomFromText(w.name)) FROM areawater w " +
			"JOIN parcels p ON p.id = w.id", true},
	}
	for _, c := range cases {
		want, wantErr := refexec.Run(eng, gaiaReg, c.sql)
		if (wantErr != nil) != c.fails {
			t.Fatalf("%s: oracle: err %v", c.name, wantErr)
		}
		if !c.fails && len(want.Rows) == 0 && !strings.Contains(c.name, "empty inner") {
			t.Fatalf("%s: the oracle finds no rows; the case proves nothing", c.name)
		}
		// The serial run of each strategy is the byte-for-byte reference:
		// INL emits inner rows in index order, PBSM in heap order.
		first := map[JoinStrategy]string{}
		for _, cfg := range []struct {
			par   int
			strat JoinStrategy
		}{{1, JoinINL}, {8, JoinINL}, {1, JoinPBSM}, {8, JoinPBSM}} {
			eng.SetParallelism(cfg.par)
			eng.SetJoinStrategy(cfg.strat)
			rs, err := conn.Query(c.sql)
			got := ""
			switch {
			case err != nil && wantErr != nil:
				got = "error: " + err.Error()
				if err.Error() != wantErr.Error() {
					t.Errorf("%s %+v: error %q, the oracle fails with %q", c.name, cfg, err, wantErr)
				}
			case err != nil || wantErr != nil:
				t.Fatalf("%s %+v: err %v, oracle err %v", c.name, cfg, err, wantErr)
			default:
				got = canonRows(rs)
				if err := want.Admits(rs.Rows); err != nil {
					t.Errorf("%s %+v: the oracle does not admit the rows: %v", c.name, cfg, err)
				}
			}
			if ref, seen := first[cfg.strat]; !seen {
				first[cfg.strat] = got
			} else if got != ref {
				t.Errorf("%s %+v is not byte-identical to the strategy's serial run\nwant:\n%s\ngot:\n%s",
					c.name, cfg, ref, got)
			}
		}
	}
}
