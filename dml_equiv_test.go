package jackpine

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// TestDMLEquivalence is the rail for DML row selection through the
// SELECT planner. Every UPDATE and DELETE runs on an unindexed, serial
// reference engine and on indexed engines at parallelism 1 and 4, in
// memory and durable; the durable ones are closed and reopened
// half-way. On the reference, the brute-force oracle (refexec) must
// select as many rows by the statement's WHERE clause as it affects, or
// fail as it fails, and must admit its SELECT * dump of the table. The
// statements cover every access path a WHERE clause can pick — pruned
// full scan, B-tree seek and range, spatial index window, a hoisted
// constant probe, the MBR prefilter of a table without a spatial index
// — plus no WHERE, no match, NULL comparisons, a Halloween-shaped update
// and failing statements. After each one the affected count or error
// text must match the reference, and so must a SELECT * dump of the
// table in heap order (no ORDER BY), which catches any change in the
// order rows are rewritten.
func TestDMLEquivalence(t *testing.T) {
	ds := GenerateDataset(ScaleSmall, 1)
	side := ds.Extent.MaxX
	window := func(lo, hi float64) string {
		return fmt.Sprintf("ST_MakeEnvelope(%g, %g, %g, %g)", lo*side, lo*side, hi*side, hi*side)
	}
	// spots is indexed nowhere, so its spatial predicates run as an MBR
	// prefilter over a full scan.
	var spots []string
	for k := 0; k < 400; k++ {
		spots = append(spots, fmt.Sprintf("(%d, 'none', ST_MakePoint(%g, %g))",
			k, float64(k%20)*side/20, float64(k/20)*side/20))
	}
	load := func(eng *Engine, indexed bool) {
		t.Helper()
		if err := LoadDataset(eng, ds, indexed); err != nil {
			t.Fatal(err)
		}
		eng.MustExec("CREATE TABLE spots (id INTEGER, tag TEXT, geo GEOMETRY)")
		eng.MustExec("INSERT INTO spots VALUES " + strings.Join(spots, ", "))
	}

	ref := OpenEngine(GaiaDB(), WithParallelism(1))
	load(ref, false)
	type target struct {
		name string
		eng  *Engine
		dir  string // durable engines only
		par  int
	}
	var targets []*target
	for _, durable := range []bool{false, true} {
		for _, par := range []int{1, 4} {
			tg := &target{name: fmt.Sprintf("durable %v, parallelism %d", durable, par), par: par}
			if durable {
				tg.dir = filepath.Join(t.TempDir(), "db")
				eng, err := OpenDurable(GaiaDB(), tg.dir, WithParallelism(par))
				if err != nil {
					t.Fatal(err)
				}
				tg.eng = eng
			} else {
				tg.eng = OpenEngine(GaiaDB(), WithParallelism(par))
			}
			load(tg.eng, true)
			targets = append(targets, tg)
		}
	}
	defer func() {
		for _, tg := range targets {
			tg.eng.Close()
		}
	}()

	dump := func(eng *Engine, table string) string {
		t.Helper()
		res, err := eng.Exec("SELECT * FROM " + table)
		if err != nil {
			t.Fatalf("dump %s: %v", table, err)
		}
		return canonRows(&ResultSet{Rows: res.Rows})
	}
	type dmlCase struct {
		table, sql string
		// zero marks a statement that must match no row, fails one that
		// must fail; sel, when set, is the SELECT form whose error a
		// failing statement must reproduce.
		zero, fails bool
		sel         string
	}
	check := func(phase string, cases []dmlCase) {
		t.Helper()
		for _, c := range cases {
			want := oracleExec(t, ref, c.sql)
			if strings.HasPrefix(want, "error: ") != c.fails || !c.fails && (want == "affected 0") != c.zero {
				t.Fatalf("%s: %s: reference gives %s", phase, c.sql, want)
			}
			wantDump := oracleExec(t, ref, "SELECT * FROM "+c.table)
			for _, tg := range targets {
				got, err := tg.eng.Exec(c.sql)
				if g := execResult(got, err); g != want {
					t.Errorf("%s: %s (%s): %s, reference %s", phase, c.sql, tg.name, g, want)
				}
				if c.sel != "" {
					if _, serr := tg.eng.Exec(c.sel); fmt.Sprint(serr) != fmt.Sprint(err) {
						t.Errorf("%s: %s (%s): error %v, its SELECT form fails with %v", phase, c.sql, tg.name, err, serr)
					}
				}
				if got := dump(tg.eng, c.table); got != wantDump {
					t.Errorf("%s: %s (%s): table %s diverges from the reference\nwant:\n%.600s\ngot:\n%.600s",
						phase, c.sql, tg.name, c.table, wantDump, got)
				}
			}
		}
	}

	parcel := NewQueryContext(ds).RandomParcelID("MS5", 0)
	check("loaded", []dmlCase{
		// The ingest workload's two statements: pruned full scans.
		{table: "parcels", sql: fmt.Sprintf("UPDATE parcels SET landuse = 'public' WHERE id = %d", parcel)},
		{table: "pointlm", sql: fmt.Sprintf("DELETE FROM pointlm WHERE id = %d", ds.PointLandmarks[7].ID)},
		{table: "parcels", sql: "DELETE FROM parcels WHERE id = -1", zero: true},
		// B-tree seek, range, and composite seek + range.
		{table: "parcels", sql: "UPDATE parcels SET owner = 'seek' WHERE landuse = 'commercial'"},
		{table: "parcels", sql: "UPDATE parcels SET owner = 'range' WHERE landuse >= 'i' AND landuse < 'p'"},
		{table: "edges", sql: fmt.Sprintf("DELETE FROM edges WHERE name = '%s' AND fromaddr < 700", ds.Edges[0].Name)},
		// Spatial index window; a constant probe hoisted out of the scan.
		{table: "arealm", sql: "DELETE FROM arealm WHERE ST_Intersects(geo, " + window(0.3, 0.6) + ")"},
		{table: "pointlm", sql: fmt.Sprintf("UPDATE pointlm SET category = 'near' "+
			"WHERE ST_DWithin(geo, ST_GeomFromText('POINT (%g %g)'), %g)", side/2, side/2, side/8)},
		// MBR prefilter without a spatial index.
		{table: "spots", sql: "UPDATE spots SET tag = 'hit' WHERE ST_Intersects(geo, " + window(0.2, 0.7) + ")"},
		{table: "spots", sql: "DELETE FROM spots WHERE ST_Within(geo, " + window(0.5, 0.9) + ")"},
		// No WHERE: every row, rewritten in heap order.
		{table: "areawater", sql: "UPDATE areawater SET category = 'water'"},
		// NULL comparisons: '= NULL' and '<> x' never match a NULL.
		{table: "edges", sql: "UPDATE edges SET name = NULL WHERE id % 9 = 0"},
		{table: "edges", sql: "DELETE FROM edges WHERE name = NULL", zero: true},
		{table: "edges", sql: "UPDATE edges SET class = 'unnamed' WHERE name IS NULL"},
		{table: "edges", sql: "UPDATE edges SET class = 'named' WHERE name <> 'nowhere' AND id % 2 = 0"},
		// Halloween-shaped: the rewritten rows re-enter the index under
		// the key being searched, or a key the statement matches.
		{table: "parcels", sql: "UPDATE parcels SET landuse = 'b' WHERE landuse = 'residential'"},
		{table: "parcels", sql: "UPDATE parcels SET landuse = 'a' WHERE landuse = 'b'"},
		{table: "parcels", sql: "UPDATE parcels SET landuse = landuse WHERE landuse = 'a'"},
		// Failing WHERE clauses fail as their SELECT form does; a failing
		// SET leaves the table untouched.
		{table: "parcels", sql: "UPDATE parcels SET owner = 'x' WHERE ST_Area(landuse) > 0", fails: true,
			sel: "SELECT * FROM parcels WHERE ST_Area(landuse) > 0"},
		{table: "pointlm", sql: "DELETE FROM pointlm WHERE category = 'school' AND ST_Length(name) > 0", fails: true,
			sel: "SELECT * FROM pointlm WHERE category = 'school' AND ST_Length(name) > 0"},
		{table: "parcels", sql: "UPDATE parcels SET geo = owner WHERE id < 40", fails: true},
	})

	// Recovery replays the log and rebuilds every index from the heap;
	// the reopened engines must hold the same rows and keep agreeing.
	for _, tg := range targets {
		if tg.dir == "" {
			continue
		}
		requireNoPins(t, tg.eng)
		if err := tg.eng.Close(); err != nil {
			t.Fatalf("close %s: %v", tg.name, err)
		}
		eng, err := OpenDurable(GaiaDB(), tg.dir, WithParallelism(tg.par))
		if err != nil {
			t.Fatalf("reopen %s: %v", tg.name, err)
		}
		tg.eng = eng
	}
	for _, table := range []string{"edges", "areawater", "arealm", "pointlm", "parcels", "spots"} {
		want := dump(ref, table)
		for _, tg := range targets {
			if got := dump(tg.eng, table); got != want {
				t.Errorf("reopened: table %s (%s) diverges from the reference", table, tg.name)
			}
		}
	}
	check("reopened", []dmlCase{
		{table: "parcels", sql: "DELETE FROM parcels WHERE landuse = 'a'"},
		{table: "arealm", sql: "UPDATE arealm SET category = 'moved' WHERE ST_Intersects(geo, " + window(0.1, 0.4) + ")"},
		{table: "spots", sql: "DELETE FROM spots"},
	})
	requireNoPins(t, ref)
	for _, tg := range targets {
		requireNoPins(t, tg.eng)
	}
}
