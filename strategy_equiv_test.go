package jackpine

import (
	"slices"
	"strings"
	"testing"
)

// ms7Queries are the three table-to-table join statements issued by the
// MS7 overlay-and-proximity macro, inlined so the rail can compare their
// result bytes (the scenario Run only surfaces row counts).
var ms7Queries = []struct{ id, sql string }{
	{"MS7.overlay", "SELECT COUNT(*) FROM arealm a JOIN areawater w ON ST_Intersects(a.geo, w.geo)"},
	{"MS7.cluster", "SELECT COUNT(*) FROM pointlm a JOIN pointlm b ON ST_DWithin(a.geo, b.geo, 50.0) WHERE a.id < b.id"},
	{"MS7.proximity", "SELECT COUNT(*), MAX(p.id) FROM pointlm p JOIN areawater w ON ST_DWithin(p.geo, w.geo, 100.0)"},
}

// TestJoinStrategyEquivalence drives every join-bearing micro query
// (the ST_* topological-relation joins of the micro suite) and the
// three MS7 macro joins through forced index-nested-loop, forced
// partition-based spatial-merge, and the cost-based default, at
// parallelism 1 and 8, all on one engine. Every combination must
// return byte-identical results to the serial INL baseline. Running
// each statement repeatedly on the same engine also exercises the
// version-keyed PBSM state cache: later PBSM executions reuse the
// cached grid rather than rebuilding it.
func TestJoinStrategyEquivalence(t *testing.T) {
	ds := GenerateDataset(ScaleSmall, 1)
	eng := OpenEngine(GaiaDB(), WithParallelism(1), WithJoinStrategy(JoinINL))
	if err := LoadDataset(eng, ds, true); err != nil {
		t.Fatal(err)
	}
	ctx := NewQueryContext(ds)
	conn, err := Connect(eng).Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	type joinQuery struct{ id, sql string }
	var queries []joinQuery
	for _, q := range MicroSuite() {
		if s := q.SQL(ctx, 0); strings.Contains(s, " JOIN ") {
			queries = append(queries, joinQuery{q.ID, s})
		}
	}
	if len(queries) < 8 {
		t.Fatalf("micro suite exposes %d join queries, want at least 8", len(queries))
	}
	for _, q := range ms7Queries {
		queries = append(queries, joinQuery(q))
	}

	// ST_Relate-with-pattern joins (MT15) are not a PBSM-eligible shape:
	// the three-argument predicate stays on the index-nested-loop path
	// even when PBSM is forced.
	relates := 0
	for _, q := range queries {
		if strings.Contains(q.sql, "ST_Relate") {
			relates++
		}
	}

	baseline := make(map[string]string)
	for _, q := range queries {
		rs, err := conn.Query(q.sql)
		if err != nil {
			t.Fatalf("%s serial INL: %v", q.id, err)
		}
		baseline[q.id] = canonRows(rs)
	}
	if st := eng.JoinStats(); st.INL == 0 || st.PBSM != 0 {
		t.Fatalf("forced INL baseline ran INL=%d PBSM=%d joins, want all INL", st.INL, st.PBSM)
	}

	for _, strat := range []JoinStrategy{JoinPBSM, JoinAuto} {
		eng.SetJoinStrategy(strat)
		for _, par := range []int{1, 8} {
			eng.SetParallelism(par)
			eng.ResetJoinStats()
			for _, q := range queries {
				rs, err := conn.Query(q.sql)
				if err != nil {
					t.Fatalf("%s strategy %v parallelism %d: %v", q.id, strat, par, err)
				}
				if got := canonRows(rs); got != baseline[q.id] {
					t.Errorf("%s: strategy %v parallelism %d diverges from serial INL\nwant:\n%s\ngot:\n%s",
						q.id, strat, par, baseline[q.id], got)
				}
			}
			if st := eng.JoinStats(); strat == JoinPBSM &&
				(st.PBSM < int64(len(queries)-relates) || st.INL > int64(relates)) {
				t.Errorf("forced PBSM at parallelism %d ran INL=%d PBSM=%d joins, want %d PBSM (+%d ST_Relate INL)",
					par, st.INL, st.PBSM, len(queries)-relates, relates)
			}
		}
	}
	requireNoPins(t, eng)
}

// rowOwnershipQueries are join shapes whose sinks retain rows: every
// producer hands its sink a borrowed scratch tuple, so a sink that keeps
// a row without copying it would surface as repeated or overwritten
// rows here. Between them they exercise the sort buffer, the projecting
// LIMIT sink, the aggregator's first row per group, the parallel gather
// buffers and a join stage's hoisted-slot cell.
var rowOwnershipQueries = []struct{ id, sql string }{
	{"order by over pbsm",
		"SELECT a.id, w.id, a.name FROM arealm a JOIN areawater w ON ST_Intersects(a.geo, w.geo) ORDER BY w.id DESC, a.id"},
	{"select * limit over pbsm",
		"SELECT * FROM pointlm a JOIN pointlm b ON ST_DWithin(a.geo, b.geo, 50.0) WHERE a.id < b.id LIMIT 40"},
	{"select * order by limit over pbsm",
		"SELECT * FROM pointlm a JOIN pointlm b ON ST_DWithin(a.geo, b.geo, 50.0) WHERE a.id < b.id ORDER BY b.id, a.id LIMIT 40 OFFSET 5"},
	{"group by over join",
		"SELECT w.id, a.id, a.name FROM pointlm a JOIN areawater w ON ST_DWithin(a.geo, w.geo, 100.0) GROUP BY w.id"},
	{"three tables, hoisted slot, order by",
		"SELECT p.id, w.id, l.id, ST_AsText(ST_Centroid(w.geo)) FROM parcels p " +
			"JOIN areawater w ON ST_Intersects(p.geo, w.geo) " +
			"JOIN pointlm l ON ST_DWithin(l.geo, ST_Centroid(w.geo), 300) ORDER BY l.id, w.id, p.id"},
	{"knn over join",
		"SELECT p.id, w.id, ST_Distance(p.geo, w.geo) AS d FROM pointlm p JOIN areawater w " +
			"ON ST_DWithin(p.geo, w.geo, 100.0) ORDER BY ST_Distance(p.geo, w.geo), p.id, w.id LIMIT 10"},
}

// TestRowOwnershipEquivalence runs the retaining-sink join shapes under
// forced index-nested-loop, forced PBSM and the cost-based default, at
// parallelism 1 and 8. The brute-force oracle (refexec) must admit the
// serial result of each strategy, which every parallel run must return
// byte for byte. Every shape returns at least two rows, all distinct: a
// sink that aliased the producer's scratch tuple would return copies of
// one row, which the oracle does not admit.
func TestRowOwnershipEquivalence(t *testing.T) {
	ds := GenerateDataset(ScaleSmall, 1)
	eng := OpenEngine(GaiaDB())
	if err := LoadDataset(eng, ds, true); err != nil {
		t.Fatal(err)
	}
	conn, err := Connect(eng).Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	oracle := oracleConn{conn, eng, t}
	for _, strat := range []JoinStrategy{JoinINL, JoinPBSM, JoinAuto} {
		eng.SetJoinStrategy(strat)
		for _, q := range rowOwnershipQueries {
			eng.SetParallelism(1)
			rs, err := oracle.Query(q.sql)
			if err != nil {
				t.Fatalf("%s serial, strategy %v: %v", q.id, strat, err)
			}
			want := canonRows(rs)
			lines := strings.Split(strings.TrimSuffix(want, "\n"), "\n")
			slices.Sort(lines)
			if distinct := len(slices.Compact(lines)); len(rs.Rows) < 2 || distinct < len(rs.Rows) {
				t.Fatalf("%s serial, strategy %v: %d rows, %d distinct; want at least 2, all distinct",
					q.id, strat, len(rs.Rows), distinct)
			}
			eng.SetParallelism(8)
			rs, err = conn.Query(q.sql)
			if err != nil {
				t.Fatalf("%s strategy %v parallelism 8: %v", q.id, strat, err)
			}
			if got := canonRows(rs); got != want {
				t.Errorf("%s: strategy %v parallelism 8 diverges from the serial run\nwant:\n%s\ngot:\n%s",
					q.id, strat, want, got)
			}
		}
	}
	requireNoPins(t, eng)
}
