package engine

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"jackpine/internal/sql"
)

// pbsmFixture loads a join-heavy pair of tables: a 20×20 point grid
// (400 rows, the outer side) and a 10×10 grid of 4×4 squares (100
// rows, the indexed inner side) over the same extent, so the auto
// strategy's outer-cardinality floor (256) is crossed.
func pbsmFixture(t *testing.T, opts ...Option) *Engine {
	t.Helper()
	e := Open(GaiaDB(), opts...)
	e.MustExec("CREATE TABLE pts (id INTEGER, geo GEOMETRY)")
	e.MustExec("CREATE TABLE areas (id INTEGER, geo GEOMETRY)")
	var sb strings.Builder
	sb.WriteString("INSERT INTO pts VALUES ")
	for y := 0; y < 20; y++ {
		for x := 0; x < 20; x++ {
			if x+y > 0 {
				sb.WriteString(", ")
			}
			id := y*20 + x
			fmt.Fprintf(&sb, "(%d, ST_GeomFromText('POINT (%g %g)'))", id, float64(x)*2.5, float64(y)*2.5)
		}
	}
	e.MustExec(sb.String())
	sb.Reset()
	sb.WriteString("INSERT INTO areas VALUES ")
	for y := 0; y < 10; y++ {
		for x := 0; x < 10; x++ {
			if x+y > 0 {
				sb.WriteString(", ")
			}
			id := y*10 + x
			x0, y0 := float64(x)*5, float64(y)*5
			fmt.Fprintf(&sb, "(%d, ST_GeomFromText('POLYGON ((%g %g, %g %g, %g %g, %g %g, %g %g))'))",
				id, x0, y0, x0+4, y0, x0+4, y0+4, x0, y0+4, x0, y0)
		}
	}
	e.MustExec(sb.String())
	e.MustExec("CREATE SPATIAL INDEX aidx ON areas (geo)")
	return e
}

// rowKeys canonicalizes a result into a sorted multiset of row strings
// (the established comparison for queries without ORDER BY, whose
// emission order is strategy-dependent).
func rowKeys(res *sql.Result) []string {
	keys := make([]string, 0, len(res.Rows))
	for _, row := range res.Rows {
		var sb strings.Builder
		for i, v := range row {
			if i > 0 {
				sb.WriteByte('|')
			}
			sb.WriteString(v.String())
		}
		keys = append(keys, sb.String())
	}
	sort.Strings(keys)
	return keys
}

// TestPBSMEquivalence drives the same spatial joins through forced INL,
// forced PBSM and auto, serial and parallel, and requires identical
// sorted multisets everywhere — plus counter proof that each forced
// strategy actually ran.
func TestPBSMEquivalence(t *testing.T) {
	queries := []string{
		"SELECT p.id, a.id FROM pts p JOIN areas a ON ST_Intersects(p.geo, a.geo)",
		"SELECT p.id, a.id FROM pts p JOIN areas a ON ST_Contains(a.geo, p.geo)",
		"SELECT COUNT(*) FROM pts p JOIN areas a ON ST_Intersects(a.geo, p.geo)",
		"SELECT p.id, a.id FROM pts p JOIN areas a ON ST_DWithin(p.geo, a.geo, 1.25)",
		"SELECT p.id, a.id FROM pts p JOIN areas a ON ST_Intersects(p.geo, a.geo) WHERE a.id < 42 AND p.id > 10",
	}
	for qi, q := range queries {
		var want []string
		for _, strat := range []sql.JoinStrategy{sql.JoinINL, sql.JoinPBSM, sql.JoinAuto} {
			for _, par := range []int{1, 8} {
				e := pbsmFixture(t, WithJoinStrategy(strat), WithParallelism(par))
				res := e.MustExec(q)
				got := rowKeys(res)
				if want == nil {
					want = got
					if len(want) == 0 {
						t.Fatalf("q%d produced no rows", qi)
					}
					continue
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("q%d strat=%v par=%d: %d rows diverge from INL baseline (%d rows)",
						qi, strat, par, len(got), len(want))
				}
				st := e.JoinStats()
				switch strat {
				case sql.JoinINL:
					if st.INL == 0 || st.PBSM != 0 {
						t.Errorf("q%d forced INL ran wrong strategy: %+v", qi, st)
					}
				case sql.JoinPBSM:
					if st.PBSM == 0 || st.INL != 0 {
						t.Errorf("q%d forced PBSM ran wrong strategy: %+v", qi, st)
					}
				}
			}
		}
	}
}

// TestPBSMAutoChoosesSweep: with 400 unselective outer probes the cost
// model must pick PBSM, and EXPLAIN must surface the grid shape.
func TestPBSMAutoChoosesSweep(t *testing.T) {
	e := pbsmFixture(t)
	res := e.MustExec("EXPLAIN SELECT COUNT(*) FROM pts p JOIN areas a ON ST_Intersects(p.geo, a.geo)")
	label := res.Rows[1][1].Text
	if !strings.HasPrefix(label, "pbsm(cells=") {
		t.Fatalf("auto join label = %q, want pbsm(cells=NxM)", label)
	}
	// EXPLAIN must not execute the join (or touch the counters).
	if st := e.JoinStats(); st.PBSM != 0 || st.INL != 0 {
		t.Errorf("EXPLAIN bumped join counters: %+v", st)
	}
	res = e.MustExec("SELECT COUNT(*) FROM pts p JOIN areas a ON ST_Intersects(p.geo, a.geo)")
	if res.Rows[0][0].Int == 0 {
		t.Fatal("join counted zero pairs")
	}
	st := e.JoinStats()
	if st.PBSM != 1 || st.Cells == 0 {
		t.Errorf("join stats = %+v, want one PBSM join with cells > 0", st)
	}
	e.ResetJoinStats()
	if st := e.JoinStats(); st != (sql.JoinStats{}) {
		t.Errorf("reset left %+v", st)
	}
}

// TestPBSMAutoKeepsINLWhenSelective: a selective outer (btree seek, or
// a `column = constant` filter on a full scan) must stay on the
// index-nested-loop, as must a small outer side.
func TestPBSMAutoKeepsINLWhenSelective(t *testing.T) {
	e := pbsmFixture(t)
	q := "SELECT p.id, a.id FROM pts p JOIN areas a ON ST_Intersects(p.geo, a.geo) WHERE p.id = 7"
	res := e.MustExec("EXPLAIN " + q)
	if got := res.Rows[0][1].Text; !strings.Contains(got, "seqscan") {
		t.Errorf("unindexed outer access = %q, want seqscan", got)
	}
	if got := res.Rows[1][1].Text; got != "inl(index=geo)" {
		t.Errorf("filtered full-scan join label = %q, want inl(index=geo)", got)
	}
	// The range filter keeps most rows: PBSM still pays.
	res = e.MustExec("EXPLAIN SELECT p.id, a.id FROM pts p JOIN areas a ON ST_Intersects(p.geo, a.geo) WHERE p.id > 7")
	if got := res.Rows[1][1].Text; !strings.HasPrefix(got, "pbsm(") {
		t.Errorf("range-filtered join label = %q, want pbsm", got)
	}
	e.MustExec("CREATE INDEX pidx ON pts (id)")
	res = e.MustExec("EXPLAIN " + q)
	if got := res.Rows[1][1].Text; got != "inl(index=geo)" {
		t.Errorf("selective join label = %q, want inl(index=geo)", got)
	}

	// Small outer: under the 256-row floor.
	e2 := Open(GaiaDB())
	e2.MustExec("CREATE TABLE a (id INTEGER, geo GEOMETRY)")
	e2.MustExec("CREATE TABLE b (id INTEGER, geo GEOMETRY)")
	e2.MustExec("INSERT INTO a VALUES (1, ST_GeomFromText('POINT (1 1)'))")
	e2.MustExec("INSERT INTO b VALUES (1, ST_GeomFromText('POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))'))")
	e2.MustExec("CREATE SPATIAL INDEX bidx ON b (geo)")
	res = e2.MustExec("EXPLAIN SELECT a.id FROM a JOIN b ON ST_Intersects(a.geo, b.geo)")
	if got := res.Rows[1][1].Text; got != "inl(index=geo)" {
		t.Errorf("small join label = %q, want inl(index=geo)", got)
	}
}

// TestPBSMUnindexedInner: with no inner spatial index the alternative
// to PBSM is a quadratic rescan, so auto flips to the sweep early and
// results still match the rescan exactly.
func TestPBSMUnindexedInner(t *testing.T) {
	build := func(strat sql.JoinStrategy) *Engine {
		e := Open(GaiaDB(), WithJoinStrategy(strat))
		e.MustExec("CREATE TABLE pa (id INTEGER, geo GEOMETRY)")
		e.MustExec("CREATE TABLE pb (id INTEGER, geo GEOMETRY)")
		for _, tbl := range []string{"pa", "pb"} {
			var sb strings.Builder
			fmt.Fprintf(&sb, "INSERT INTO %s VALUES ", tbl)
			for i := 0; i < 48; i++ {
				if i > 0 {
					sb.WriteString(", ")
				}
				off := 0.0
				if tbl == "pb" {
					off = 0.5
				}
				fmt.Fprintf(&sb, "(%d, ST_GeomFromText('POLYGON ((%g %g, %g %g, %g %g, %g %g, %g %g))'))",
					i, float64(i)+off, 0.0, float64(i)+off+1, 0.0, float64(i)+off+1, 1.0, float64(i)+off, 1.0, float64(i)+off, 0.0)
			}
			e.MustExec(sb.String())
		}
		return e
	}
	q := "SELECT x.id, y.id FROM pa x JOIN pb y ON ST_Intersects(x.geo, y.geo)"
	eINL := build(sql.JoinINL)
	eAuto := build(sql.JoinAuto)
	want := rowKeys(eINL.MustExec(q))
	got := rowKeys(eAuto.MustExec(q))
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("unindexed PBSM diverges: %d vs %d rows", len(got), len(want))
	}
	if st := eAuto.JoinStats(); st.PBSM == 0 {
		t.Errorf("auto did not choose PBSM for unindexed inner: %+v", st)
	}
}

// TestGeomStatsMaintained checks the planner stats block: incremental
// on insert, conservative on delete, recomputed after vacuum.
func TestGeomStatsMaintained(t *testing.T) {
	e := newTestEngine(t)
	loadGrid(t, e, 10)
	st, ok := e.Table("landmarks")
	if !ok {
		t.Fatal("landmarks missing")
	}
	gs, ok := st.GeomStatsOn("geo")
	if !ok || gs.Rows != 100 {
		t.Fatalf("stats = %+v ok=%v, want 100 rows", gs, ok)
	}
	// 1×1 cells: mean area 1, extent [0,19]×[0,19].
	if gs.MeanArea < 0.99 || gs.MeanArea > 1.01 {
		t.Errorf("mean area = %v, want ~1", gs.MeanArea)
	}
	if gs.MBR.MinX != 0 || gs.MBR.MaxX != 19 {
		t.Errorf("mbr = %+v", gs.MBR)
	}
	e.MustExec("DELETE FROM landmarks WHERE id < 50")
	gs, _ = st.GeomStatsOn("geo")
	if gs.Rows != 50 {
		t.Errorf("after delete rows = %d, want 50", gs.Rows)
	}
	if gs.MBR.MaxX != 19 {
		t.Errorf("delete shrank the MBR: %+v (must stay conservative)", gs.MBR)
	}
	e.MustExec("VACUUM landmarks")
	gs, ok = st.GeomStatsOn("geo")
	if !ok || gs.Rows != 50 {
		t.Errorf("after vacuum stats = %+v ok=%v, want 50 rows", gs, ok)
	}
	if _, ok := st.GeomStatsOn("name"); ok {
		t.Error("stats reported for non-geometry column")
	}
}

// TestPBSMCacheInvalidation exercises the cross-statement sweep-state
// cache: repeated executions of the same join must be served from the
// cache (CacheHits advances), and any mutation of either side — insert,
// delete, vacuum's physical renumbering, an update that moves an outer
// point into another grid cell, an update of a projected non-geometry
// outer column (the state holds the outer rows) — must invalidate it so
// the next run rebuilds and reflects the change. A forced-INL twin
// engine replays the same script and must agree at every step, serial
// and parallel.
func TestPBSMCacheInvalidation(t *testing.T) {
	const q = "SELECT p.id, a.id FROM pts p JOIN areas a ON ST_Intersects(p.geo, a.geo)"
	for _, par := range []int{1, 4} {
		pbsm := pbsmFixture(t, WithJoinStrategy(sql.JoinPBSM), WithParallelism(par))
		inl := pbsmFixture(t, WithJoinStrategy(sql.JoinINL), WithParallelism(par))

		check := func(step string) {
			t.Helper()
			got := rowKeys(pbsm.MustExec(q))
			want := rowKeys(inl.MustExec(q))
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("parallelism %d, %s: PBSM %d rows diverge from INL %d rows", par, step, len(got), len(want))
			}
		}

		check("initial build")
		if hits := pbsm.JoinStats().CacheHits; hits != 0 {
			t.Fatalf("first execution hit the cache (%d hits), nothing was cached yet", hits)
		}
		check("cached rerun")
		if hits := pbsm.JoinStats().CacheHits; hits != 1 {
			t.Fatalf("second execution reported %d cache hits, want 1", hits)
		}

		// Inner-side insert: a new area beyond the old extent must appear.
		script := []string{
			"INSERT INTO areas VALUES (100, ST_GeomFromText('POLYGON ((50 50, 54 50, 54 54, 50 54, 50 50))'))",
			"INSERT INTO pts VALUES (400, ST_GeomFromText('POINT (52 52)'))",
			"DELETE FROM areas WHERE id = 0",
			"DELETE FROM pts WHERE id < 20",
			"VACUUM pts",
			// Point 22 sits on area 1's edge at (5, 2.5); it moves into
			// area 86, across the grid.
			"UPDATE pts SET geo = ST_GeomFromText('POINT (31 41)') WHERE id = 22",
			"UPDATE pts SET id = id + 1000 WHERE id = 23",
		}
		for _, stmt := range script {
			pbsm.MustExec(stmt)
			inl.MustExec(stmt)
			hitsBefore := pbsm.JoinStats().CacheHits
			check(stmt)
			if hits := pbsm.JoinStats().CacheHits; hits != hitsBefore {
				t.Fatalf("parallelism %d: after %q the stale sweep state was served from cache", par, stmt)
			}
			// Unmutated rerun right after the rebuild hits again.
			hitsBefore = pbsm.JoinStats().CacheHits
			check(stmt + " (rerun)")
			if hits := pbsm.JoinStats().CacheHits; hits != hitsBefore+1 {
				t.Fatalf("parallelism %d: rerun after %q missed the cache (%d -> %d hits)", par, stmt, hitsBefore, hits)
			}
		}
	}
}

// outerSourceFixture loads a 420-row outer table whose rows carry a
// NULL geometry (every seventh) or an empty one (every eleventh) between
// points of a grid, so positions in the join state's outer arrays and
// heap row ids diverge, against pbsmFixture's areas.
func outerSourceFixture(t *testing.T, opts ...Option) *Engine {
	t.Helper()
	e := pbsmFixture(t, opts...)
	e.MustExec("CREATE TABLE op (id INTEGER, tag INTEGER, geo GEOMETRY)")
	var vals []string
	for k := 0; k < 420; k++ {
		g := fmt.Sprintf("ST_GeomFromText('POINT (%g %g)')", float64(k%21)*2.4, float64(k/21)*2.4)
		switch {
		case k%7 == 3:
			g = "NULL"
		case k%11 == 5:
			g = "ST_GeomFromText('POINT EMPTY')"
		}
		vals = append(vals, fmt.Sprintf("(%d, %d, %s)", k, k%4, g))
	}
	e.MustExec("INSERT INTO op VALUES " + strings.Join(vals, ", "))
	return e
}

// TestPBSMOuterSourceEquivalence: a PBSM join over a batched full scan
// of its outer table with no stage-0 filter reads the outer rows from
// the join state, built on the cold run and cached for the warm one, so
// no run scans the outer heap in batches; with a stage-0 filter, or
// under a bare LIMIT, which stops early, the scan streams in batches and
// decodes only survivors. With NULL and empty outer geometries,
// aggregates, stage-1 filters, both refine kernels and LIMIT, every run
// at parallelism 1, 2 and 4 must return the serial cold run's rows in
// its order, and the rows JoinINL returns as a multiset (a bare LIMIT,
// whose rows depend on emission order, returns the first rows of the
// unlimited join instead).
func TestPBSMOuterSourceEquivalence(t *testing.T) {
	const join = "FROM op p JOIN areas a ON "
	queries := []struct {
		q, inlQ string
		batched bool // stage 0 scans the outer heap in batches
	}{
		{q: "SELECT p.id, p.tag, a.id " + join + "ST_Intersects(p.geo, a.geo)"},
		{q: "SELECT COUNT(*), SUM(p.id), MAX(a.id) " + join + "ST_DWithin(p.geo, a.geo, 1.25) WHERE p.tag < a.id"},
		{q: "SELECT a.id, p.id " + join + "ST_Contains(a.geo, p.geo) ORDER BY p.id DESC, a.id LIMIT 30"},
		{q: "SELECT p.id, p.tag, a.id " + join + "ST_Intersects(p.geo, a.geo) WHERE p.id % 4 <> 2", batched: true},
		{
			q:       "SELECT p.id, a.id " + join + "ST_DWithin(p.geo, a.geo, 1.25) WHERE p.id % 4 <> 0 LIMIT 40",
			inlQ:    "SELECT p.id, a.id " + join + "ST_DWithin(p.geo, a.geo, 1.25) WHERE p.id % 4 <> 0",
			batched: true,
		},
		{
			q:       "SELECT p.id, a.id " + join + "ST_Intersects(p.geo, a.geo) LIMIT 40",
			inlQ:    "SELECT p.id, a.id " + join + "ST_Intersects(p.geo, a.geo)",
			batched: true,
		},
	}
	inl := outerSourceFixture(t, WithJoinStrategy(sql.JoinINL))
	for qi, c := range queries {
		var want *sql.Result
		for _, par := range []int{1, 2, 4} {
			e := outerSourceFixture(t, WithJoinStrategy(sql.JoinPBSM), WithParallelism(par))
			for _, run := range []string{"cold", "warm"} {
				cfg := fmt.Sprintf("q%d parallelism %d %s", qi, par, run)
				hits := e.JoinStats().CacheHits
				e.ResetBatchStats()
				res := e.MustExec(c.q)
				if got := e.JoinStats().CacheHits - hits; got != map[string]int64{"cold": 0, "warm": 1}[run] {
					t.Fatalf("%s: %d state cache hits", cfg, got)
				}
				if batches, _ := e.BatchStats(); (batches > 0) != c.batched {
					t.Fatalf("%s: stage 0 scanned the outer heap in %d batches, want batched=%v", cfg, batches, c.batched)
				}
				if !strings.HasPrefix(res.Access[0], "p:") || !strings.Contains(res.Access[0], "seqscan") ||
					!strings.HasPrefix(res.Access[1], "a:pbsm(") {
					t.Fatalf("%s: access %v, want a seqscan of p under a PBSM join", cfg, res.Access)
				}
				if want == nil {
					want = res
					if len(res.Rows) == 0 {
						t.Fatalf("%s: no rows", cfg)
					}
					continue
				}
				if fmt.Sprint(res.Rows) != fmt.Sprint(want.Rows) {
					t.Errorf("%s: rows differ from the serial cold run\nwant %v\ngot  %v", cfg, want.Rows, res.Rows)
				}
			}
		}
		if c.inlQ == "" {
			if got, ref := rowKeys(want), rowKeys(inl.MustExec(c.q)); fmt.Sprint(got) != fmt.Sprint(ref) {
				t.Errorf("q%d: %d PBSM rows diverge from %d JoinINL rows", qi, len(got), len(ref))
			}
			continue
		}
		// A bare LIMIT keeps the first rows the join emits.
		e := outerSourceFixture(t, WithJoinStrategy(sql.JoinPBSM), WithParallelism(1))
		all := e.MustExec(c.inlQ)
		if n := len(want.Rows); n != 40 || fmt.Sprint(want.Rows) != fmt.Sprint(all.Rows[:n]) {
			t.Errorf("q%d: LIMIT rows %v are not the first 40 of the unlimited join", qi, want.Rows)
		}
		if got, ref := rowKeys(all), rowKeys(inl.MustExec(c.inlQ)); fmt.Sprint(got) != fmt.Sprint(ref) {
			t.Errorf("q%d: %d unlimited PBSM rows diverge from %d JoinINL rows", qi, len(got), len(ref))
		}
	}
}

// TestHoleOutsideShellFound: a polygon whose hole lies outside its
// shell is within distance 1 of (105, 99) through the hole, so every
// access path must find it: a seqscan (whose MBR prefilter reads the
// stored envelope), a spatial index, and a PBSM join with the polygon
// on either side. Envelopes cover every ring.
func TestHoleOutsideShellFound(t *testing.T) {
	const poly = "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (100 100, 110 100, 110 110, 100 110, 100 100))"
	e := Open(GaiaDB(), WithJoinStrategy(sql.JoinPBSM))
	e.MustExec("CREATE TABLE h (id INTEGER, g GEOMETRY)")
	e.MustExec("CREATE TABLE q (id INTEGER, g GEOMETRY)")
	e.MustExec("INSERT INTO h VALUES (1, ST_GeomFromText('" + poly + "'))")
	e.MustExec("INSERT INTO q VALUES (7, ST_MakePoint(105, 99))")
	expect := func(query, access string, want int64) {
		t.Helper()
		res := e.MustExec(query)
		if !strings.Contains(strings.Join(res.Access, " "), access) {
			t.Fatalf("%s: access %v, want %s", query, res.Access, access)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].Int != want {
			t.Errorf("%s via %s: rows %v, want [[%d]]", query, access, res.Rows, want)
		}
	}
	const where = "SELECT id FROM h WHERE ST_DWithin(g, ST_MakePoint(105, 99), 2)"
	expect(where, "h:seqscan", 1)
	expect("SELECT h.id FROM q JOIN h ON ST_DWithin(h.g, q.g, 2)", "h:pbsm(", 1)
	expect("SELECT q.id FROM h JOIN q ON ST_DWithin(q.g, h.g, 2)", "q:pbsm(", 7)
	e.MustExec("CREATE SPATIAL INDEX hg ON h (g)")
	expect(where, "h:spatial-index", 1)
}
