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

// TestPBSMAutoKeepsINLWhenSelective: a selective outer (btree seek)
// must stay on the index-nested-loop, as must a small outer side.
func TestPBSMAutoKeepsINLWhenSelective(t *testing.T) {
	e := pbsmFixture(t)
	e.MustExec("CREATE INDEX pidx ON pts (id)")
	res := e.MustExec("EXPLAIN SELECT p.id, a.id FROM pts p JOIN areas a ON ST_Intersects(p.geo, a.geo) WHERE p.id = 7")
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
// delete, or vacuum's physical renumbering — must invalidate it so the
// next run rebuilds and reflects the change. A forced-INL twin engine
// replays the same script and must agree byte-for-byte at every step.
func TestPBSMCacheInvalidation(t *testing.T) {
	const q = "SELECT p.id, a.id FROM pts p JOIN areas a ON ST_Intersects(p.geo, a.geo)"
	pbsm := pbsmFixture(t, WithJoinStrategy(sql.JoinPBSM))
	inl := pbsmFixture(t, WithJoinStrategy(sql.JoinINL))

	check := func(step string) {
		t.Helper()
		got := rowKeys(pbsm.MustExec(q))
		want := rowKeys(inl.MustExec(q))
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: PBSM %d rows diverge from INL %d rows", step, len(got), len(want))
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
	}
	for _, stmt := range script {
		pbsm.MustExec(stmt)
		inl.MustExec(stmt)
		hitsBefore := pbsm.JoinStats().CacheHits
		check(stmt)
		if hits := pbsm.JoinStats().CacheHits; hits != hitsBefore {
			t.Fatalf("after %q the stale sweep state was served from cache", stmt)
		}
		// Unmutated rerun right after the rebuild hits again.
		hitsBefore = pbsm.JoinStats().CacheHits
		check(stmt + " (rerun)")
		if hits := pbsm.JoinStats().CacheHits; hits != hitsBefore+1 {
			t.Fatalf("rerun after %q missed the cache (%d -> %d hits)", stmt, hitsBefore, hits)
		}
	}
}
