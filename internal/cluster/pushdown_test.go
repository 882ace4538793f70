package cluster_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"jackpine/internal/driver"
	"jackpine/internal/engine"
)

// loadJoinFixture fills the router fixture with a join-heavy pair of
// tables whose geometries deliberately straddle the 4-shard grid's
// cell boundaries (x=50, y=50 over the 100×100 extent), so both halves
// of the pushdown decomposition — same-shard pairs and cross-shard
// boundary pairs — carry weight.
func loadJoinFixture(t *testing.T, f *routerFixture) {
	t.Helper()
	f.exec(t, "CREATE TABLE jpts (id INTEGER, loc GEOMETRY)")
	f.exec(t, "CREATE TABLE jareas (id INTEGER, shape GEOMETRY)")
	var sb strings.Builder
	sb.WriteString("INSERT INTO jpts VALUES ")
	for i := 0; i < 144; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		x := float64(i%12)*8 + 2.5 // 2.5, 10.5, ... crosses x=50
		y := float64(i/12)*8 + 1.5
		fmt.Fprintf(&sb, "(%d, ST_MakePoint(%g, %g))", i, x, y)
	}
	sb.WriteString(", (999, NULL)")
	f.exec(t, sb.String())
	sb.Reset()
	sb.WriteString("INSERT INTO jareas VALUES ")
	for i := 0; i < 36; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		x0 := float64(i%6) * 16
		y0 := float64(i/6) * 16
		// 12×12 squares on a 16 pitch: several straddle a cell border.
		fmt.Fprintf(&sb, "(%d, ST_GeomFromText('POLYGON ((%g %g, %g %g, %g %g, %g %g, %g %g))'))",
			i, x0, y0, x0+12, y0, x0+12, y0+12, x0, y0+12, x0, y0)
	}
	f.exec(t, sb.String())
	f.exec(t, "CREATE SPATIAL INDEX jareas_sidx ON jareas (shape)")
	f.cl.ResetShardStats()
}

// TestJoinPushdownEquivalence: co-partitioned aggregate spatial joins
// must run shard-local — zero gather-engine builds — and match the
// single engine exactly, cross-shard boundary pairs included. The
// pushdown binds the statement as the engine does, so a join qualified
// by table name, not at all, or with its operands swapped, a spatial
// conjunct in WHERE, and a distance given as an expression push down
// too.
func TestJoinPushdownEquivalence(t *testing.T) {
	f := newRouterFixture(t)
	loadJoinFixture(t, f)
	queries := []string{
		"SELECT COUNT(*) FROM jpts p JOIN jareas a ON ST_Intersects(p.loc, a.shape)",
		"SELECT COUNT(*), SUM(p.id), MIN(a.id), MAX(p.id) FROM jpts p JOIN jareas a ON ST_Contains(a.shape, p.loc)",
		"SELECT COUNT(*) FROM jpts p JOIN jareas a ON ST_DWithin(p.loc, a.shape, 3.0)",
		"SELECT COUNT(*), AVG(p.id) FROM jpts p JOIN jareas a ON ST_Intersects(p.loc, a.shape) WHERE a.id < 30",
		"SELECT COUNT(*) FROM jpts a JOIN jpts b ON ST_DWithin(a.loc, b.loc, 4.0) WHERE a.id < b.id",
		"SELECT COUNT(*) FROM jpts p JOIN jareas a ON ST_Intersects(loc, shape)",
		"SELECT COUNT(*), SUM(jpts.id) FROM jpts JOIN jareas ON ST_Intersects(jpts.loc, jareas.shape)",
		"SELECT COUNT(*) FROM jpts p JOIN jareas a ON ST_Intersects(a.shape, p.loc)",
		"SELECT COUNT(*) FROM jpts p JOIN jareas a ON a.id < 30 WHERE ST_Intersects(p.loc, a.shape)",
		"SELECT COUNT(*) FROM jpts p JOIN jareas a ON ST_DWithin(p.loc, a.shape, 2 + 3)",
		"SELECT COUNT(*) + 1 FROM jpts p JOIN jareas a ON ST_Intersects(p.loc, a.shape)",
	}
	for _, q := range queries {
		f.cl.ResetShardStats()
		compareQuery(t, q, q, f.single, f.cluster)
		if ss := f.cl.ShardStats(); ss.JoinPushdowns != 1 || ss.GatherBuilds != 0 {
			t.Errorf("%s: JoinPushdowns = %d, GatherBuilds = %d, want a shard-local join and no gather engine",
				q, ss.JoinPushdowns, ss.GatherBuilds)
		}
	}
}

// TestJoinPushdownRandomOracle: on seeded random points and boxes —
// snapped to a half-unit lattice so distances tie exactly with d and
// features sit on cell edges, some outside the extent and clamped to
// border cells, some NULL — every pushed-down aggregate join must
// match a single engine on 1×2, 2×2 and 2×3 grids, at distances from
// well inside a cell to more than half a cell.
func TestJoinPushdownRandomOracle(t *testing.T) {
	for _, n := range []int{2, 4, 6} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			shards := make([]driver.Connector, n)
			for i := range shards {
				shards[i] = driver.NewInProc(engine.Open(engine.GaiaDB()))
			}
			f := newRouterFixtureOver(t, shards)
			rng := rand.New(rand.NewSource(int64(n)))
			coord := func() float64 { return float64(rng.Intn(261))/2 - 15 } // [-15, 115]
			f.exec(t, "CREATE TABLE rpts (id INTEGER, loc GEOMETRY)")
			f.exec(t, "CREATE TABLE rboxes (id INTEGER, shape GEOMETRY)")
			var sb strings.Builder
			sb.WriteString("INSERT INTO rpts VALUES (0, NULL)")
			for i := 1; i <= 160; i++ {
				fmt.Fprintf(&sb, ", (%d, ST_MakePoint(%g, %g))", i, coord(), coord())
			}
			f.exec(t, sb.String())
			sb.Reset()
			sb.WriteString("INSERT INTO rboxes VALUES (0, NULL)")
			for i := 1; i <= 50; i++ {
				x, y := coord(), coord()
				w, h := float64(rng.Intn(41))/2, float64(rng.Intn(41))/2
				fmt.Fprintf(&sb, ", (%d, ST_MakeEnvelope(%g, %g, %g, %g))", i, x, y, x+w+0.5, y+h+0.5)
			}
			f.exec(t, sb.String())
			f.exec(t, "CREATE SPATIAL INDEX rboxes_sidx ON rboxes (shape)")
			f.cl.ResetShardStats()

			queries := []string{
				"SELECT COUNT(*), SUM(p.id), MIN(b.id), MAX(b.id) FROM rpts p JOIN rboxes b ON ST_Intersects(p.loc, b.shape)",
				"SELECT COUNT(*), SUM(b.id), MIN(p.id), MAX(p.id) FROM rpts p JOIN rboxes b ON ST_Contains(b.shape, p.loc)",
				"SELECT COUNT(*), SUM(a.id), MIN(b.id) FROM rboxes a JOIN rboxes b ON ST_Intersects(a.shape, b.shape) WHERE a.id <> b.id",
			}
			for _, d := range []float64{0.5, 3, 12, 30} {
				queries = append(queries,
					fmt.Sprintf("SELECT COUNT(*), SUM(p.id), MIN(b.id), MAX(p.id) FROM rpts p JOIN rboxes b ON ST_DWithin(p.loc, b.shape, %g)", d),
					fmt.Sprintf("SELECT COUNT(*), SUM(a.id), MAX(b.id) FROM rpts a JOIN rpts b ON ST_DWithin(a.loc, b.loc, %g) WHERE a.id < b.id", d))
			}
			for _, q := range queries {
				compareQuery(t, q, q, f.single, f.cluster)
			}
			ss := f.cl.ShardStats()
			if ss.JoinPushdowns != len(queries) {
				t.Errorf("JoinPushdowns = %d, want %d", ss.JoinPushdowns, len(queries))
			}
			if ss.GatherBuilds != 0 {
				t.Errorf("GatherBuilds = %d, want 0", ss.GatherBuilds)
			}
		})
	}
}

// TestJoinPushdownEdgeOverhang: one box whose centre lies in one cell
// of the 2×2 grid overhangs (or touches) an internal edge onto a point
// in the neighbouring cell, and nothing else spills. Dense data hides
// a missing edge test behind the bounding-box bands; this pair is
// found only if the box's own spill test covers that edge.
func TestJoinPushdownEdgeOverhang(t *testing.T) {
	f := newRouterFixture(t)
	f.exec(t, "CREATE TABLE ovp (id INTEGER, loc GEOMETRY)")
	f.exec(t, "CREATE TABLE ovb (id INTEGER, shape GEOMETRY)")
	cases := []struct{ name, box, point string }{
		{"east cell over its west edge", "44, 20, 60, 30", "46, 25"},
		{"west cell over its east edge", "40, 20, 56, 30", "54, 25"},
		{"north cell over its south edge", "20, 44, 30, 60", "25, 46"},
		{"south cell over its north edge", "20, 40, 30, 56", "25, 54"},
		// d = 0: only ε makes either side of an exact touch spill.
		{"touching on the edge", "20, 40, 30, 50", "25, 50"},
	}
	q := "SELECT COUNT(*), SUM(p.id) FROM ovp p JOIN ovb b ON ST_Intersects(p.loc, b.shape)"
	for _, c := range cases {
		f.exec(t, "DELETE FROM ovp")
		f.exec(t, "DELETE FROM ovb")
		f.exec(t, "INSERT INTO ovp VALUES (1, ST_MakePoint("+c.point+"))")
		f.exec(t, "INSERT INTO ovb VALUES (1, ST_MakeEnvelope("+c.box+"))")
		compareQuery(t, c.name, q, f.single, f.cluster)
	}
	if ss := f.cl.ShardStats(); ss.JoinPushdowns != len(cases) {
		t.Errorf("JoinPushdowns = %d, want %d", ss.JoinPushdowns, len(cases))
	}
}

// TestJoinPushdownIneligible: joins the decomposition cannot express —
// row-returning projections, an aggregate whose result depends on
// input order, or no spatial conjunct bounding the distance between
// the two partitioning geometry columns — must keep the gather path
// and stay correct there.
func TestJoinPushdownIneligible(t *testing.T) {
	f := newRouterFixture(t)
	loadJoinFixture(t, f)
	queries := []string{
		// Row-returning projection: not an aggregate shape.
		"SELECT p.id, a.id FROM jpts p JOIN jareas a ON ST_Intersects(p.loc, a.shape)",
		// Attribute equi-join: cross-shard pairs are unbounded, the
		// complement would be the whole table.
		"SELECT COUNT(*) FROM jpts p JOIN jareas a ON p.id = a.id",
		// Infinite distance: no margin bounds cross-shard pairs, and the
		// gather path must not turn it into a semijoin window.
		"SELECT COUNT(*) FROM jpts p JOIN jareas a ON ST_DWithin(p.loc, a.shape, 1e308 * 10)",
		// Negative distance: no pair joins, and no margin is defined.
		"SELECT COUNT(*) FROM jpts p JOIN jareas a ON ST_DWithin(p.loc, a.shape, -1)",
		// The predicate does not link the partitioning columns themselves.
		"SELECT COUNT(*) FROM jpts p JOIN jareas a ON ST_Intersects(ST_Buffer(p.loc, 1), a.shape)",
		// ST_UNION's result depends on the order of its input.
		"SELECT ST_Union(p.loc) FROM jpts p JOIN jareas a ON ST_Intersects(p.loc, a.shape)",
	}
	for _, q := range queries {
		f.cl.ResetShardStats()
		compareQuery(t, q, q, f.single, f.cluster)
		if ss := f.cl.ShardStats(); ss.JoinPushdowns != 0 || ss.GatherBuilds != 1 {
			t.Errorf("%s: JoinPushdowns = %d, GatherBuilds = %d, want the gather engine",
				q, ss.JoinPushdowns, ss.GatherBuilds)
		}
	}
}

// TestRouterJoinBindError: a join that does not bind fails through the
// router with the single engine's error, raised before any shard is
// asked or any gather engine built.
func TestRouterJoinBindError(t *testing.T) {
	f := newRouterFixture(t)
	loadJoinFixture(t, f)
	for _, q := range []string{
		"SELECT id FROM jpts p JOIN jareas a ON ST_Intersects(p.loc, a.shape)",
		"SELECT COUNT(*) FROM jpts p JOIN jareas a ON ST_Intersects(p.loc, a.shape) WHERE p.nope = 1",
		"SELECT SUM(COUNT(*)) FROM jpts p JOIN jareas a ON ST_Intersects(p.loc, a.shape)",
		"SELECT COUNT(p.id, a.id) FROM jpts p JOIN jareas a ON ST_Intersects(p.loc, a.shape)",
		"SELECT COUNT(*) FROM jpts p JOIN jareas a ON ST_Nope(p.loc, a.shape)",
	} {
		f.cl.ResetShardStats()
		_, werr := f.single.Query(q)
		_, gerr := f.cluster.Query(q)
		if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
			t.Errorf("%s: single err %v, cluster err %v, want one error", q, werr, gerr)
		}
		if ss := f.cl.ShardStats(); ss.ShardQueries != 0 || ss.GatherBuilds != 0 {
			t.Errorf("%s: ShardQueries = %d, GatherBuilds = %d, want none", q, ss.ShardQueries, ss.GatherBuilds)
		}
	}
}

// TestGatherPerStatement: every gather builds a fresh transient engine
// from the current catalog and shard data, so repeats, a gather after
// DML and a gather over a table dropped and re-created with other
// columns all match the single engine, and GatherBuilds counts each
// gather.
func TestGatherPerStatement(t *testing.T) {
	f := newRouterFixture(t)
	loadJoinFixture(t, f)
	gathers := 0
	gather := func(label, q string) {
		t.Helper()
		compareQuery(t, label, q, f.single, f.cluster)
		gathers++
	}
	q := "SELECT p.id, a.id FROM jpts p JOIN jareas a ON ST_Intersects(p.loc, a.shape)"
	for i := 1; i <= 3; i++ {
		gather(fmt.Sprintf("gather run %d", i), q)
	}

	f.exec(t, "INSERT INTO jpts VALUES (500, ST_MakePoint(3, 3))")
	gather("gather after insert", q)

	f.exec(t, "DROP TABLE jareas")
	f.exec(t, "CREATE TABLE jareas (name TEXT, shape GEOMETRY, id INTEGER)")
	f.exec(t, `INSERT INTO jareas VALUES
		('west', ST_MakeEnvelope(0, 0, 40, 60), 1),
		('east', ST_MakeEnvelope(45, 10, 95, 90), 2)`)
	gather("gather after re-create", "SELECT p.id, a.name, a.id FROM jpts p JOIN jareas a ON ST_Intersects(p.loc, a.shape)")

	ss := f.cl.ShardStats()
	if ss.GatherBuilds != gathers {
		t.Errorf("GatherBuilds = %d after %d gathers, want one engine per gather", ss.GatherBuilds, gathers)
	}
	if ss.JoinPushdowns != 0 || ss.FastPathHits != 0 {
		t.Errorf("every statement should have gathered: %+v", ss)
	}
}

// TestGatherConcurrentSessions: cluster sessions gathering over the
// same table set at once each build their own engine and all match the
// single engine (run under -race).
func TestGatherConcurrentSessions(t *testing.T) {
	const sessions, perSession = 4, 25
	f := newRouterFixture(t)
	loadJoinFixture(t, f)
	queries := []string{
		"SELECT p.id, a.id FROM jpts p JOIN jareas a ON ST_Intersects(p.loc, a.shape)",
		"SELECT a.id, COUNT(*) FROM jpts p JOIN jareas a ON ST_DWithin(p.loc, a.shape, 3) GROUP BY a.id",
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		rs, err := f.single.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		rows := renderRows(rs.Rows)
		sort.Strings(rows)
		want[i] = strings.Join(rows, "\n")
	}

	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		conn, err := f.cl.Connect()
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		wg.Add(1)
		go func(s int, conn driver.Conn) {
			defer wg.Done()
			for i := 0; i < perSession; i++ {
				k := (s + i) % len(queries)
				rs, err := conn.Query(queries[k])
				if err != nil {
					t.Errorf("session %d gather %d: %v", s, i, err)
					return
				}
				rows := renderRows(rs.Rows)
				sort.Strings(rows)
				if got := strings.Join(rows, "\n"); got != want[k] {
					t.Errorf("session %d gather %d differs from the single engine:\n%s\nwant:\n%s", s, i, got, want[k])
					return
				}
			}
		}(s, conn)
	}
	wg.Wait()
	if ss := f.cl.ShardStats(); ss.GatherBuilds != sessions*perSession {
		t.Errorf("GatherBuilds = %d, want %d", ss.GatherBuilds, sessions*perSession)
	}
}
