package cluster_test

import (
	"fmt"
	"strings"
	"testing"

	"jackpine/internal/cluster"
	"jackpine/internal/driver"
	"jackpine/internal/engine"
	"jackpine/internal/geom"
	"jackpine/internal/storage"
)

// routerFixture is an empty 4-shard in-process cluster next to an empty
// single engine; every statement is applied to both so the pair must
// stay equivalent.
type routerFixture struct {
	cluster driver.Conn
	single  driver.Conn
	cl      *cluster.Cluster
}

func newRouterFixture(t *testing.T) *routerFixture {
	t.Helper()
	shards := make([]driver.Connector, 4)
	for i := range shards {
		shards[i] = driver.NewInProc(engine.Open(engine.GaiaDB()))
	}
	return newRouterFixtureOver(t, shards)
}

// newRouterFixtureOver is newRouterFixture over caller-supplied shard
// connectors: a 2×2 grid on the 100×100 extent, shard 0 south-west,
// 1 south-east, 2 north-west, 3 north-east.
func newRouterFixtureOver(t *testing.T, shards []driver.Connector) *routerFixture {
	t.Helper()
	ext := geom.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}
	part, err := cluster.NewPartitioner(ext, len(shards))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.Open(shards, part, cluster.Options{Profile: engine.GaiaDB()})
	if err != nil {
		t.Fatal(err)
	}
	cconn, err := cl.Connect()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cconn.Close() })
	sconn, err := driver.NewInProc(engine.Open(engine.GaiaDB())).Connect()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sconn.Close() })
	return &routerFixture{cluster: cconn, single: sconn, cl: cl}
}

// exec applies a statement to both targets and requires identical
// affected-row counts.
func (f *routerFixture) exec(t *testing.T, q string) {
	t.Helper()
	wn, werr := f.single.Exec(q)
	gn, gerr := f.cluster.Exec(q)
	if werr != nil || gerr != nil {
		t.Fatalf("exec %s: single err=%v, cluster err=%v", q, werr, gerr)
	}
	if wn != gn {
		t.Fatalf("exec %s: single affected %d, cluster affected %d", q, wn, gn)
	}
}

func TestRouterDDLAndDML(t *testing.T) {
	f := newRouterFixture(t)
	f.exec(t, "CREATE TABLE pois (id INTEGER, name TEXT, loc GEOMETRY)")
	// Routed inserts: multi-row batches landing on different shards, a
	// NULL geometry (shard 0 by convention), and single rows.
	f.exec(t, `INSERT INTO pois VALUES
		(1, 'sw', ST_MakePoint(10, 10)),
		(2, 'se', ST_MakePoint(90, 10)),
		(3, 'nw', ST_MakePoint(10, 90)),
		(4, 'ne', ST_MakePoint(90, 90)),
		(5, 'nowhere', NULL)`)
	f.exec(t, "INSERT INTO pois VALUES (6, 'centre', ST_MakePoint(50, 50))")
	f.exec(t, "CREATE SPATIAL INDEX pois_loc ON pois (loc)")

	queries := []string{
		"SELECT id, name FROM pois ORDER BY id",
		"SELECT id FROM pois WHERE ST_Intersects(loc, ST_MakeEnvelope(0, 0, 49, 49))",
		"SELECT COUNT(*) FROM pois",
		"SELECT id FROM pois ORDER BY ST_Distance(loc, ST_MakePoint(80, 80)) LIMIT 2",
		"SELECT id, name FROM pois ORDER BY id LIMIT 2 OFFSET 1",
	}
	for _, q := range queries {
		compareQuery(t, q, q, f.single, f.cluster)
	}

	// Non-geometry UPDATE broadcasts; the affected count is the row's
	// single owning shard.
	f.exec(t, "UPDATE pois SET name = 'renamed' WHERE id = 4")
	compareQuery(t, "after update", "SELECT id, name FROM pois ORDER BY id", f.single, f.cluster)

	// Rewriting the partitioning geometry would require moving rows
	// between shards; the router refuses rather than silently corrupting
	// placement.
	if _, err := f.cluster.Exec("UPDATE pois SET loc = ST_MakePoint(1, 1) WHERE id = 4"); err == nil {
		t.Fatal("UPDATE of the partitioning geometry column should fail")
	} else if !strings.Contains(err.Error(), "not supported") {
		t.Fatalf("geometry UPDATE error should read as unsupported, got: %v", err)
	}

	f.exec(t, "DELETE FROM pois WHERE id = 2")
	compareQuery(t, "after delete", "SELECT id FROM pois ORDER BY id", f.single, f.cluster)

	// EXPLAIN reports the routing decision: a window owned by one shard
	// is a fast path, a windowless scan is a scatter. A join prunes each
	// binding by the conjuncts pushed to it, from WHERE or ON alike.
	f.exec(t, "CREATE TABLE zones (zid INTEGER, shape GEOMETRY)")
	f.exec(t, "INSERT INTO zones VALUES (1, ST_MakeEnvelope(0, 0, 30, 30)), (2, ST_MakeEnvelope(60, 60, 95, 95))")
	join := "SELECT COUNT(*) FROM pois p JOIN zones z ON ST_Intersects(p.loc, z.shape)"
	window := "ST_Intersects(p.loc, ST_MakeEnvelope(0, 0, 20, 20))"
	joinPlan := "p fastpath(shard 0 of 4) | z scatter(4 of 4 shards)"
	for _, c := range []struct{ q, want string }{
		{"SELECT id FROM pois WHERE ST_Intersects(loc, ST_MakeEnvelope(0, 0, 20, 20))", "pois fastpath(shard 0 of 4)"},
		{"SELECT id FROM pois", "pois scatter(4 of 4 shards)"},
		{join + " AND " + window, joinPlan},
		{join + " WHERE " + window, joinPlan},
	} {
		plan, err := f.cluster.Query("EXPLAIN " + c.q)
		if err != nil {
			t.Fatal(err)
		}
		var rows []string
		for _, r := range plan.Rows {
			rows = append(rows, r[0].String()+" "+r[1].String())
		}
		if got := strings.Join(rows, " | "); got != c.want {
			t.Errorf("EXPLAIN %s = %s, want %s", c.q, got, c.want)
		}
	}
	compareQuery(t, "join, window in ON", join+" AND "+window, f.single, f.cluster)
	compareQuery(t, "join, window in WHERE", join+" WHERE "+window, f.single, f.cluster)

	f.exec(t, "DROP TABLE pois")
	if _, err := f.cluster.Query("SELECT id FROM pois"); err == nil {
		t.Fatal("SELECT from dropped table should fail")
	}
}

// TestRouterPartialInsertKeepsRowsVisible: a multi-row INSERT whose
// second row fails on its shard still stores the first row on another
// shard, as a single engine stores the rows before the bad one. The
// router must grow that shard's data MBR anyway, or a window query
// would prune the shard and drop the stored row.
func TestRouterPartialInsertKeepsRowsVisible(t *testing.T) {
	f := newRouterFixture(t)
	f.exec(t, "CREATE TABLE pois (id INTEGER, name TEXT, loc GEOMETRY)")
	q := "INSERT INTO pois VALUES (1, 'ok', ST_MakePoint(10, 10)), ('bad', 'x', ST_MakePoint(90, 90))"
	if _, err := f.single.Exec(q); err == nil {
		t.Fatal("single engine accepted TEXT in an INTEGER column")
	}
	if _, err := f.cluster.Exec(q); err == nil {
		t.Fatal("cluster accepted TEXT in an INTEGER column")
	}
	compareQuery(t, "scan after partial insert", "SELECT id FROM pois", f.single, f.cluster)
	compareQuery(t, "window after partial insert",
		"SELECT id FROM pois WHERE ST_Intersects(loc, ST_MakeEnvelope(0, 0, 20, 20))", f.single, f.cluster)
	rs, err := f.cluster.Query("SELECT id FROM pois WHERE ST_Intersects(loc, ST_MakeEnvelope(0, 0, 20, 20))")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 {
		t.Fatalf("window query returned %d rows, want the stored row 1", len(rs.Rows))
	}
}

func TestRouterReplicatedTable(t *testing.T) {
	f := newRouterFixture(t)
	// No geometry column: the table is replicated to every shard; reads
	// go to shard 0 and DML broadcasts with one shard's affected count.
	f.exec(t, "CREATE TABLE counters (k INTEGER, v INTEGER)")
	f.exec(t, "INSERT INTO counters VALUES (1, 10), (2, 20), (3, 30)")
	compareQuery(t, "replicated select", "SELECT k, v FROM counters ORDER BY k", f.single, f.cluster)
	f.exec(t, "UPDATE counters SET v = 99 WHERE k = 2")
	compareQuery(t, "replicated after update", "SELECT k, v FROM counters ORDER BY k", f.single, f.cluster)
	f.exec(t, "DELETE FROM counters WHERE k = 1")
	compareQuery(t, "replicated after delete", "SELECT k, v FROM counters ORDER BY k", f.single, f.cluster)

	// A replicated read goes to shard 0 only and must not count as a
	// prune-eligible scatter.
	before := f.cl.ShardStats()
	if _, err := f.cluster.Query("SELECT k FROM counters"); err != nil {
		t.Fatal(err)
	}
	after := f.cl.ShardStats()
	if after.Scatters != before.Scatters {
		t.Fatalf("replicated read should not count as a scatter: %+v -> %+v", before, after)
	}
}

func TestRouterShardStats(t *testing.T) {
	f := newRouterFixture(t)
	f.exec(t, "CREATE TABLE pts (id INTEGER, loc GEOMETRY)")
	f.exec(t, `INSERT INTO pts VALUES
		(1, ST_MakePoint(10, 10)),
		(2, ST_MakePoint(90, 10)),
		(3, ST_MakePoint(10, 90)),
		(4, ST_MakePoint(90, 90))`)
	f.cl.ResetShardStats()
	// A window that only covers the south-west data should prune the
	// other three shards.
	if _, err := f.cluster.Query("SELECT id FROM pts WHERE ST_Intersects(loc, ST_MakeEnvelope(5, 5, 15, 15))"); err != nil {
		t.Fatal(err)
	}
	ss := f.cl.ShardStats()
	if ss.Shards != 4 {
		t.Errorf("Shards = %d, want 4", ss.Shards)
	}
	if ss.Scatters != 1 || ss.ShardQueries != 1 || ss.Pruned != 3 {
		t.Errorf("window scan stats = %+v, want 1 scatter, 1 shard query, 3 pruned", ss)
	}
	// A single surviving shard is a fast path: the statement was
	// forwarded verbatim.
	if ss.FastPathHits != 1 {
		t.Errorf("FastPathHits = %d, want 1", ss.FastPathHits)
	}
	// A windowless full scan is not prune-eligible: it must not dilute
	// the prune rate's denominator.
	if _, err := f.cluster.Query("SELECT COUNT(*) FROM pts"); err != nil {
		t.Fatal(err)
	}
	ss = f.cl.ShardStats()
	if ss.Scatters != 2 || ss.ShardQueries != 5 || ss.Pruned != 3 {
		t.Errorf("after full scan stats = %+v, want 2 scatters, 5 shard queries, 3 pruned", ss)
	}
	if ss.PrunableSent != 1 {
		t.Errorf("PrunableSent = %d, want 1 (full scan is ineligible)", ss.PrunableSent)
	}
	if got := ss.PruneRate(); got != 3.0/4.0 {
		t.Errorf("PruneRate = %v, want 0.75", got)
	}
}

// TestRouterAggregateExpressions: an aggregate result read by BETWEEN,
// IS NULL or a short-circuiting AND is a value like any other, global
// or grouped, on the single engine and through the router alike; an
// aggregate call without exactly one argument is refused, not run.
func TestRouterAggregateExpressions(t *testing.T) {
	f := newRouterFixture(t)
	f.exec(t, "CREATE TABLE t (id INTEGER, x INTEGER, loc GEOMETRY)")
	f.exec(t, `INSERT INTO t VALUES (1, 10, ST_MakePoint(10, 10)), (2, 20, ST_MakePoint(90, 10)),
		(3, 30, ST_MakePoint(10, 90)), (4, 40, ST_MakePoint(90, 90))`)
	targets := []struct {
		name string
		conn driver.Conn
	}{{"single", f.single}, {"cluster", f.cluster}}
	for _, c := range []struct{ sql, want string }{
		{"SELECT COUNT(*) BETWEEN 1 AND 10 FROM t", "[[true]]"},
		{"SELECT SUM(x) IS NULL FROM t", "[[false]]"},
		// The left side is false, so the division is never evaluated.
		{"SELECT COUNT(*) > 5 AND 1 / 0 = 1 FROM t", "[[false]]"},
		{"SELECT id, COUNT(*) BETWEEN 1 AND 10 FROM t GROUP BY id ORDER BY id", "[[1 true] [2 true] [3 true] [4 true]]"},
		{"SELECT SUM() FROM t", "error"},
		{"SELECT COUNT(id, x) FROM t", "error"},
	} {
		for _, target := range targets {
			rs, err := target.conn.Query(c.sql)
			switch {
			case c.want == "error":
				if err == nil || !strings.Contains(err.Error(), "takes one argument") {
					t.Errorf("%s: %s: err %v, want an arity error", target.name, c.sql, err)
				}
			case err != nil:
				t.Errorf("%s: %s: %v", target.name, c.sql, err)
			default:
				if got := fmt.Sprint(rs.Rows); got != c.want {
					t.Errorf("%s: %s = %s, want %s", target.name, c.sql, got, c.want)
				}
			}
		}
	}
}

// typedRows renders result rows with each value's type, so an integer
// and a float of equal value differ.
func typedRows(rows [][]storage.Value) string {
	var b strings.Builder
	for i, r := range rows {
		if i > 0 {
			b.WriteString(" | ")
		}
		for j, v := range r {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%s:%s", v.Type, v)
		}
	}
	return b.String()
}

// TestRouterAggregateMerge: global aggregates merged from shard
// partials — the single-table aggregate path and the join pushdown —
// return the single engine's values with the single engine's types,
// over INTEGER, FLOAT, TEXT and all-NULL columns, and when some or all
// targeted shards match no rows (an empty shard must not turn an
// integer SUM into a float).
func TestRouterAggregateMerge(t *testing.T) {
	f := newRouterFixture(t)
	f.exec(t, "CREATE TABLE t (id INTEGER, x INTEGER, r DOUBLE, s TEXT, n INTEGER, loc GEOMETRY)")
	f.exec(t, `INSERT INTO t VALUES
		(1, 10, 1.5, 'pear', NULL, ST_MakePoint(10, 10)),
		(2, 20, 2.25, 'apple', NULL, ST_MakePoint(20, 15)),
		(3, 30, NULL, 'fig', NULL, ST_MakePoint(90, 10)),
		(4, 40, -0.1, NULL, NULL, ST_MakePoint(10, 90)),
		(5, 50, 0.1, 'kiwi', NULL, ST_MakePoint(90, 90)),
		(6, -7, 0.2, 'date', NULL, ST_MakePoint(85, 80)),
		(7, NULL, 3, 'plum', NULL, NULL)`)
	lists := []string{
		"SUM(x), AVG(x), MIN(x), MAX(x), COUNT(x), COUNT(*)",
		"SUM(r), AVG(r), MIN(r), MAX(r), COUNT(r)",
		"MIN(s), MAX(s), COUNT(s)",
		"SUM(n), AVG(n), MIN(n), MAX(n), COUNT(n)",
		"ST_Extent(loc), COUNT(loc)",
	}
	// Non-spatial filters target every shard: all rows, zero-row shards,
	// every shard empty, one row.
	wheres := []string{"", " WHERE x > 25", " WHERE x > 1000", " WHERE id = 2"}
	var stmts []string
	for _, l := range lists {
		for _, w := range wheres {
			stmts = append(stmts, "SELECT "+l+" FROM t"+w)
		}
	}
	joined := "SELECT SUM(a.x), AVG(a.r), MIN(b.s), MAX(b.x), COUNT(*), ST_Extent(a.loc), SUM(a.n), AVG(b.n) " +
		"FROM t a JOIN t b ON ST_DWithin(a.loc, b.loc, 15)"
	joins := []string{joined, joined + " WHERE a.x > 25", joined + " WHERE a.x > 1000"}
	stmts = append(stmts, joins...)

	f.cl.ResetShardStats()
	for _, q := range stmts {
		want, err := f.single.Query(q)
		if err != nil {
			t.Fatalf("single: %s: %v", q, err)
		}
		got, err := f.cluster.Query(q)
		if err != nil {
			t.Fatalf("cluster: %s: %v", q, err)
		}
		if w, g := typedRows(want.Rows), typedRows(got.Rows); w != g {
			t.Errorf("%s\nsingle:  %s\ncluster: %s", q, w, g)
		}
		if fmt.Sprint(want.Columns) != fmt.Sprint(got.Columns) {
			t.Errorf("%s: columns %v, cluster %v", q, want.Columns, got.Columns)
		}
	}
	// Every statement merged shard partials: none was forwarded to one
	// shard or gathered, and every join was pushed down.
	ss := f.cl.ShardStats()
	if ss.FastPathHits != 0 || ss.GatherBuilds != 0 || ss.JoinPushdowns != len(joins) {
		t.Errorf("stats = %+v, want no fast path, no gather, %d join pushdowns", ss, len(joins))
	}
}

// TestRouterWindowOperandError: a spatial predicate whose constant
// window operand is TEXT fails on the single engine and through the
// router with the same error — the router does not prune on a window
// it cannot evaluate, so the shards raise the error — while a NULL
// window still matches nothing and prunes every shard.
func TestRouterWindowOperandError(t *testing.T) {
	f := newRouterFixture(t)
	f.exec(t, "CREATE TABLE pts (id INTEGER, loc GEOMETRY)")
	f.exec(t, `INSERT INTO pts VALUES (1, ST_MakePoint(10, 10)), (2, ST_MakePoint(90, 10)),
		(3, ST_MakePoint(10, 90)), (4, ST_MakePoint(90, 90))`)
	for _, index := range []bool{false, true} {
		if index {
			f.exec(t, "CREATE SPATIAL INDEX pts_loc ON pts (loc)")
		}
		for _, q := range []string{
			"SELECT id FROM pts WHERE ST_Intersects(loc, 'POINT(10 10)')",
			"SELECT COUNT(*) FROM pts WHERE ST_Within('POINT(10 10)', loc)",
			"SELECT id FROM pts WHERE ST_DWithin(loc, 'POINT(10 10)', 5) ORDER BY id",
		} {
			_, werr := f.single.Query(q)
			_, gerr := f.cluster.Query(q)
			if werr == nil || gerr == nil || werr.Error() != gerr.Error() ||
				!strings.Contains(werr.Error(), "is TEXT, want GEOMETRY") {
				t.Errorf("index=%v: %s: single err %v, cluster err %v, want one TEXT operand error",
					index, q, werr, gerr)
			}
		}
		f.cl.ResetShardStats()
		compareQuery(t, "NULL window", "SELECT id FROM pts WHERE ST_Intersects(loc, NULL)", f.single, f.cluster)
		if ss := f.cl.ShardStats(); ss.ShardQueries != 0 || ss.Pruned != 4 {
			t.Errorf("index=%v: NULL window stats = %+v, want every shard pruned", index, ss)
		}
	}
}
