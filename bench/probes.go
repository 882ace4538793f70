package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"jackpine"
	"jackpine/internal/core"
	"jackpine/internal/driver"
	"jackpine/internal/engine"
	"jackpine/internal/geom"
	"jackpine/internal/index/btree"
	"jackpine/internal/index/grid"
	"jackpine/internal/index/rtree"
	"jackpine/internal/overlay"
	"jackpine/internal/sql"
	"jackpine/internal/storage"
	"jackpine/internal/storage/wal"
	"jackpine/internal/topo"
	"jackpine/internal/wire"
)

// counter indexes one monotonic count in a counters snapshot.
type counter int

const (
	poolHits counter = iota
	poolMisses
	geomHits
	geomMisses
	planHits
	planMisses
	prepHits
	prepMisses
	joinsINL
	joinsPBSM
	joinDedupDrops
	joinStateHits
	batchRows
	walAppends
	walCommits
	walFsyncs
	pagesFileBytes
	shardPruned
	shardPrunableSent
	shardFastPath
	shardGatherBuilds
	shardJoinPushdowns
	numCounters
)

// counters is one snapshot of every count the engines, the cluster and
// the durable store expose, summed over the workload's engines. Layers
// a workload lacks (a log, a cluster) stay 0.
type counters [numCounters]int64

func snapshotCounters(w *world) counters {
	var c counters
	for _, e := range w.engines {
		cc := e.CacheCounters()
		c[poolHits] += int64(cc.PoolHits)
		c[poolMisses] += int64(cc.PoolMisses)
		c[geomHits] += int64(cc.GeomHits)
		c[geomMisses] += int64(cc.GeomMisses)
		c[planHits] += int64(cc.PlanHits)
		c[planMisses] += int64(cc.PlanMisses)
		c[prepHits] += int64(cc.PrepHits)
		c[prepMisses] += int64(cc.PrepMisses)
		js := e.JoinStats()
		c[joinsINL] += js.INL
		c[joinsPBSM] += js.PBSM
		c[joinDedupDrops] += js.DedupDrops
		c[joinStateHits] += js.CacheHits
		_, rows := e.BatchStats()
		c[batchRows] += rows
		if ws, ok := e.WALStats(); ok {
			c[walAppends] += int64(ws.Appends)
			c[walCommits] += int64(ws.Commits)
			c[walFsyncs] += int64(ws.Fsyncs)
		}
	}
	if w.cluster != nil {
		ss := w.cluster.ShardStats()
		c[shardPruned] = int64(ss.Pruned)
		c[shardPrunableSent] = int64(ss.PrunableSent)
		c[shardFastPath] = int64(ss.FastPathHits)
		c[shardGatherBuilds] = int64(ss.GatherBuilds)
		c[shardJoinPushdowns] = int64(ss.JoinPushdowns)
	}
	if w.dataDir != "" {
		if fi, err := os.Stat(filepath.Join(w.dataDir, engine.PagesFileName)); err == nil {
			c[pagesFileBytes] = fi.Size()
		}
	}
	return c
}

// sub differences two snapshots.
func (c counters) sub(o counters) counters {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

// ratio is c[num] over the sum of c[den...], 0 when that sum is 0.
func (c counters) ratio(num counter, den ...counter) float64 {
	var d int64
	for _, i := range den {
		d += c[i]
	}
	return frac(float64(c[num]), float64(d))
}

// layerInputs is everything the traced run hands the per-layer metrics:
// the two measured phases, the counter deltas over the traced one, the
// span log and the system itself for the replay probes.
type layerInputs struct {
	spec          *workloadSpec
	w             *world
	tr            *tracer
	outDir        string
	plain, traced phaseResult
	counters      counters
	allocBytes    uint64
	setup         setupTimes
	insertedIn    int // rows the traced clients inserted
	durability    durability
}

func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// perCall runs fn(0..n-1) and returns the mean wall time of one call
// in nanoseconds.
func perCall(n int, fn func(i int)) float64 {
	if n == 0 {
		return 0
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0)) / float64(n)
}

func us(ns float64) float64 { return ns / 1e3 }
func ms(ns float64) float64 { return ns / 1e6 }

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink int

// layerMetrics computes every per-layer metric of one traced run.
func layerMetrics(in *layerInputs) (map[string]float64, *pressureReport, error) {
	v := make(map[string]float64)
	coreMetrics(in, v)
	counterMetrics(in, v)
	clusterSpanMetrics(in, v)
	v["tiger.generate_s"] = in.setup.generate.Seconds()
	v["tiger.load_s"] = in.setup.load.Seconds()
	v["tiger.index_build_s"] = in.setup.index.Seconds()
	v["wal.checkpoint_ms"] = ms(float64(in.durability.checkpoint))
	v["wal.reopen_ms"] = ms(float64(in.durability.reopen))

	// The replay probes need one engine holding the whole dataset. The
	// workload's own engine serves unless it is sharded.
	eng := in.w.engines[0]
	if in.w.cluster != nil {
		pw, _, err := setupInProc(in.w.ds, nil, "")
		if err != nil {
			return nil, nil, err
		}
		defer pw.close()
		eng = pw.engines[0]
	}
	if err := sqlProbes(in, eng, v); err != nil {
		return nil, nil, err
	}
	edges := indexProbes(in, v)
	geomProbes(in, v)
	topoProbes(in, edges, v)
	overlayProbes(in, v)
	if err := poolProbe(in.outDir, v); err != nil {
		return nil, nil, err
	}
	if err := walProbe(in.outDir, v); err != nil {
		return nil, nil, err
	}
	if err := wireProbes(in, eng, v); err != nil {
		return nil, nil, err
	}
	pressure, err := pressureProbe(in)
	if err != nil {
		return nil, nil, err
	}
	v["storage.pressure.read_errors"] = float64(pressure.SerialErrors + pressure.ConcurrentErrors)
	return v, pressure, nil
}

// spanCounts totals the traced phase's spans: operations, the statements
// they issued and the rows they returned.
func spanCounts(tr *tracer) (ops, stmts, rows int) {
	for _, s := range tr.sessions {
		for _, sp := range s.spans {
			switch sp.Name {
			case spanOp:
				ops++
				rows += sp.Rows
			case spanStmt:
				stmts++
			}
		}
	}
	return ops, stmts, rows
}

// coreMetrics decomposes the scenario layer: per-class medians (0 for a
// class the workload does not schedule) and what an operation costs in
// statements, rows and allocation.
func coreMetrics(in *layerInputs, v map[string]float64) {
	for class := range classes {
		v["core.class."+class+".p50_ms"] = in.traced.quantileMS(class, 0.5)
	}
	ops, stmts, rows := spanCounts(in.tr)
	v["core.stmts_per_op"] = frac(float64(stmts), float64(ops))
	v["core.rows_per_op"] = frac(float64(rows), float64(ops))
	v["core.alloc_kb_per_op"] = frac(float64(in.allocBytes)/1024, float64(ops))
	v["core.drift_ratio"] = in.plain.driftRatio()
	v["core.trace_overhead_frac"] = 1 - frac(in.traced.opsPerSec(), in.plain.opsPerSec())
}

// WAL record sizes: 4-byte length and 4-byte CRC around a payload of
// type, transaction id and, for page records, page id and page image.
const (
	walCommitBytes = 8 + 1 + 8
	walPageBytes   = walCommitBytes + 4 + storage.PageSize
)

// counterMetrics turns the counter deltas over the traced phase into
// ratios at the boundaries where the work happens.
func counterMetrics(in *layerInputs, v map[string]float64) {
	c := in.counters
	_, stmts, _ := spanCounts(in.tr)
	v["sql.join.pbsm_frac"] = c.ratio(joinsPBSM, joinsPBSM, joinsINL)
	v["sql.join.state_cache_hit_frac"] = c.ratio(joinStateHits, joinsPBSM)
	v["sql.join.dedup_drops_per_join"] = c.ratio(joinDedupDrops, joinsPBSM)
	v["sql.batch_rows_per_stmt"] = frac(float64(c[batchRows]), float64(stmts))
	v["engine.plan_cache_hit_frac"] = c.ratio(planHits, planHits, planMisses)
	v["engine.prep_hit_frac"] = c.ratio(prepHits, prepHits, prepMisses)
	v["storage.pool.hit_frac"] = c.ratio(poolHits, poolHits, poolMisses)
	v["storage.geomcache.hit_frac"] = c.ratio(geomHits, geomHits, geomMisses)

	v["wal.fsyncs_per_commit"] = c.ratio(walFsyncs, walCommits)
	v["wal.appends_per_commit"] = c.ratio(walAppends, walCommits)
	written := float64(c[walAppends])*walPageBytes + float64(c[walCommits])*walCommitBytes + float64(c[pagesFileBytes])
	row := storage.EncodeTuple([]storage.Value{
		storage.NewInt(ownIDBase), storage.NewText("bench 10000000"), storage.NewText("hospital"),
		storage.NewGeom(geom.Point{Coord: geom.Coord{X: 1, Y: 1}}),
	})
	v["wal.bytes_per_user_byte"] = frac(written, float64(in.insertedIn*len(row)))

	// Prune rate as driver.ShardStats.PruneRate defines it: over
	// prune-eligible scatters only.
	v["cluster.prune_rate"] = c.ratio(shardPruned, shardPruned, shardPrunableSent)
	v["cluster.fast_path_frac"] = frac(float64(c[shardFastPath]), float64(stmts))
	v["cluster.gather_builds"] = float64(c[shardGatherBuilds])
	// The text log is capped, so its join share is scaled to all statements.
	joins := 0
	for _, q := range in.tr.texts {
		if strings.Contains(q, " JOIN ") {
			joins++
		}
	}
	joinStmts := frac(float64(joins), float64(len(in.tr.texts))) * float64(stmts)
	v["cluster.join_pushdown_frac"] = frac(float64(c[shardJoinPushdowns]), joinStmts)
}

// clusterSpanMetrics reads the router's cost off the spans: a
// statement's self time is what routing, merging and gathering took
// beyond the shard calls it waited for.
func clusterSpanMetrics(in *layerInputs, v map[string]float64) {
	if in.w.cluster == nil {
		// Without a router a statement's self time is the engine's, not routing.
		v["cluster.router_self_us_per_stmt"] = 0
		v["cluster.shard_calls_per_stmt"] = 0
		v["cluster.slowest_shard_share"] = 0
		return
	}
	var stmts, calls, fanned int
	var selfSum int64
	var slowestShare float64
	for _, s := range in.tr.sessions {
		self := selfTimes(s.spans)
		slowest := make(map[int]int64)
		for i, sp := range s.spans {
			switch sp.Name {
			case spanStmt:
				stmts++
				selfSum += self[i]
			case spanShard:
				calls++
				if d := sp.End - sp.Start; sp.Parent >= 0 && d > slowest[sp.Parent] {
					slowest[sp.Parent] = d
				}
			}
		}
		for parent, d := range slowest {
			if total := s.spans[parent].End - s.spans[parent].Start; total > 0 {
				slowestShare += float64(d) / float64(total)
				fanned++
			}
		}
	}
	v["cluster.router_self_us_per_stmt"] = frac(float64(selfSum)/1e3, float64(stmts))
	v["cluster.shard_calls_per_stmt"] = frac(float64(calls), float64(stmts))
	v["cluster.slowest_shard_share"] = frac(slowestShare, float64(fanned))
}

// sqlProbes replays the logged statement texts through the parser, and
// the reads among them through the executor on pre-parsed clones.
func sqlProbes(in *layerInputs, eng *jackpine.Engine, v map[string]float64) error {
	texts := in.tr.texts
	var selects []sql.Statement
	t0 := time.Now()
	for _, q := range texts {
		stmt, err := sql.Parse(q)
		if err != nil {
			return fmt.Errorf("replay parse: %w", err)
		}
		if _, ok := stmt.(*sql.Select); ok {
			selects = append(selects, stmt)
		}
	}
	v["sql.parse_us_per_stmt"] = frac(us(float64(time.Since(t0))), float64(len(texts)))

	// Analysis statements take tens of milliseconds each, so the replay
	// is bounded by time as well as by the log.
	const execBudget = time.Second
	clones := make([]sql.Statement, len(selects))
	for i, s := range selects {
		clones[i] = sql.CloneStatement(s)
	}
	n := 0
	t0 = time.Now()
	for ; n < len(clones) && time.Since(t0) < execBudget; n++ {
		res, err := eng.ExecParsed(clones[n])
		if err != nil {
			return fmt.Errorf("replay exec: %w", err)
		}
		sink += len(res.Rows)
	}
	v["sql.exec_us_per_stmt"] = frac(us(float64(time.Since(t0))), float64(n))
	return nil
}

const probeCalls = 2000

// indexProbes times the index structures on the dataset's road-edge
// envelopes with the workload's own windows and points. It returns the
// edge R-tree for the probes that need candidate pairs.
func indexProbes(in *layerInputs, v map[string]float64) *rtree.Tree {
	ds, ctx := in.w.ds, in.w.ctx
	entries := make([]rtree.Entry, len(ds.Edges))
	g := grid.New(ds.Extent, 64, 64)
	bt := btree.New()
	keys := make([][]byte, len(ds.Edges))
	for i, e := range ds.Edges {
		env := e.Geom.Envelope()
		entries[i] = rtree.Entry{Rect: env, ID: e.ID}
		g.Insert(env, e.ID)
		keys[i] = btree.AppendInt(btree.AppendText(nil, e.Name), e.FromAddr)
		bt.Insert(keys[i], e.ID)
	}
	tree := rtree.BulkLoad(entries, 0)
	windows := make([]geom.Rect, probeCalls)
	points := make([]geom.Coord, probeCalls)
	for i := range windows {
		windows[i] = ctx.Window("MS1", i, 2)
		points[i] = ctx.Point("MS3", i)
	}
	v["index.rtree.search_us"] = us(perCall(probeCalls, func(i int) {
		tree.Search(windows[i], func(rtree.Entry) bool { sink++; return true })
	}))
	v["index.grid.search_us"] = us(perCall(probeCalls, func(i int) {
		g.Search(windows[i], func(grid.Entry) bool { sink++; return true })
	}))
	v["index.rtree.knn_us"] = us(perCall(probeCalls, func(i int) { sink += len(tree.KNearest(points[i], 1)) }))
	v["index.btree.seek_us"] = us(perCall(probeCalls, func(i int) {
		bt.Seek(keys[i%len(keys)], func(int64) bool { sink++; return true })
	}))
	// Inserts go into a second tree so the returned one stays as loaded.
	grown := rtree.BulkLoad(entries, 0)
	v["index.rtree.insert_us"] = us(perCall(probeCalls, func(i int) {
		p := points[i]
		grown.Insert(geom.Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y}, int64(ownIDBase+i))
	}))
	return tree
}

// geomProbes times decode and encode over the geometries the traced
// statements returned (the dataset's when they returned too few), and
// distance over landmark/water pairs.
func geomProbes(in *layerInputs, v map[string]float64) {
	ds := in.w.ds
	geoms := in.tr.geoms
	if len(geoms) < 64 {
		geoms = nil
		for i := 0; i < 1000 && i < len(ds.Edges); i++ {
			geoms = append(geoms, ds.Edges[i].Geom)
		}
		for i := 0; i < 1000 && i < len(ds.Parcels); i++ {
			geoms = append(geoms, ds.Parcels[i].Geom)
		}
	}
	wkbs := make([][]byte, len(geoms))
	for i, g := range geoms {
		wkbs[i] = geom.MarshalWKB(g)
	}
	n := len(geoms)
	v["geom.envelope_wkb_ns"] = perCall(n, func(i int) {
		if r, err := geom.EnvelopeWKB(wkbs[i]); err == nil && !r.IsEmpty() {
			sink++
		}
	})
	v["geom.unmarshal_wkb_ns"] = perCall(n, func(i int) {
		if g, err := geom.UnmarshalWKB(wkbs[i]); err == nil {
			sink += g.NumCoords()
		}
	})
	var arena geom.CoordArena
	v["geom.unmarshal_arena_ns"] = perCall(n, func(i int) {
		if i%256 == 0 {
			arena.Reset()
		}
		if g, err := geom.UnmarshalWKBArena(wkbs[i], &arena); err == nil {
			sink += g.NumCoords()
		}
	})
	v["geom.wkt_encode_ns"] = perCall(n, func(i int) { sink += len(geom.WKT(geoms[i])) })
	pts, water := ds.PointLandmarks, ds.AreaWater
	v["geom.dwithin_ns"] = perCall(len(pts), func(i int) {
		if geom.DWithin(pts[i].Geom, water[i%len(water)].Geom, 100) {
			sink++
		}
	})
	v["geom.distance_ns"] = perCall(len(pts), func(i int) {
		if geom.Distance(pts[i].Geom, water[i%len(water)].Geom) < 100 {
			sink++
		}
	})
}

// topoProbes times the DE-9IM kernels on neighbouring parcels (which
// share edges exactly) and on road edges near water bodies.
func topoProbes(in *layerInputs, edges *rtree.Tree, v map[string]float64) {
	ds := in.w.ds
	n := len(ds.Parcels) - 1
	if n > probeCalls {
		n = probeCalls
	}
	v["topo.relate_us"] = us(perCall(n, func(i int) {
		sink += len(topo.Relate(ds.Parcels[i].Geom, ds.Parcels[i+1].Geom).String())
	}))
	prepared := make([]*topo.Prepared, n)
	v["topo.prepare_us"] = us(perCall(n, func(i int) { prepared[i] = topo.Prepare(ds.Parcels[i].Geom) }))
	v["topo.prepared_eval_us"] = us(perCall(n, func(i int) {
		if prepared[i].Eval(topo.PredTouches, ds.Parcels[i+1].Geom) {
			sink++
		}
	}))
	type pair struct {
		line geom.LineString
		poly geom.Polygon
	}
	byID := make(map[int64]geom.LineString, len(ds.Edges))
	for _, e := range ds.Edges {
		byID[e.ID] = e.Geom
	}
	var pairs []pair
	for _, w := range ds.AreaWater {
		edges.Search(w.Geom.Envelope(), func(e rtree.Entry) bool {
			pairs = append(pairs, pair{byID[e.ID], w.Geom})
			return len(pairs) < probeCalls
		})
	}
	v["topo.intersects_line_poly_us"] = us(perCall(len(pairs), func(i int) {
		if topo.Intersects(pairs[i].line, pairs[i].poly) {
			sink++
		}
	}))
}

// overlayProbes times MS4's two constructive steps: buffering a water
// body and intersecting the buffer with the parcels it reaches.
func overlayProbes(in *layerInputs, v map[string]float64) {
	ds := in.w.ds
	water := ds.AreaWater[1:] // feature 1 is the river, which MS4 skips
	buffers := make([]geom.Geometry, len(water))
	v["overlay.buffer_us"] = us(perCall(len(water), func(i int) {
		buffers[i] = overlay.Buffer(water[i].Geom, 40, 0)
	}))
	type pair struct{ parcel, buffer geom.Geometry }
	var pairs []pair
	const maxPairs = 200
	for _, b := range buffers {
		env := b.Envelope()
		for _, p := range ds.Parcels {
			if len(pairs) == maxPairs {
				break
			}
			if p.Geom.Envelope().Intersects(env) {
				pairs = append(pairs, pair{p.Geom, b})
			}
		}
	}
	v["overlay.intersection_us"] = us(perCall(len(pairs), func(i int) {
		sink += overlay.Intersection(pairs[i].parcel, pairs[i].buffer).NumCoords()
	}))
}

// poolProbe times a buffer-pool pin that hits and one that misses, on a
// 128-frame pool over a page file four times its size.
func poolProbe(outDir string, v map[string]float64) error {
	const frames, pages = 128, 512
	path := filepath.Join(outDir, fmt.Sprintf("probe-pages-%d.db", os.Getpid()))
	fs, err := storage.NewFileStore(path)
	if err != nil {
		return err
	}
	defer os.Remove(path)
	defer fs.Close()
	pool := storage.NewBufferPool(fs, frames)
	for i := 0; i < pages; i++ {
		if _, err := pool.Allocate(); err != nil {
			return err
		}
	}
	var perr error
	pin := func(id uint32) {
		if _, err := pool.Pin(id); err != nil {
			perr = err
			return
		}
		pool.Unpin(id, false)
	}
	pin(0)
	v["storage.pool.pin_hit_ns"] = perCall(100*probeCalls, func(int) { pin(0) })
	// Cycling through four times the pool never finds a page resident.
	v["storage.pool.pin_miss_us"] = us(perCall(probeCalls, func(i int) { pin(uint32(i % pages)) }))
	return perr
}

// walProbe times one durable commit of one page image on a scratch log:
// append, commit record, fsync.
func walProbe(outDir string, v map[string]float64) error {
	path := filepath.Join(outDir, fmt.Sprintf("probe-wal-%d.log", os.Getpid()))
	log, err := wal.Open(path, storage.NewMemStore())
	if err != nil {
		return err
	}
	defer os.Remove(path)
	defer log.Close()
	page := make([]byte, storage.PageSize)
	var werr error
	v["wal.sync_us"] = us(perCall(100, func(i int) {
		txn := log.Begin()
		if _, err := log.AppendPage(txn, uint32(i), page); err != nil {
			werr = err
			return
		}
		end, err := log.AppendCommit(txn)
		if err == nil {
			err = log.Sync(end)
		}
		if err != nil {
			werr = err
		}
	}))
	return werr
}

// wireProbes measures what the wire adds to a statement: the same
// statements on the same engine through a loopback server and in
// process, once returning one small row and once a thousand geometries.
func wireProbes(in *layerInputs, eng *jackpine.Engine, v map[string]float64) error {
	srv := wire.NewServer(eng)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	remote, err := jackpine.ConnectRemote(addr, "probe").Connect()
	if err != nil {
		return err
	}
	defer remote.Close()
	local, err := jackpine.Connect(eng).Connect()
	if err != nil {
		return err
	}
	defer local.Close()

	ctx := in.w.ctx
	var qerr error
	run := func(conn driver.Conn, q string) {
		rs, err := conn.Query(q)
		if err != nil {
			qerr = err
			return
		}
		sink += len(rs.Rows)
	}
	lookup := func(conn driver.Conn) float64 {
		return perCall(500, func(i int) {
			name, house := ctx.RandomAddress("wire", i)
			run(conn, fmt.Sprintf(
				"SELECT fromaddr, toaddr FROM edges WHERE name = '%s' AND fromaddr <= %d AND toaddr >= %d",
				name, house, house))
		})
	}
	bulk := func(conn driver.Conn) float64 {
		return perCall(20, func(i int) {
			run(conn, fmt.Sprintf("SELECT id, geo FROM edges WHERE ST_Intersects(geo, %s) LIMIT 1000",
				core.WindowWKT(ctx.Window("wire", i, 30))))
		})
	}
	v["wire.roundtrip_small_us"] = us(lookup(remote) - lookup(local))
	v["wire.rows_1k_ms"] = ms(bulk(remote) - bulk(local))
	return qerr
}

// pressureReport records what window reads return when the buffer pool
// is smaller than the data. It is a finding kept as a number, not a
// gated metric: the gated workloads keep pools that hold the data.
type pressureReport struct {
	PoolPages        int    `json:"pool_pages"`
	OpsEach          int    `json:"ops_each"`
	SerialErrors     int    `json:"serial_errors"`
	ConcurrentErrors int    `json:"concurrent_errors"`
	FirstStatement   string `json:"first_failing_statement,omitempty"`
	FirstError       string `json:"first_error,omitempty"`
}

// failureLog counts failed statements and keeps the first.
type failureLog struct {
	mu                  sync.Mutex
	n                   int
	firstStmt, firstErr string
}

// errorKeepingConn reports every failed query to a failureLog and lets
// the replay go on: the probe counts failures, it does not stop at one.
type errorKeepingConn struct {
	driver.Conn
	log *failureLog
}

// Query implements driver.Conn.
func (c errorKeepingConn) Query(q string) (*driver.ResultSet, error) {
	rs, err := c.Conn.Query(q)
	if err == nil {
		return rs, nil
	}
	c.log.mu.Lock()
	defer c.log.mu.Unlock()
	if c.log.n == 0 {
		c.log.firstStmt, c.log.firstErr = q, err.Error()
	}
	c.log.n++
	return &driver.ResultSet{}, nil
}

// pressureProbe replays a fixed number of window operations against an
// engine whose pool holds half the data, first from one client and then
// from two.
func pressureProbe(in *layerInputs) (*pressureReport, error) {
	const poolPages, opsEach = 128, 1000
	eng := jackpine.OpenEngine(jackpine.GaiaDB(), engine.WithPoolPages(poolPages))
	defer eng.Close()
	var st setupTimes
	if err := loadEngine(eng, in.w.ds, &st); err != nil {
		return nil, fmt.Errorf("pressure probe: %w", err)
	}
	var log failureLog
	window := scenarios["MS1"].Run
	// replay returns the statements that failed while `clients` clients
	// shared the opsEach operations.
	replay := func(clients int) (int, error) {
		before := log.n
		var wg sync.WaitGroup
		errs := make([]error, clients)
		for k := 0; k < clients; k++ {
			conn, err := jackpine.Connect(eng).Connect()
			if err != nil {
				return 0, err
			}
			wg.Add(1)
			go func(k int, conn driver.Conn) {
				defer wg.Done()
				defer conn.Close()
				for i := k; i < opsEach && errs[k] == nil; i += clients {
					_, errs[k] = window(in.w.ctx, errorKeepingConn{conn, &log}, i)
				}
			}(k, conn)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return 0, err
			}
		}
		return log.n - before, nil
	}
	report := &pressureReport{PoolPages: poolPages, OpsEach: opsEach}
	var err error
	if report.SerialErrors, err = replay(1); err != nil {
		return nil, err
	}
	if report.ConcurrentErrors, err = replay(numClients); err != nil {
		return nil, err
	}
	report.FirstStatement, report.FirstError = log.firstStmt, log.firstErr
	return report, nil
}
