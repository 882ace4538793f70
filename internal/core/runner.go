package core

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"jackpine/internal/driver"
	"jackpine/internal/engine"
	"jackpine/internal/sql"
)

// Options configure a benchmark run.
type Options struct {
	// Warmup is the number of unmeasured iterations per query.
	Warmup int
	// Runs is the number of measured iterations per query.
	Runs int
	// Clients is the number of concurrent connections for macro
	// throughput measurement (micro queries always run single-stream,
	// as in the paper).
	Clients int
	// Parallelism records the engine's intra-query worker pool size for
	// this run (0 = engine default). The runner does not configure the
	// engine — callers set the knob (engine.SetParallelism) and report
	// the value here so results carry the dimension.
	Parallelism int
}

// DefaultOptions returns the runner defaults: 2 warmup iterations, 5
// measured runs, a single client.
func DefaultOptions() Options { return Options{Warmup: 2, Runs: 5, Clients: 1} }

func (o Options) normalized() Options {
	if o.Warmup < 0 {
		o.Warmup = 0
	}
	if o.Runs < 1 {
		o.Runs = 1
	}
	if o.Clients < 1 {
		o.Clients = 1
	}
	return o
}

// MicroResult is the measurement of one micro query on one engine.
type MicroResult struct {
	ID          string
	Name        string
	Category    string
	Engine      string
	Runs        int
	Mean        time.Duration
	Median      time.Duration // p50 over the measured iterations
	P95         time.Duration
	P99         time.Duration
	Min         time.Duration
	Max         time.Duration
	Rows        int // rows returned by the last measured run
	Parallelism int // engine worker pool size during the run (0 = default)
	Unsupported bool
	Err         error

	// PoolHitRatio is the buffer-pool hit ratio over the measured
	// iterations. -1 means unknown: the connection does not expose
	// counters (remote engines) or the pool saw no traffic during the run.
	PoolHitRatio float64

	// TopoPrepHitRatio is the fraction of exact topological predicate
	// evaluations served through a prepared constant side over the
	// measured iterations; -1 means unknown or no exact evaluations.
	TopoPrepHitRatio float64

	// AllocsPerRun and BytesPerRun are process-wide heap allocation
	// deltas per measured iteration (runtime.MemStats Mallocs and
	// TotalAlloc), sampled only for in-process connections, where the
	// engine's work happens in this process. -1 means unknown (remote
	// engine). Process-wide: concurrent background work inflates them.
	AllocsPerRun float64
	BytesPerRun  float64

	// Shards and ShardPruneRate describe scatter-gather routing when the
	// connection is a spatially-sharded cluster (detected by interface,
	// like the cache counters): the cluster size and the fraction of
	// per-shard queries spatial pruning avoided over the measured
	// iterations. 0 / -1 when the target is not a cluster or nothing
	// was prune-eligible.
	Shards         int
	ShardPruneRate float64

	// ShardFastPath counts statements the cluster forwarded verbatim to a
	// single shard; ShardHedgeFired/ShardHedgeWon count hedged second
	// requests issued and won. All deltas over the measured iterations;
	// 0 when the target is not a cluster.
	ShardFastPath   int
	ShardHedgeFired int
	ShardHedgeWon   int

	// WALFsyncs is the number of log fsyncs over the measured iterations
	// and DirtyPages the buffer-pool dirty-page gauge sampled after them.
	// -1 when the engine is not durable (the shard-column convention).
	WALFsyncs  int
	DirtyPages int

	// JoinStrategy labels the spatial-join strategy that executed over
	// the measured iterations ("inl", "pbsm", "mixed"); blank when no
	// spatial join ran or the connection exposes no join counters
	// (remote engines). PBSMCells and DedupDrops are the grid cells
	// built and cross-cell duplicate pairs suppressed, -1 when unknown.
	// JoinPushdown counts cluster joins answered shard-local, 0 when
	// the target is not a cluster (the ShardFastPath convention).
	JoinStrategy string
	PBSMCells    int
	DedupDrops   int
	JoinPushdown int
}

// MacroResult is the measurement of one macro scenario on one engine.
type MacroResult struct {
	ID          string
	Name        string
	Engine      string
	Clients     int
	Parallelism int // engine worker pool size during the run (0 = default)
	Ops         int
	Elapsed     time.Duration
	Throughput  float64 // operations per second
	MeanLatency time.Duration
	// P50/P95/P99Latency are client-observed per-operation latency
	// quantiles over every measured operation across all clients
	// (full-sample, not per-client averages).
	P50Latency  time.Duration
	P95Latency  time.Duration
	P99Latency  time.Duration
	RowsPerOp   float64
	Unsupported bool
	Err         error

	// PoolHitRatio over the measured phase; -1 means unknown (see
	// MicroResult).
	PoolHitRatio float64

	// TopoPrepHitRatio as in MicroResult, over the measured phase.
	TopoPrepHitRatio float64

	// AllocsPerOp and BytesPerOp as in MicroResult (per operation,
	// over the measured phase); -1 means unknown.
	AllocsPerOp float64
	BytesPerOp  float64

	// Shards and ShardPruneRate as in MicroResult, over the measured
	// phase.
	Shards         int
	ShardPruneRate float64

	// ShardFastPath / ShardHedgeFired / ShardHedgeWon as in MicroResult,
	// over the measured phase.
	ShardFastPath   int
	ShardHedgeFired int
	ShardHedgeWon   int

	// WALFsyncs / DirtyPages as in MicroResult, over the measured phase.
	WALFsyncs  int
	DirtyPages int

	// JoinStrategy / PBSMCells / DedupDrops / JoinPushdown as in
	// MicroResult, over the measured phase.
	JoinStrategy string
	PBSMCells    int
	DedupDrops   int
	JoinPushdown int
}

// cacheCounterConn is implemented by in-process connections that can
// report engine cache counters; remote connections simply lack it.
type cacheCounterConn interface {
	CacheCounters() engine.CacheCounters
}

// shardStatsConn is implemented by cluster connections that report
// scatter-gather routing counters; single-engine connections lack it.
type shardStatsConn interface {
	ShardStats() driver.ShardStats
}

// joinStatsConn is implemented by in-process connections that report
// the engine's spatial-join strategy counters.
type joinStatsConn interface {
	JoinStats() sql.JoinStats
}

// joinStrategyLabel classifies which spatial-join strategy executed
// between two counter snapshots; blank when no spatial join ran.
func joinStrategyLabel(before, after sql.JoinStats) string {
	inl, pbsm := after.INL-before.INL, after.PBSM-before.PBSM
	switch {
	case inl > 0 && pbsm > 0:
		return "mixed"
	case pbsm > 0:
		return "pbsm"
	case inl > 0:
		return "inl"
	}
	return ""
}

// pruneDelta is the prune rate between two shard-counter snapshots,
// over prune-eligible scatters only (windowless full scans do not
// dilute the denominator).
func pruneDelta(before, after driver.ShardStats) float64 {
	return driver.ShardStats{
		PrunableSent: after.PrunableSent - before.PrunableSent,
		Pruned:       after.Pruned - before.Pruned,
	}.PruneRate()
}

// cacheRatio converts a counter delta to a ratio, -1 when no traffic.
func cacheRatio(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return -1
	}
	return float64(hits) / float64(hits+misses)
}

// isUnsupported recognises the engine's feature-gap errors.
func isUnsupported(err error) bool {
	return err != nil && strings.Contains(err.Error(), "not supported")
}

// RunMicro measures every query in the suite against the connector,
// single-stream. Unsupported queries are reported as such rather than
// failing the run (the paper's result tables mark these per DBMS).
func RunMicro(connector driver.Connector, suite []MicroQuery, ctx *QueryContext, opts Options) ([]MicroResult, error) {
	opts = opts.normalized()
	conn, err := connector.Connect()
	if err != nil {
		return nil, err
	}
	defer conn.Close()

	results := make([]MicroResult, 0, len(suite))
	for _, q := range suite {
		res := MicroResult{
			ID: q.ID, Name: q.Name, Category: q.Category,
			Engine: connector.Name(), Runs: opts.Runs,
			Parallelism:  opts.Parallelism,
			PoolHitRatio: -1, TopoPrepHitRatio: -1,
			AllocsPerRun: -1, BytesPerRun: -1,
			ShardPruneRate: -1,
			WALFsyncs:      -1, DirtyPages: -1,
			PBSMCells: -1, DedupDrops: -1,
		}
		// Warmup (also surfaces unsupported functions cheaply).
		aborted := false
		for w := 0; w < opts.Warmup && !aborted; w++ {
			if _, err := conn.Query(q.SQL(ctx, w)); err != nil {
				if isUnsupported(err) {
					res.Unsupported = true
				} else {
					res.Err = err
				}
				aborted = true
			}
		}
		if !aborted {
			cc, hasCC := conn.(cacheCounterConn)
			var before engine.CacheCounters
			if hasCC {
				before = cc.CacheCounters()
			}
			ss, hasSS := conn.(shardStatsConn)
			var ssBefore driver.ShardStats
			if hasSS {
				ssBefore = ss.ShardStats()
			}
			js, hasJS := conn.(joinStatsConn)
			var jsBefore sql.JoinStats
			if hasJS {
				jsBefore = js.JoinStats()
			}
			var memBefore runtime.MemStats
			if hasCC {
				runtime.ReadMemStats(&memBefore)
			}
			durations := make([]time.Duration, 0, opts.Runs)
			for i := 0; i < opts.Runs; i++ {
				query := q.SQL(ctx, opts.Warmup+i)
				start := time.Now()
				rs, err := conn.Query(query)
				elapsed := time.Since(start)
				if err != nil {
					if isUnsupported(err) {
						res.Unsupported = true
					} else {
						res.Err = fmt.Errorf("%s: %w", q.ID, err)
					}
					break
				}
				durations = append(durations, elapsed)
				res.Rows = len(rs.Rows)
			}
			if len(durations) > 0 {
				fillStats(&res, durations)
			}
			if hasCC && len(durations) > 0 {
				var memAfter runtime.MemStats
				runtime.ReadMemStats(&memAfter)
				n := float64(len(durations))
				res.AllocsPerRun = float64(memAfter.Mallocs-memBefore.Mallocs) / n
				res.BytesPerRun = float64(memAfter.TotalAlloc-memBefore.TotalAlloc) / n
				after := cc.CacheCounters()
				res.PoolHitRatio = cacheRatio(after.PoolHits-before.PoolHits, after.PoolMisses-before.PoolMisses)
				res.TopoPrepHitRatio = cacheRatio(after.PrepHits-before.PrepHits, after.PrepMisses-before.PrepMisses)
				if after.WALEnabled {
					res.WALFsyncs = int(after.WALFsyncs - before.WALFsyncs)
					res.DirtyPages = int(after.DirtyPages) // gauge, not a delta
				}
			}
			if hasSS && len(durations) > 0 {
				after := ss.ShardStats()
				res.Shards = after.Shards
				res.ShardPruneRate = pruneDelta(ssBefore, after)
				res.ShardFastPath = after.FastPathHits - ssBefore.FastPathHits
				res.ShardHedgeFired = after.HedgeFired - ssBefore.HedgeFired
				res.ShardHedgeWon = after.HedgeWon - ssBefore.HedgeWon
				res.JoinPushdown = after.JoinPushdowns - ssBefore.JoinPushdowns
			}
			if hasJS && len(durations) > 0 {
				after := js.JoinStats()
				res.JoinStrategy = joinStrategyLabel(jsBefore, after)
				res.PBSMCells = int(after.Cells - jsBefore.Cells)
				res.DedupDrops = int(after.DedupDrops - jsBefore.DedupDrops)
			}
		}
		results = append(results, res)
	}
	return results, nil
}

func fillStats(res *MicroResult, ds []time.Duration) {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	res.Runs = len(ds)
	res.Mean = sum / time.Duration(len(ds))
	res.Median = ds[len(ds)/2]
	res.P95 = ds[(len(ds)*95)/100]
	res.P99 = ds[(len(ds)*99)/100]
	res.Min = ds[0]
	res.Max = ds[len(ds)-1]
}

// quantile reads the q-quantile from a sorted duration sample (same
// index convention as fillStats).
func quantile(ds []time.Duration, q int) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	return ds[(len(ds)*q)/100]
}

// RunMacro measures one scenario's throughput with opts.Clients
// concurrent connections, each performing opts.Runs operations after
// opts.Warmup unmeasured ones. Iteration numbers are partitioned across
// clients so concurrent operations touch different probe locations.
func RunMacro(connector driver.Connector, sc MacroScenario, ctx *QueryContext, opts Options) MacroResult {
	opts = opts.normalized()
	res := MacroResult{
		ID: sc.ID, Name: sc.Name, Engine: connector.Name(), Clients: opts.Clients,
		Parallelism:  opts.Parallelism,
		PoolHitRatio: -1, TopoPrepHitRatio: -1,
		AllocsPerOp: -1, BytesPerOp: -1,
		ShardPruneRate: -1,
		WALFsyncs:      -1, DirtyPages: -1,
		PBSMCells: -1, DedupDrops: -1,
	}

	// Feature probe: run one operation; an unsupported error marks the
	// whole scenario, mirroring the paper's per-DBMS support table.
	probeConn, err := connector.Connect()
	if err != nil {
		res.Err = err
		return res
	}
	if _, err := sc.Run(ctx, probeConn, 0); err != nil {
		probeConn.Close()
		if isUnsupported(err) {
			res.Unsupported = true
		} else {
			res.Err = err
		}
		return res
	}
	probeConn.Close()

	type clientOut struct {
		ops  int
		rows int
		durs []time.Duration
		err  error
	}
	outs := make([]clientOut, opts.Clients)

	// Snapshot the engine's cache counters around the measured phase via
	// a dedicated connection (the counters are engine-global).
	var before engine.CacheCounters
	var statsCC cacheCounterConn
	var ssBefore driver.ShardStats
	var statsSS shardStatsConn
	var jsBefore sql.JoinStats
	var statsJS joinStatsConn
	if statsConn, err := connector.Connect(); err == nil {
		if cc, ok := statsConn.(cacheCounterConn); ok {
			statsCC = cc
			before = cc.CacheCounters()
		}
		if ss, ok := statsConn.(shardStatsConn); ok {
			statsSS = ss
			ssBefore = ss.ShardStats()
		}
		if js, ok := statsConn.(joinStatsConn); ok {
			statsJS = js
			jsBefore = js.JoinStats()
		}
		if statsCC != nil || statsSS != nil || statsJS != nil {
			defer statsConn.Close()
		} else {
			statsConn.Close()
		}
	}

	var memBefore runtime.MemStats
	if statsCC != nil {
		runtime.ReadMemStats(&memBefore)
	}

	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < opts.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := connector.Connect()
			if err != nil {
				outs[c].err = err
				return
			}
			defer conn.Close()
			base := 1 + c*(opts.Warmup+opts.Runs)
			for w := 0; w < opts.Warmup; w++ {
				if _, err := sc.Run(ctx, conn, base+w); err != nil {
					outs[c].err = err
					return
				}
			}
			outs[c].durs = make([]time.Duration, 0, opts.Runs)
			for i := 0; i < opts.Runs; i++ {
				opStart := time.Now()
				rows, err := sc.Run(ctx, conn, base+opts.Warmup+i)
				opElapsed := time.Since(opStart)
				if err != nil {
					outs[c].err = err
					return
				}
				outs[c].ops++
				outs[c].rows += rows
				outs[c].durs = append(outs[c].durs, opElapsed)
			}
		}(c)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	totalRows := 0
	var durs []time.Duration
	for _, o := range outs {
		if o.err != nil && res.Err == nil {
			res.Err = o.err
		}
		res.Ops += o.ops
		totalRows += o.rows
		durs = append(durs, o.durs...)
	}
	if res.Ops > 0 && res.Elapsed > 0 {
		res.Throughput = float64(res.Ops) / res.Elapsed.Seconds()
		// Multiply before dividing: dividing first truncates to the
		// nanosecond per op and the error scales with the client count.
		res.MeanLatency = res.Elapsed * time.Duration(opts.Clients) / time.Duration(res.Ops)
		res.RowsPerOp = float64(totalRows) / float64(res.Ops)
	}
	if len(durs) > 0 {
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		res.P50Latency = quantile(durs, 50)
		res.P95Latency = quantile(durs, 95)
		res.P99Latency = quantile(durs, 99)
	}
	if statsCC != nil {
		if res.Ops > 0 {
			var memAfter runtime.MemStats
			runtime.ReadMemStats(&memAfter)
			res.AllocsPerOp = float64(memAfter.Mallocs-memBefore.Mallocs) / float64(res.Ops)
			res.BytesPerOp = float64(memAfter.TotalAlloc-memBefore.TotalAlloc) / float64(res.Ops)
		}
		after := statsCC.CacheCounters()
		res.PoolHitRatio = cacheRatio(after.PoolHits-before.PoolHits, after.PoolMisses-before.PoolMisses)
		res.TopoPrepHitRatio = cacheRatio(after.PrepHits-before.PrepHits, after.PrepMisses-before.PrepMisses)
		if after.WALEnabled {
			res.WALFsyncs = int(after.WALFsyncs - before.WALFsyncs)
			res.DirtyPages = int(after.DirtyPages) // gauge, not a delta
		}
	}
	if statsSS != nil {
		after := statsSS.ShardStats()
		res.Shards = after.Shards
		res.ShardPruneRate = pruneDelta(ssBefore, after)
		res.ShardFastPath = after.FastPathHits - ssBefore.FastPathHits
		res.ShardHedgeFired = after.HedgeFired - ssBefore.HedgeFired
		res.ShardHedgeWon = after.HedgeWon - ssBefore.HedgeWon
		res.JoinPushdown = after.JoinPushdowns - ssBefore.JoinPushdowns
	}
	if statsJS != nil {
		after := statsJS.JoinStats()
		res.JoinStrategy = joinStrategyLabel(jsBefore, after)
		res.PBSMCells = int(after.Cells - jsBefore.Cells)
		res.DedupDrops = int(after.DedupDrops - jsBefore.DedupDrops)
	}
	return res
}

// RunMacroSuite runs every scenario.
func RunMacroSuite(connector driver.Connector, ctx *QueryContext, opts Options) []MacroResult {
	var out []MacroResult
	for _, sc := range MacroSuite() {
		out = append(out, RunMacro(connector, sc, ctx, opts))
	}
	return out
}
