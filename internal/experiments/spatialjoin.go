package experiments

import (
	"fmt"
	"io"
	"time"

	"jackpine/internal/cluster"
	"jackpine/internal/core"
	"jackpine/internal/driver"
	"jackpine/internal/engine"
	"jackpine/internal/sql"
	"jackpine/internal/tiger"
)

// E19Scenario returns the join-heavy macro E19 measures: MS7, whose
// three steps are all spatial table-to-table joins with aggregate
// outputs — the shape the partition-based spatial-merge join targets.
func E19Scenario() core.MacroScenario {
	for _, sc := range core.MacroSuite() {
		if sc.ID == "MS7" {
			return sc
		}
	}
	panic("experiments: MS7 missing from the macro suite")
}

// E19Cell is one (strategy, parallelism | shards) measurement of the
// MS7 workload.
type E19Cell struct {
	// Mean is the per-operation wall time of the best timed pass (the
	// minimum is the stable estimator of uncontended cost on a shared
	// host).
	Mean time.Duration
	// Rows is the rows retrieved per operation; E19 requires it to be
	// identical across strategies and topologies (the equivalence rail).
	Rows int
	// Cells and DedupDrops are the PBSM grid cells built and cross-cell
	// duplicate candidate pairs suppressed per operation (0 under INL).
	Cells      int64
	DedupDrops int64
	// Pushdowns counts joins answered shard-local per operation and
	// GatherBuilds the gather engines built over the whole measurement;
	// both are 0 for single-engine cells.
	Pushdowns    int
	GatherBuilds int
}

// e19Runs lower-bounds the timed passes so the best-pass estimator has
// something to choose from even under Options{Runs: 1}.
func e19Runs(cfg Config) int {
	if cfg.Opts.Runs > 3 {
		return cfg.Opts.Runs
	}
	return 3
}

// MeasureE19 runs the MS7 workload on a single GaiaDB engine with the
// given forced join strategy and worker-pool size: one warm operation,
// then `runs` timed ones, reporting the best. The join counters verify
// the forced strategy actually executed — a forced PBSM run that fell
// back to index nested loops would silently measure the wrong thing.
func MeasureE19(ds *tiger.Dataset, ctx *core.QueryContext, strat sql.JoinStrategy, parallelism, runs int) (E19Cell, error) {
	eng := engine.Open(engine.GaiaDB(), engine.WithJoinStrategy(strat))
	eng.SetParallelism(parallelism)
	if err := tiger.Load(engineExecer{eng}, ds, true); err != nil {
		return E19Cell{}, err
	}
	conn, err := driver.NewInProc(eng).Connect()
	if err != nil {
		return E19Cell{}, err
	}
	defer conn.Close()

	sc := E19Scenario()
	rows, err := sc.Run(ctx, conn, 0) // warm caches and plans
	if err != nil {
		return E19Cell{}, fmt.Errorf("experiments: E19 %s warmup: %w", strat, err)
	}
	before := eng.JoinStats()
	var best time.Duration
	for p := 0; p < runs; p++ {
		start := time.Now()
		r, err := sc.Run(ctx, conn, p+1)
		elapsed := time.Since(start)
		if err != nil {
			return E19Cell{}, fmt.Errorf("experiments: E19 %s: %w", strat, err)
		}
		if r != rows {
			return E19Cell{}, fmt.Errorf("experiments: E19 %s: rows drifted between runs (%d vs %d)", strat, r, rows)
		}
		if best == 0 || elapsed < best {
			best = elapsed
		}
	}
	after := eng.JoinStats()
	inl, pbsm := after.INL-before.INL, after.PBSM-before.PBSM
	switch strat {
	case sql.JoinINL:
		if inl == 0 || pbsm != 0 {
			return E19Cell{}, fmt.Errorf("experiments: E19 forced INL ran inl=%d pbsm=%d joins", inl, pbsm)
		}
	case sql.JoinPBSM:
		if pbsm == 0 || inl != 0 {
			return E19Cell{}, fmt.Errorf("experiments: E19 forced PBSM ran inl=%d pbsm=%d joins", inl, pbsm)
		}
	}
	return E19Cell{
		Mean:       best,
		Rows:       rows,
		Cells:      (after.Cells - before.Cells) / int64(runs),
		DedupDrops: (after.DedupDrops - before.DedupDrops) / int64(runs),
	}, nil
}

// MeasureE19Cluster runs the MS7 workload on an n-shard in-process
// GaiaDB cluster whose shard engines (and the router's own gather and
// complement engines) force the given join strategy. The aggregate
// spatial joins are co-partitioned, so the router answers them
// shard-local: a partial-aggregate scatter plus a boundary complement,
// never a whole-table gather — Pushdowns counts that, GatherBuilds
// cross-checks it.
func MeasureE19Cluster(ds *tiger.Dataset, ctx *core.QueryContext, strat sql.JoinStrategy, shards, runs int) (E19Cell, error) {
	part, err := cluster.NewPartitioner(ds.Extent, shards)
	if err != nil {
		return E19Cell{}, err
	}
	conns := make([]driver.Connector, shards)
	for i := range conns {
		eng := engine.Open(engine.GaiaDB(), engine.WithJoinStrategy(strat))
		if err := tiger.LoadShard(engineExecer{eng}, ds, true, i, part.Assign); err != nil {
			return E19Cell{}, fmt.Errorf("experiments: E19 load shard %d/%d: %w", i, shards, err)
		}
		conns[i] = driver.NewInProc(eng)
	}
	cl, err := cluster.Open(conns, part, cluster.Options{
		Profile:      engine.GaiaDB(),
		JoinStrategy: strat,
	})
	if err != nil {
		return E19Cell{}, err
	}
	for _, ddl := range tiger.Schema() {
		if err := cl.Register(ddl); err != nil {
			return E19Cell{}, err
		}
	}
	if err := cl.RefreshStats(); err != nil {
		return E19Cell{}, err
	}
	conn, err := cl.Connect()
	if err != nil {
		return E19Cell{}, err
	}
	defer conn.Close()

	sc := E19Scenario()
	rows, err := sc.Run(ctx, conn, 0)
	if err != nil {
		return E19Cell{}, fmt.Errorf("experiments: E19 %s on %d shards warmup: %w", strat, shards, err)
	}
	before := cl.ShardStats()
	var best time.Duration
	for p := 0; p < runs; p++ {
		start := time.Now()
		r, err := sc.Run(ctx, conn, p+1)
		elapsed := time.Since(start)
		if err != nil {
			return E19Cell{}, fmt.Errorf("experiments: E19 %s on %d shards: %w", strat, shards, err)
		}
		if r != rows {
			return E19Cell{}, fmt.Errorf("experiments: E19 %s on %d shards: rows drifted between runs (%d vs %d)", strat, shards, r, rows)
		}
		if best == 0 || elapsed < best {
			best = elapsed
		}
	}
	after := cl.ShardStats()
	return E19Cell{
		Mean:         best,
		Rows:         rows,
		Pushdowns:    (after.JoinPushdowns - before.JoinPushdowns) / runs,
		GatherBuilds: after.GatherBuilds - before.GatherBuilds,
	}, nil
}

// RunE19 regenerates the spatial-join figure: the MS7 overlay/proximity
// macro under index nested loops versus the partition-based
// spatial-merge join, across worker-pool sizes on a single engine and
// across cluster sizes with the joins pushed shard-local. Every cell
// retrieves the same rows — the speedups are pure execution strategy.
func RunE19(w io.Writer, cfg Config, parallelisms, shardCounts []int) error {
	header(w, "E19", "partition-based spatial-merge join", cfg)
	ds := tiger.Generate(cfg.Scale, cfg.Seed)
	ctx := core.NewQueryContext(ds)
	runs := e19Runs(cfg)

	fmt.Fprintf(w, "single engine (GaiaDB), MS7 per-operation time:\n")
	fmt.Fprintf(w, "%-12s %12s %12s %9s %7s %7s\n",
		"parallelism", "inl", "pbsm", "speedup", "cells", "dedup")
	wantRows := -1
	for _, par := range parallelisms {
		inl, err := MeasureE19(ds, ctx, sql.JoinINL, par, runs)
		if err != nil {
			return err
		}
		pbsm, err := MeasureE19(ds, ctx, sql.JoinPBSM, par, runs)
		if err != nil {
			return err
		}
		if inl.Rows != pbsm.Rows {
			return fmt.Errorf("experiments: E19 parallelism %d: INL retrieved %d rows, PBSM %d — strategies disagree",
				par, inl.Rows, pbsm.Rows)
		}
		if wantRows < 0 {
			wantRows = inl.Rows
		}
		fmt.Fprintf(w, "%-12d %12s %12s %8.2fx %7d %7d\n",
			par, inl.Mean.Round(time.Microsecond), pbsm.Mean.Round(time.Microsecond),
			float64(inl.Mean)/float64(pbsm.Mean), pbsm.Cells, pbsm.DedupDrops)
	}

	fmt.Fprintf(w, "\ncluster (GaiaDB shards), joins pushed shard-local:\n")
	fmt.Fprintf(w, "%-7s %12s %12s %9s %10s %8s\n",
		"shards", "inl", "pbsm", "speedup", "pushdowns", "gathers")
	for _, n := range shardCounts {
		inl, err := MeasureE19Cluster(ds, ctx, sql.JoinINL, n, runs)
		if err != nil {
			return err
		}
		pbsm, err := MeasureE19Cluster(ds, ctx, sql.JoinPBSM, n, runs)
		if err != nil {
			return err
		}
		for _, c := range []E19Cell{inl, pbsm} {
			if c.Rows != wantRows {
				return fmt.Errorf("experiments: E19 %d shards retrieved %d rows, single engine %d — topologies disagree",
					n, c.Rows, wantRows)
			}
		}
		if n > 1 && pbsm.Pushdowns == 0 {
			return fmt.Errorf("experiments: E19 %d shards: no join pushdowns — co-partitioned joins fell back to gather", n)
		}
		fmt.Fprintf(w, "%-7d %12s %12s %8.2fx %10d %8d\n",
			n, inl.Mean.Round(time.Microsecond), pbsm.Mean.Round(time.Microsecond),
			float64(inl.Mean)/float64(pbsm.Mean), pbsm.Pushdowns, pbsm.GatherBuilds)
	}
	return nil
}
