package experiments

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"jackpine/internal/cluster"
	"jackpine/internal/core"
	"jackpine/internal/driver"
	"jackpine/internal/engine"
	"jackpine/internal/tiger"
)

// SetupCluster builds an in-process spatially-sharded cluster: n engines
// with the given profile, each preloaded with its grid-partition slice of
// the dataset (fully indexed), assembled behind one scatter-gather
// router. The router's catalog is registered from the benchmark schema
// and its pruning statistics are bootstrapped from the shards.
func SetupCluster(p engine.Profile, ds *tiger.Dataset, n int) (*cluster.Cluster, error) {
	part, err := cluster.NewPartitioner(ds.Extent, n)
	if err != nil {
		return nil, err
	}
	shards := make([]driver.Connector, n)
	for i := range shards {
		eng := engine.Open(p)
		if err := tiger.LoadShard(engineExecer{eng}, ds, true, i, part.Assign); err != nil {
			return nil, fmt.Errorf("experiments: load shard %d/%d: %w", i, n, err)
		}
		shards[i] = driver.NewInProc(eng)
	}
	cl, err := cluster.Open(shards, part, cluster.Options{Profile: p})
	if err != nil {
		return nil, err
	}
	for _, ddl := range tiger.Schema() {
		if err := cl.Register(ddl); err != nil {
			return nil, err
		}
	}
	if err := cl.RefreshStats(); err != nil {
		return nil, err
	}
	return cl, nil
}

// RunE15 regenerates the scale-out figure: macro throughput and latency
// percentiles (MS1 map search and browsing, MS3 geocoding) and micro
// latency (MA2 full-scan aggregate, MA6 windowed refinement, MT1 join)
// on spatially-sharded GaiaDB clusters of increasing size. Every query
// returns results byte-identical to a single engine; only throughput
// and latency move. Window-driven queries benefit three ways —
// single-shard fast-path forwarding, smaller per-shard inputs, and
// spatial pruning of shards whose data MBR misses the window — while
// full-scan work is bounded by the machine's core count, since all
// shards of an in-process cluster share one machine.
func RunE15(w io.Writer, cfg Config, shardCounts []int) error {
	header(w, "E15", "scale-out: spatially-sharded cluster", cfg)
	ds := tiger.Generate(cfg.Scale, cfg.Seed)
	ctx := core.NewQueryContext(ds)

	var macros []core.MacroScenario
	for _, sc := range core.MacroSuite() {
		if sc.ID == "MS1" || sc.ID == "MS3" {
			macros = append(macros, sc)
		}
	}
	keep := map[string]bool{"MA2": true, "MA6": true, "MT1": true}
	var micros []core.MicroQuery
	for _, q := range core.MicroSuite() {
		if keep[q.ID] {
			micros = append(micros, q)
		}
	}

	fmt.Fprintf(w, "machine: %d CPUs (GOMAXPROCS %d); all shards share it\n\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "%-7s", "shards")
	for _, sc := range macros {
		fmt.Fprintf(w, " %10s %8s %9s %9s", sc.ID+" op/s", "speedup", "p50", "p99")
	}
	for _, q := range micros {
		fmt.Fprintf(w, " %12s", q.ID)
	}
	fmt.Fprintf(w, " %7s %9s\n", "prune", "fastpath")

	baseThroughput := make([]float64, len(macros))
	for _, n := range shardCounts {
		cl, err := SetupCluster(engine.GaiaDB(), ds, n)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-7d", n)
		for i, sc := range macros {
			res := core.RunMacro(cl, sc, ctx, cfg.Opts)
			if res.Err != nil {
				return fmt.Errorf("%s on %d shards: %w", sc.ID, n, res.Err)
			}
			if baseThroughput[i] == 0 {
				baseThroughput[i] = res.Throughput
			}
			fmt.Fprintf(w, " %10.1f %7.2fx %9s %9s", res.Throughput,
				res.Throughput/baseThroughput[i],
				res.P50Latency.Round(time.Microsecond),
				res.P99Latency.Round(time.Microsecond))
		}
		micRes, err := core.RunMicro(cl, micros, ctx, cfg.Opts)
		if err != nil {
			return fmt.Errorf("micro on %d shards: %w", n, err)
		}
		for _, r := range micRes {
			if r.Err != nil {
				return fmt.Errorf("%s on %d shards: %w", r.ID, n, r.Err)
			}
			fmt.Fprintf(w, " %12s", r.Mean.Round(time.Microsecond))
		}
		ss := cl.ShardStats()
		fmt.Fprintf(w, " %7s %9d\n", fmtPruneRate(ss.PruneRate()), ss.FastPathHits)
	}
	return nil
}

// fmtPruneRate renders a shard-pruning rate as a percentage, "-" when no
// scatter was prune-eligible.
func fmtPruneRate(r float64) string {
	if r < 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*r)
}
