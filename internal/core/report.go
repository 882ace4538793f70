package core

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// WriteMicroTable renders micro results grouped by query, one column per
// engine, in the style of the paper's response-time tables.
func WriteMicroTable(w io.Writer, results []MicroResult) {
	engines := engineOrder(results)
	byKey := make(map[string]map[string]MicroResult)
	var order []string
	names := make(map[string]string)
	for _, r := range results {
		if _, ok := byKey[r.ID]; !ok {
			byKey[r.ID] = make(map[string]MicroResult)
			order = append(order, r.ID)
			names[r.ID] = r.Name
		}
		byKey[r.ID][r.Engine] = r
	}

	fmt.Fprintf(w, "%-6s %-42s", "id", "query")
	for _, e := range engines {
		fmt.Fprintf(w, " %14s", e)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, strings.Repeat("-", 49+15*len(engines)))
	for _, id := range order {
		fmt.Fprintf(w, "%-6s %-42s", id, truncate(names[id], 42))
		for _, e := range engines {
			r, ok := byKey[id][e]
			switch {
			case !ok:
				fmt.Fprintf(w, " %14s", "-")
			case r.Unsupported:
				fmt.Fprintf(w, " %14s", "unsupported")
			case r.Err != nil:
				fmt.Fprintf(w, " %14s", "ERROR")
			default:
				fmt.Fprintf(w, " %14s", fmtDuration(r.Mean))
			}
		}
		fmt.Fprintln(w)
	}
}

// WriteMicroCSV renders micro results as CSV. The trailing hit-ratio
// columns are blank when the connection does not expose cache counters
// or the cache saw no traffic.
func WriteMicroCSV(w io.Writer, results []MicroResult) {
	fmt.Fprintln(w, "id,name,category,engine,runs,parallelism,mean_us,p50_us,p95_us,p99_us,min_us,max_us,rows,unsupported,error,pool_hit,prep_hit,allocs,bytes,shards,shard_prune,shard_fastpath,hedge_fired,hedge_won,wal_fsync,dirty_pages,join_strategy,pbsm_cells,dedup_drops,join_pushdown")
	for _, r := range results {
		errMsg := ""
		if r.Err != nil {
			errMsg = strings.ReplaceAll(r.Err.Error(), ",", ";")
		}
		fmt.Fprintf(w, "%s,%s,%s,%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%v,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s\n",
			r.ID, csvQuote(r.Name), r.Category, r.Engine, r.Runs, r.Parallelism,
			r.Mean.Microseconds(), r.Median.Microseconds(), r.P95.Microseconds(),
			r.P99.Microseconds(), r.Min.Microseconds(), r.Max.Microseconds(),
			r.Rows, r.Unsupported, errMsg,
			fmtRatio(r.PoolHitRatio), fmtRatio(r.TopoPrepHitRatio), fmtCount(r.AllocsPerRun), fmtCount(r.BytesPerRun),
			fmtShards(r.Shards), fmtRatio(r.ShardPruneRate),
			fmtShardCount(r.Shards, r.ShardFastPath), fmtShardCount(r.Shards, r.ShardHedgeFired),
			fmtShardCount(r.Shards, r.ShardHedgeWon),
			fmtIntCount(r.WALFsyncs), fmtIntCount(r.DirtyPages),
			r.JoinStrategy, fmtIntCount(r.PBSMCells), fmtIntCount(r.DedupDrops),
			fmtShardCount(r.Shards, r.JoinPushdown))
	}
}

// WriteMacroTable renders macro results grouped by scenario.
func WriteMacroTable(w io.Writer, results []MacroResult) {
	engines := engineOrderMacro(results)
	byKey := make(map[string]map[string]MacroResult)
	var order []string
	names := make(map[string]string)
	for _, r := range results {
		if _, ok := byKey[r.ID]; !ok {
			byKey[r.ID] = make(map[string]MacroResult)
			order = append(order, r.ID)
			names[r.ID] = r.Name
		}
		byKey[r.ID][r.Engine] = r
	}
	fmt.Fprintf(w, "%-5s %-30s", "id", "scenario (ops/sec)")
	for _, e := range engines {
		fmt.Fprintf(w, " %14s", e)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, strings.Repeat("-", 36+15*len(engines)))
	for _, id := range order {
		fmt.Fprintf(w, "%-5s %-30s", id, truncate(names[id], 30))
		for _, e := range engines {
			r, ok := byKey[id][e]
			switch {
			case !ok:
				fmt.Fprintf(w, " %14s", "-")
			case r.Unsupported:
				fmt.Fprintf(w, " %14s", "unsupported")
			case r.Err != nil:
				fmt.Fprintf(w, " %14s", "ERROR")
			default:
				fmt.Fprintf(w, " %14.2f", r.Throughput)
			}
		}
		fmt.Fprintln(w)
	}
}

// WriteMacroCSV renders macro results as CSV. Hit-ratio columns follow
// the micro CSV convention (blank when unknown).
func WriteMacroCSV(w io.Writer, results []MacroResult) {
	fmt.Fprintln(w, "id,name,engine,clients,parallelism,ops,elapsed_ms,ops_per_sec,mean_latency_us,p50_latency_us,p95_latency_us,p99_latency_us,rows_per_op,unsupported,error,pool_hit,prep_hit,allocs,bytes,shards,shard_prune,shard_fastpath,hedge_fired,hedge_won,wal_fsync,dirty_pages,join_strategy,pbsm_cells,dedup_drops,join_pushdown")
	for _, r := range results {
		errMsg := ""
		if r.Err != nil {
			errMsg = strings.ReplaceAll(r.Err.Error(), ",", ";")
		}
		fmt.Fprintf(w, "%s,%s,%s,%d,%d,%d,%d,%.3f,%d,%d,%d,%d,%.1f,%v,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s\n",
			r.ID, csvQuote(r.Name), r.Engine, r.Clients, r.Parallelism, r.Ops,
			r.Elapsed.Milliseconds(), r.Throughput, r.MeanLatency.Microseconds(),
			r.P50Latency.Microseconds(), r.P95Latency.Microseconds(), r.P99Latency.Microseconds(),
			r.RowsPerOp, r.Unsupported, errMsg,
			fmtRatio(r.PoolHitRatio), fmtRatio(r.TopoPrepHitRatio), fmtCount(r.AllocsPerOp), fmtCount(r.BytesPerOp),
			fmtShards(r.Shards), fmtRatio(r.ShardPruneRate),
			fmtShardCount(r.Shards, r.ShardFastPath), fmtShardCount(r.Shards, r.ShardHedgeFired),
			fmtShardCount(r.Shards, r.ShardHedgeWon),
			fmtIntCount(r.WALFsyncs), fmtIntCount(r.DirtyPages),
			r.JoinStrategy, fmtIntCount(r.PBSMCells), fmtIntCount(r.DedupDrops),
			fmtShardCount(r.Shards, r.JoinPushdown))
	}
}

// fmtShards renders a cluster size, blank for single-engine runs.
func fmtShards(n int) string {
	if n <= 0 {
		return ""
	}
	return fmt.Sprintf("%d", n)
}

// fmtShardCount renders a cluster routing counter, blank for
// single-engine runs (where the value is meaningless rather than zero).
func fmtShardCount(shards, n int) string {
	if shards <= 0 {
		return ""
	}
	return fmt.Sprintf("%d", n)
}

// fmtIntCount renders a durability counter, blank when unknown (< 0,
// i.e. the engine has no WAL attached).
func fmtIntCount(n int) string {
	if n < 0 {
		return ""
	}
	return fmt.Sprintf("%d", n)
}

// fmtCount renders a per-iteration allocation count or byte volume,
// blank when unknown (< 0).
func fmtCount(c float64) string {
	if c < 0 {
		return ""
	}
	return fmt.Sprintf("%.0f", c)
}

// fmtRatio renders a cache hit ratio, blank when unknown (< 0).
func fmtRatio(r float64) string {
	if r < 0 {
		return ""
	}
	return fmt.Sprintf("%.3f", r)
}

func engineOrder(results []MicroResult) []string {
	var out []string
	seen := map[string]bool{}
	for _, r := range results {
		if !seen[r.Engine] {
			seen[r.Engine] = true
			out = append(out, r.Engine)
		}
	}
	return out
}

func engineOrderMacro(results []MacroResult) []string {
	var out []string
	seen := map[string]bool{}
	for _, r := range results {
		if !seen[r.Engine] {
			seen[r.Engine] = true
			out = append(out, r.Engine)
		}
	}
	return out
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

func csvQuote(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// fmtDuration renders a duration compactly (µs below 10 ms, ms below
// 10 s, seconds above).
func fmtDuration(d time.Duration) string {
	switch {
	case d < 10*time.Millisecond:
		return fmt.Sprintf("%dµs", d.Microseconds())
	case d < 10*time.Second:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}
