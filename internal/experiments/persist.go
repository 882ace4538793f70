package experiments

import (
	"fmt"
	"io"
	"os"
	"time"

	"jackpine/internal/core"
	"jackpine/internal/driver"
	"jackpine/internal/engine"
	"jackpine/internal/storage/wal"
	"jackpine/internal/tiger"
)

// E18 measures the durability subsystem end to end. The dataset is
// loaded into a durable (WAL-backed, file-paged) engine, checkpointed,
// and closed; the suites then run in three engine states:
//
//   - cold:   the directory is reopened — recovery replays the log,
//     the catalog is read back, indexes rebuild, and the buffer pool
//     starts empty, so every page faults in from the page file and
//     every geometry decodes from scratch.
//   - warm:   the same reopened engine after the cold pass — pages are
//     cached in the buffer pool.
//   - steady: an in-memory engine loaded with the same dataset, the
//     repository's non-durable baseline. The warm/steady gap is the
//     steady-state price of durability (WAL appends and group-commit
//     fsyncs on the write path); the cold/warm gap is the restart
//     price (faulting and re-decoding the working set).
//
// Between cold micro queries the pool is dropped, so each cold cell is
// a genuine first touch rather than riding the previous query's pages.

// E18Cell is one engine state's suite measurements.
type E18Cell struct {
	State string
	Micro []core.MicroResult
	Macro []core.MacroResult
}

// E18Stats captures the durability-side counters of an E18 run.
type E18Stats struct {
	LoadTime  time.Duration // dataset load + index build on the durable engine
	Load      wal.Stats     // WAL counters after the load
	Recovered uint64        // log records replayed by the cold reopen
}

// e18MicroIDs is the micro subset E18 tables: index-probing window
// predicates and scan-heavy analysis, the shapes whose cost moves with
// buffer-pool state.
var e18MicroIDs = []string{"MT2", "MT7", "MT8", "MA1", "MA5", "MA6"}

// E18Queries returns the micro queries E18 runs (exported for the
// BENCH_persist.json writer).
func E18Queries() []core.MicroQuery {
	var out []core.MicroQuery
	for _, q := range core.MicroSuite() {
		for _, id := range e18MicroIDs {
			if q.ID == id {
				out = append(out, q)
			}
		}
	}
	return out
}

// MeasureE18 runs the cold/warm/steady cells against the directory dir
// (created if needed; must be empty or a previous E18 directory that
// the caller accepts being overwritten is NOT supported — the load
// phase expects a fresh database). Cells are returned in cold, warm,
// steady order.
func MeasureE18(cfg Config, dir string) ([]E18Cell, E18Stats, error) {
	var st E18Stats
	scale := cfg.Scale
	if scale < tiger.Medium {
		scale = tiger.Medium
	}
	ds := tiger.Generate(scale, cfg.Seed)
	ctx := core.NewQueryContext(ds)
	ctx.FullWindows = cfg.FullJoins

	// Load phase: every statement WAL-logged and group-committed, then
	// a checkpoint on Close so the reopen replays only the tail.
	start := time.Now()
	eng, err := engine.OpenDurable(engine.GaiaDB(), dir, engine.WithPoolPages(8192))
	if err != nil {
		return nil, st, err
	}
	if err := tiger.Load(engineExecer{eng}, ds, true); err != nil {
		eng.Close()
		return nil, st, err
	}
	st.LoadTime = time.Since(start)
	if s, ok := eng.WALStats(); ok {
		st.Load = s
	}
	if err := eng.Close(); err != nil {
		return nil, st, err
	}

	// Cold + warm on the reopened engine.
	reopened, err := engine.OpenDurable(engine.GaiaDB(), dir, engine.WithPoolPages(8192))
	if err != nil {
		return nil, st, err
	}
	defer reopened.Close()
	if s, ok := reopened.WALStats(); ok {
		st.Recovered = s.Recovered
	}
	conn := driver.NewInProc(reopened)

	coldOpts := cfg.Opts
	coldOpts.Warmup, coldOpts.Runs = 0, 1
	var cold E18Cell
	cold.State = "cold"
	for _, q := range E18Queries() {
		// Drop the pool so each cold cell is a first touch.
		if err := reopened.Pool().DropAll(); err != nil {
			return nil, st, err
		}
		reopened.ResetCacheStats()
		res, err := core.RunMicro(conn, []core.MicroQuery{q}, ctx, coldOpts)
		if err != nil {
			return nil, st, err
		}
		cold.Micro = append(cold.Micro, res...)
	}
	for _, sc := range core.MacroSuite() {
		if err := reopened.Pool().DropAll(); err != nil {
			return nil, st, err
		}
		macroCold := coldOpts
		macroCold.Runs = cfg.Opts.Runs // one op per scenario is too noisy
		cold.Macro = append(cold.Macro, core.RunMacro(conn, sc, ctx, macroCold))
	}

	warm := E18Cell{State: "warm"}
	wm, err := core.RunMicro(conn, E18Queries(), ctx, cfg.Opts)
	if err != nil {
		return nil, st, err
	}
	warm.Micro = wm
	warm.Macro = core.RunMacroSuite(conn, ctx, cfg.Opts)

	// Steady baseline: the in-memory engine (no WAL, MemStore pages).
	mem := engine.Open(engine.GaiaDB(), engine.WithPoolPages(8192))
	defer mem.Close()
	if err := tiger.Load(engineExecer{mem}, ds, true); err != nil {
		return nil, st, err
	}
	memConn := driver.NewInProc(mem)
	steady := E18Cell{State: "steady"}
	sm, err := core.RunMicro(memConn, E18Queries(), ctx, cfg.Opts)
	if err != nil {
		return nil, st, err
	}
	steady.Micro = sm
	steady.Macro = core.RunMacroSuite(memConn, ctx, cfg.Opts)

	return []E18Cell{cold, warm, steady}, st, nil
}

// RunE18 regenerates the durability figure: cold/warm/steady response
// times plus the WAL-side counters (group-commit effectiveness during
// load, records replayed at reopen, fsyncs on the write-heavy macros).
func RunE18(w io.Writer, cfg Config) error {
	header(w, "E18", "durability: WAL, recovery, cold vs warm vs steady", cfg)
	dir := cfg.DataDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "jackpine-e18-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	cells, st, err := MeasureE18(cfg, dir)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "load: %s  wal_appends=%d commits=%d fsyncs=%d group_commit=%.1f\n",
		st.LoadTime.Round(time.Millisecond), st.Load.Appends, st.Load.Commits,
		st.Load.Fsyncs, st.Load.GroupCommitSize())
	fmt.Fprintf(w, "reopen: %d log records replayed\n\n", st.Recovered)

	cold, warm, steady := cells[0], cells[1], cells[2]
	fmt.Fprintf(w, "%-6s %-34s %12s %12s %12s %11s\n",
		"id", "micro query", "cold", "warm", "steady", "cold/warm")
	for i := range cold.Micro {
		c, wa, s := cold.Micro[i], warm.Micro[i], steady.Micro[i]
		ratio := 0.0
		if wa.Mean > 0 {
			ratio = float64(c.Mean) / float64(wa.Mean)
		}
		fmt.Fprintf(w, "%-6s %-34s %12s %12s %12s %10.1fx\n",
			c.ID, truncateName(c.Name, 34), c.Mean.Round(time.Microsecond),
			wa.Mean.Round(time.Microsecond), s.Mean.Round(time.Microsecond), ratio)
	}
	fmt.Fprintf(w, "\n%-6s %-24s %12s %12s %12s %10s\n",
		"id", "macro (ops/s)", "cold", "warm", "steady", "wal_fsync")
	for i := range cold.Macro {
		c, wa, s := cold.Macro[i], warm.Macro[i], steady.Macro[i]
		fmt.Fprintf(w, "%-6s %-24s %12.1f %12.1f %12.1f %10s\n",
			c.ID, truncateName(c.Name, 24), c.Throughput, wa.Throughput, s.Throughput,
			fmtFsyncs(wa.WALFsyncs))
	}
	return nil
}

// fmtFsyncs renders a wal_fsync cell, "-" when the engine has no WAL.
func fmtFsyncs(n int) string {
	if n < 0 {
		return "-"
	}
	return fmt.Sprintf("%d", n)
}

// truncateName shortens a label for fixed-width tables.
func truncateName(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
