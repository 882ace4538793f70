// Package experiments reproduces the Jackpine paper's evaluation: each
// exported RunE* function regenerates one table or figure (see DESIGN.md
// for the experiment index) and renders it as text. The functions are
// shared by the cmd/jackpine harness and the repository's testing.B
// benchmarks.
package experiments

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"time"

	"jackpine/internal/core"
	"jackpine/internal/driver"
	"jackpine/internal/engine"
	"jackpine/internal/tiger"
)

// Config parameterizes an experiment run.
type Config struct {
	// Scale selects the dataset size.
	Scale tiger.Scale
	// Seed drives data generation and probe placement.
	Seed int64
	// Opts are the workload-runner options.
	Opts core.Options
	// Profiles are the engines to compare (default: all three).
	Profiles []engine.Profile
	// FullJoins makes the micro joins run over the whole extent, as the
	// original paper did, instead of sampled windows.
	FullJoins bool
	// DataDir roots the durable experiments (E18): the write-ahead log
	// and page file live under it. Empty means a temporary directory
	// removed when the experiment finishes.
	DataDir string
}

// DefaultConfig returns small-scale defaults suitable for interactive
// runs.
func DefaultConfig() Config {
	return Config{
		Scale:    tiger.Small,
		Seed:     1,
		Opts:     core.DefaultOptions(),
		Profiles: engine.AllProfiles(),
	}
}

// Env is a prepared benchmark environment: one generated dataset loaded
// into one engine per profile, fully indexed.
type Env struct {
	Config     Config
	Dataset    *tiger.Dataset
	Ctx        *core.QueryContext
	Engines    []*engine.Engine
	Connectors []driver.Connector
}

type engineExecer struct{ e *engine.Engine }

// Exec implements tiger.Execer.
func (a engineExecer) Exec(q string) error {
	_, err := a.e.Exec(q)
	return err
}

// Setup generates the dataset and loads every profile's engine.
func Setup(cfg Config) (*Env, error) {
	if len(cfg.Profiles) == 0 {
		cfg.Profiles = engine.AllProfiles()
	}
	ds := tiger.Generate(cfg.Scale, cfg.Seed)
	ctx := core.NewQueryContext(ds)
	ctx.FullWindows = cfg.FullJoins
	env := &Env{Config: cfg, Dataset: ds, Ctx: ctx}
	for _, p := range cfg.Profiles {
		eng := engine.Open(p)
		if err := tiger.Load(engineExecer{eng}, ds, true); err != nil {
			return nil, fmt.Errorf("experiments: load %s: %w", p.Name, err)
		}
		env.Engines = append(env.Engines, eng)
		env.Connectors = append(env.Connectors, driver.NewInProc(eng))
	}
	return env, nil
}

// header prints an experiment banner.
func header(w io.Writer, id, title string, cfg Config) {
	fmt.Fprintf(w, "\n=== %s: %s (scale=%s, seed=%d) ===\n\n", id, title, cfg.Scale, cfg.Seed)
}

// RunE1 regenerates the dataset-statistics table.
func RunE1(w io.Writer, cfg Config) error {
	header(w, "E1", "dataset statistics", cfg)
	fmt.Fprintf(w, "%-10s %10s %12s %12s\n", "layer", "features", "coords", "wkb_bytes")
	ds := tiger.Generate(cfg.Scale, cfg.Seed)
	totalF, totalC, totalB := 0, 0, 0
	for _, s := range ds.Stats() {
		fmt.Fprintf(w, "%-10s %10d %12d %12d\n", s.Layer, s.Features, s.Coords, s.WKBBytes)
		totalF += s.Features
		totalC += s.Coords
		totalB += s.WKBBytes
	}
	fmt.Fprintf(w, "%-10s %10d %12d %12d\n", "TOTAL", totalF, totalC, totalB)
	return nil
}

// RunQueryCatalog regenerates the paper's query-definition tables: the
// full micro suite with an example SQL rendering of each query.
func RunQueryCatalog(w io.Writer, cfg Config) error {
	header(w, "catalog", "micro benchmark query definitions", cfg)
	ds := tiger.Generate(cfg.Scale, cfg.Seed)
	ctx := core.NewQueryContext(ds)
	for _, q := range core.MicroSuite() {
		fmt.Fprintf(w, "%-6s %-14s %s\n", q.ID, q.Category, q.Name)
		fmt.Fprintf(w, "       %s\n\n", q.SQL(ctx, 0))
	}
	for _, sc := range core.MacroSuite() {
		fmt.Fprintf(w, "%-6s %-14s %s\n", sc.ID, "macro", sc.Name)
	}
	return nil
}

// RunE2 regenerates the micro topological response-time comparison.
func RunE2(w io.Writer, env *Env) error {
	header(w, "E2", "micro benchmark: DE-9IM topological queries", env.Config)
	return runMicroSuite(w, env, core.TopologicalSuite())
}

// RunE3 regenerates the micro analysis-function comparison.
func RunE3(w io.Writer, env *Env) error {
	header(w, "E3", "micro benchmark: spatial analysis functions", env.Config)
	return runMicroSuite(w, env, core.AnalysisSuite())
}

func runMicroSuite(w io.Writer, env *Env, suite []core.MicroQuery) error {
	var all []core.MicroResult
	for _, conn := range env.Connectors {
		res, err := core.RunMicro(conn, suite, env.Ctx, env.Config.Opts)
		if err != nil {
			return err
		}
		all = append(all, res...)
	}
	core.WriteMicroTable(w, all)
	return nil
}

// RunE4 regenerates the macro-scenario throughput comparison.
func RunE4(w io.Writer, env *Env) error {
	header(w, "E4", "macro workload throughput", env.Config)
	var all []core.MacroResult
	for _, conn := range env.Connectors {
		all = append(all, core.RunMacroSuite(conn, env.Ctx, env.Config.Opts)...)
	}
	core.WriteMacroTable(w, all)
	return nil
}

// indexEffectQueries are the selective queries whose cost collapses when
// a spatial index exists.
func indexEffectQueries() []core.MicroQuery {
	suite := core.MicroSuite()
	keep := map[string]bool{"MT2": true, "MT7": true, "MT8": true, "MA6": true}
	var out []core.MicroQuery
	for _, q := range suite {
		if keep[q.ID] {
			out = append(out, q)
		}
	}
	return out
}

// RunE5 regenerates the spatial-index effect figure: the same selective
// queries with the R-tree present and absent (GaiaDB profile).
func RunE5(w io.Writer, cfg Config) error {
	header(w, "E5", "effect of the spatial index", cfg)
	ds := tiger.Generate(cfg.Scale, cfg.Seed)
	ctx := core.NewQueryContext(ds)

	measure := func(indexed bool) ([]core.MicroResult, error) {
		eng := engine.Open(engine.GaiaDB())
		if err := tiger.Load(engineExecer{eng}, ds, indexed); err != nil {
			return nil, err
		}
		return core.RunMicro(driver.NewInProc(eng), indexEffectQueries(), ctx, cfg.Opts)
	}
	with, err := measure(true)
	if err != nil {
		return err
	}
	without, err := measure(false)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-6s %-36s %14s %14s %10s\n", "id", "query", "indexed", "no index", "speedup")
	for i := range with {
		speedup := float64(without[i].Mean) / float64(with[i].Mean)
		fmt.Fprintf(w, "%-6s %-36s %14s %14s %9.1fx\n",
			with[i].ID, with[i].Name, with[i].Mean.Round(time.Microsecond),
			without[i].Mean.Round(time.Microsecond), speedup)
	}
	return nil
}

// RunE6 regenerates the scale-up figure: representative micro and macro
// operations at increasing dataset scales on the GaiaDB profile.
func RunE6(w io.Writer, cfg Config, scales []tiger.Scale) error {
	header(w, "E6", "scale-up", cfg)
	keep := map[string]bool{"MT3": true, "MT7": true, "MA1": true}
	var queries []core.MicroQuery
	for _, q := range core.MicroSuite() {
		if keep[q.ID] {
			queries = append(queries, q)
		}
	}
	fmt.Fprintf(w, "%-8s %10s", "scale", "features")
	for _, q := range queries {
		fmt.Fprintf(w, " %12s", q.ID)
	}
	fmt.Fprintf(w, " %12s %12s\n", "MS2(ops/s)", "MS3(ops/s)")
	for _, scale := range scales {
		ds := tiger.Generate(scale, cfg.Seed)
		ctx := core.NewQueryContext(ds)
		eng := engine.Open(engine.GaiaDB())
		if err := tiger.Load(engineExecer{eng}, ds, true); err != nil {
			return err
		}
		conn := driver.NewInProc(eng)
		micro, err := core.RunMicro(conn, queries, ctx, cfg.Opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8s %10d", scale, ds.TotalFeatures())
		for _, r := range micro {
			fmt.Fprintf(w, " %12s", r.Mean.Round(time.Microsecond))
		}
		geo := core.RunMacro(conn, core.MacroSuite()[1], ctx, cfg.Opts)
		rev := core.RunMacro(conn, core.MacroSuite()[2], ctx, cfg.Opts)
		fmt.Fprintf(w, " %12.1f %12.1f\n", geo.Throughput, rev.Throughput)
	}
	return nil
}

// RunE7 regenerates the exact-vs-MBR semantics table: result counts and
// times for the same topological queries on the exact and MBR engines.
func RunE7(w io.Writer, env *Env) error {
	header(w, "E7", "exact vs MBR-only predicate semantics", env.Config)
	exact, mbr, err := pickEnginePair(env)
	if err != nil {
		return err
	}
	keep := map[string]bool{"MT3": true, "MT5": true, "MT6": true, "MT7": true}
	var queries []core.MicroQuery
	for _, q := range core.TopologicalSuite() {
		if keep[q.ID] {
			queries = append(queries, q)
		}
	}
	ce, err := exact.Connect()
	if err != nil {
		return err
	}
	defer ce.Close()
	cm, err := mbr.Connect()
	if err != nil {
		return err
	}
	defer cm.Close()

	fmt.Fprintf(w, "%-6s %-32s %12s %12s %12s %12s %9s\n",
		"id", "query", "exact_count", "mbr_count", "exact_time", "mbr_time", "excess")
	for _, q := range queries {
		sqlText := q.SQL(env.Ctx, 0)
		t0 := time.Now()
		re, err := ce.Query(sqlText)
		exactTime := time.Since(t0)
		if err != nil {
			return err
		}
		t0 = time.Now()
		rm, err := cm.Query(sqlText)
		mbrTime := time.Since(t0)
		if err != nil {
			return err
		}
		exactN := re.Rows[0][0].Int
		mbrN := rm.Rows[0][0].Int
		excess := "0%"
		if exactN > 0 {
			excess = fmt.Sprintf("%.0f%%", 100*float64(mbrN-exactN)/float64(exactN))
		} else if mbrN > 0 {
			excess = "inf"
		}
		fmt.Fprintf(w, "%-6s %-32s %12d %12d %12s %12s %9s\n",
			q.ID, q.Name, exactN, mbrN,
			exactTime.Round(time.Microsecond), mbrTime.Round(time.Microsecond), excess)
	}
	return nil
}

func pickEnginePair(env *Env) (exact, mbr driver.Connector, err error) {
	for i, eng := range env.Engines {
		p := eng.Profile()
		switch {
		case p.MBRPredicates && mbr == nil:
			mbr = env.Connectors[i]
		case !p.MBRPredicates && exact == nil:
			exact = env.Connectors[i]
		}
	}
	if exact == nil || mbr == nil {
		return nil, nil, fmt.Errorf("experiments: E7 needs one exact and one MBR profile")
	}
	return exact, mbr, nil
}

// featureProbe lists the function surface the support matrix reports.
var featureProbe = []string{
	"ST_Intersects", "ST_Contains", "ST_Within", "ST_Touches", "ST_Crosses",
	"ST_Overlaps", "ST_Equals", "ST_Disjoint", "ST_Covers", "ST_CoveredBy",
	"ST_Relate", "ST_DWithin", "ST_Distance", "ST_Area", "ST_Length",
	"ST_Buffer", "ST_ConvexHull", "ST_Envelope", "ST_Centroid",
	"ST_PointOnSurface", "ST_Union", "ST_Intersection", "ST_Difference",
	"ST_SymDifference", "ST_Boundary",
}

// RunE8 regenerates the feature-support matrix.
func RunE8(w io.Writer, env *Env) error {
	header(w, "E8", "spatial feature support matrix", env.Config)
	fmt.Fprintf(w, "%-20s", "function")
	for _, eng := range env.Engines {
		fmt.Fprintf(w, " %12s", eng.Profile().Name)
	}
	fmt.Fprintln(w)
	for _, fn := range featureProbe {
		fmt.Fprintf(w, "%-20s", fn)
		for _, eng := range env.Engines {
			mark := "yes"
			if !eng.SupportsFunction(fn) {
				mark = "-"
			} else if eng.Profile().MBRPredicates && isPredicate(fn) {
				mark = "MBR-only"
			}
			fmt.Fprintf(w, " %12s", mark)
		}
		fmt.Fprintln(w)
	}
	return nil
}

func isPredicate(fn string) bool {
	switch fn {
	case "ST_Intersects", "ST_Contains", "ST_Within", "ST_Touches", "ST_Crosses",
		"ST_Overlaps", "ST_Equals", "ST_Disjoint", "ST_Covers", "ST_CoveredBy",
		"ST_DWithin":
		return true
	}
	return false
}

// RunE9 regenerates the cold-vs-warm buffer cache figure: map-browsing
// window queries with a simulated per-miss I/O penalty, measured once
// from a dropped (cold) cache and again warm. The pool is sized to hold
// the working set, so the warm pass is miss-free and the gap isolates
// the cost of faulting pages in — the effect the paper's cold/warm runs
// measured with a real page cache. The dataset is upgraded to at least
// medium scale so a meaningful number of pages is touched.
func RunE9(w io.Writer, cfg Config) error {
	header(w, "E9", "cold vs warm buffer cache", cfg)
	scale := cfg.Scale
	if scale < tiger.Medium {
		scale = tiger.Medium
	}
	ds := tiger.Generate(scale, cfg.Seed)
	ctx := core.NewQueryContext(ds)
	eng := engine.Open(engine.GaiaDB(), engine.WithPoolPages(8192))
	if err := tiger.Load(engineExecer{eng}, ds, true); err != nil {
		return err
	}
	eng.Pool().MissPenalty = 100 * time.Microsecond

	conn, err := driver.NewInProc(eng).Connect()
	if err != nil {
		return err
	}
	defer conn.Close()

	queries := make([]string, 0, 24)
	for i := 0; i < 12; i++ {
		win := core.WindowWKT(ctx.Window("E9", i, 6))
		queries = append(queries,
			fmt.Sprintf("SELECT id, ST_AsText(geo) FROM parcels WHERE ST_Intersects(geo, %s)", win),
			fmt.Sprintf("SELECT id, ST_AsText(geo) FROM edges WHERE ST_Intersects(geo, %s)", win))
	}
	run := func() (time.Duration, float64, error) {
		eng.Pool().ResetStats()
		start := time.Now()
		for _, q := range queries {
			if _, err := conn.Query(q); err != nil {
				return 0, 0, err
			}
		}
		return time.Since(start), eng.Pool().Stats().HitRatio(), nil
	}
	if err := eng.Pool().DropAll(); err != nil {
		return err
	}
	coldTime, coldHit, err := run()
	if err != nil {
		return err
	}
	warmTime, warmHit, err := run()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-8s %14s %10s\n", "state", "time", "hit ratio")
	fmt.Fprintf(w, "%-8s %14s %9.1f%%\n", "cold", coldTime.Round(time.Microsecond), 100*coldHit)
	fmt.Fprintf(w, "%-8s %14s %9.1f%%\n", "warm", warmTime.Round(time.Microsecond), 100*warmHit)
	fmt.Fprintf(w, "cold/warm slowdown: %.1fx\n", float64(coldTime)/float64(warmTime))
	return nil
}

// RunE10 regenerates the multi-client throughput figure: geocoding and
// reverse geocoding at increasing client counts on GaiaDB.
func RunE10(w io.Writer, env *Env, clientCounts []int) error {
	header(w, "E10", "multi-client macro throughput", env.Config)
	conn := env.Connectors[0]
	scenarios := []core.MacroScenario{core.MacroSuite()[1], core.MacroSuite()[2]}
	fmt.Fprintf(w, "%-8s", "clients")
	for _, sc := range scenarios {
		fmt.Fprintf(w, " %20s", sc.ID+" ops/s")
	}
	fmt.Fprintln(w)
	for _, c := range clientCounts {
		opts := env.Config.Opts
		opts.Clients = c
		fmt.Fprintf(w, "%-8d", c)
		for _, sc := range scenarios {
			r := core.RunMacro(conn, sc, env.Ctx, opts)
			if r.Err != nil {
				return r.Err
			}
			fmt.Fprintf(w, " %20.1f", r.Throughput)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// RunE11 regenerates the selectivity sweep: window query cost as the
// window grows from a fraction of a block to a large share of the map.
func RunE11(w io.Writer, env *Env) error {
	header(w, "E11", "window selectivity sweep", env.Config)
	conn, err := env.Connectors[0].Connect()
	if err != nil {
		return err
	}
	defer conn.Close()
	extentArea := env.Dataset.Extent.Area()
	fmt.Fprintf(w, "%-10s %10s %12s %10s\n", "blocks", "sel(%)", "time", "rows")
	for _, blocks := range []float64{0.5, 1, 2, 4, 8, 12} {
		win := env.Ctx.Window("E11", int(blocks*10), blocks)
		q := fmt.Sprintf("SELECT id FROM pointlm WHERE ST_Intersects(geo, %s)", core.WindowWKT(win))
		var rows int
		start := time.Now()
		reps := 5
		for i := 0; i < reps; i++ {
			rs, err := conn.Query(q)
			if err != nil {
				return err
			}
			rows = len(rs.Rows)
		}
		elapsed := time.Since(start) / time.Duration(reps)
		fmt.Fprintf(w, "%-10g %10.3f %12s %10d\n",
			blocks, 100*win.Area()/extentArea, elapsed.Round(time.Microsecond), rows)
	}
	return nil
}

// RunE12 regenerates the join-strategy ablation: the MT2 spatial join
// with an index-nested-loop inner versus a full nested loop after
// dropping the inner index.
func RunE12(w io.Writer, cfg Config) error {
	header(w, "E12", "spatial join strategy ablation", cfg)
	ds := tiger.Generate(cfg.Scale, cfg.Seed)
	ctx := core.NewQueryContext(ds)
	var q core.MicroQuery
	for _, cand := range core.TopologicalSuite() {
		if cand.ID == "MT2" {
			q = cand
		}
	}
	eng := engine.Open(engine.GaiaDB())
	if err := tiger.Load(engineExecer{eng}, ds, true); err != nil {
		return err
	}
	conn := driver.NewInProc(eng)
	withIdx, err := core.RunMicro(conn, []core.MicroQuery{q}, ctx, cfg.Opts)
	if err != nil {
		return err
	}
	eng.DropSpatialIndex("edges", "geo")
	withoutIdx, err := core.RunMicro(conn, []core.MicroQuery{q}, ctx, cfg.Opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-24s %14s\n", "strategy", "mean time")
	fmt.Fprintf(w, "%-24s %14s\n", "index nested loop", withIdx[0].Mean.Round(time.Microsecond))
	fmt.Fprintf(w, "%-24s %14s\n", "block nested loop", withoutIdx[0].Mean.Round(time.Microsecond))
	fmt.Fprintf(w, "index speedup: %.1fx\n", float64(withoutIdx[0].Mean)/float64(withIdx[0].Mean))
	return nil
}

// RunE13 regenerates the intra-query parallelism scaling figure: a
// scan-heavy aggregate (MA2, full scan over edges) and a
// refinement-heavy spatial window (MA6, R-tree candidates + exact
// distance refinement over pointlm) at increasing worker counts on
// GaiaDB. Results are identical at every parallelism level; only the
// response time moves. (Tables below the 256-row parallel threshold
// keep the serial plan regardless of the knob.)
func RunE13(w io.Writer, cfg Config, workers []int) error {
	header(w, "E13", "intra-query parallelism scaling", cfg)
	ds := tiger.Generate(cfg.Scale, cfg.Seed)
	ctx := core.NewQueryContext(ds)
	keep := map[string]bool{"MA2": true, "MA6": true}
	var queries []core.MicroQuery
	for _, q := range core.MicroSuite() {
		if keep[q.ID] {
			queries = append(queries, q)
		}
	}
	eng := engine.Open(engine.GaiaDB())
	if err := tiger.Load(engineExecer{eng}, ds, true); err != nil {
		return err
	}
	conn := driver.NewInProc(eng)

	fmt.Fprintf(w, "machine: %d CPUs (GOMAXPROCS %d)\n\n", runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "%-9s", "workers")
	for _, q := range queries {
		fmt.Fprintf(w, " %12s %9s", q.ID, "speedup")
	}
	fmt.Fprintln(w)
	base := make([]time.Duration, len(queries))
	for _, n := range workers {
		eng.SetParallelism(n)
		opts := cfg.Opts
		opts.Parallelism = n
		res, err := core.RunMicro(conn, queries, ctx, opts)
		if err != nil {
			eng.SetParallelism(0)
			return err
		}
		fmt.Fprintf(w, "%-9d", n)
		for i, r := range res {
			if base[i] == 0 {
				base[i] = r.Mean
			}
			fmt.Fprintf(w, " %12s %8.2fx", r.Mean.Round(time.Microsecond), float64(base[i])/float64(r.Mean))
		}
		fmt.Fprintln(w)
	}
	eng.SetParallelism(0)
	return nil
}

// fmtHitRatio renders hits/(hits+misses) as a percentage, "-" when the
// cache saw no traffic (disabled or unused).
func fmtHitRatio(hits, misses uint64) string {
	if hits+misses == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(hits)/float64(hits+misses))
}

// circleWKT renders an n-vertex regular polygon approximating the
// circle (cx, cy, r) as a WKT literal. E16 uses it to build the dense
// constant operands whose per-row re-decomposition the prepared
// topology kernel eliminates.
func circleWKT(cx, cy, r float64, n int) string {
	var sb strings.Builder
	sb.WriteString("POLYGON ((")
	for i := 0; i <= n; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		a := 2 * math.Pi * float64(i%n) / float64(n)
		fmt.Fprintf(&sb, "%g %g", cx+r*math.Cos(a), cy+r*math.Sin(a))
	}
	sb.WriteString("))")
	return sb.String()
}

// RunE16 measures the prepared-geometry topology kernel: the same
// topology-heavy workload with prepared-constant evaluation disabled
// (every row re-decomposes both operands) and enabled (the constant
// side — a 256-vertex query region, or the outer row of a spatial
// join — is decomposed and STR-indexed once per statement execution).
// The prep-hit column is the fraction of exact topological evaluations
// served through a prepared side, from the engine's cache counters.
func RunE16(w io.Writer, cfg Config) error {
	header(w, "E16", "prepared-geometry topology kernel", cfg)
	scale := cfg.Scale
	if scale < tiger.Medium {
		scale = tiger.Medium
	}
	ds := tiger.Generate(scale, cfg.Seed)
	ctx := core.NewQueryContext(ds)

	queries := make([]string, 0, 13)
	for i := 0; i < 4; i++ {
		win := ctx.Window("E16", i, 4)
		region := fmt.Sprintf("ST_GEOMFROMTEXT('%s')",
			circleWKT((win.MinX+win.MaxX)/2, (win.MinY+win.MaxY)/2, win.Width()/2, 256))
		queries = append(queries,
			fmt.Sprintf("SELECT COUNT(*) FROM parcels WHERE ST_Intersects(geo, %s)", region),
			fmt.Sprintf("SELECT COUNT(*) FROM edges WHERE ST_Crosses(geo, %s)", region),
			fmt.Sprintf("SELECT COUNT(*) FROM pointlm WHERE ST_Within(geo, %s)", region))
	}
	// Index-nested-loop spatial join: the outer area is prepared once
	// per outer row and probed by every inner candidate.
	joinWin := core.WindowWKT(ctx.Window("E16/join", 0, 4))
	queries = append(queries, fmt.Sprintf(
		"SELECT COUNT(*) FROM arealm AS a JOIN pointlm AS p ON ST_Contains(a.geo, p.geo) WHERE ST_Intersects(a.geo, %s)",
		joinWin))

	configs := []struct {
		name string
		prep bool
	}{
		{"off", false},
		{"on", true},
	}
	fmt.Fprintf(w, "%-8s %14s %9s %9s\n", "prepared", "time", "vs off", "prep hit")
	var offTime time.Duration
	for _, c := range configs {
		eng := engine.Open(engine.GaiaDB(), engine.WithTopoPrep(c.prep))
		if err := tiger.Load(engineExecer{eng}, ds, true); err != nil {
			return err
		}
		conn, err := driver.NewInProc(eng).Connect()
		if err != nil {
			return err
		}
		run := func() (time.Duration, error) {
			start := time.Now()
			for _, q := range queries {
				if _, err := conn.Query(q); err != nil {
					return 0, err
				}
			}
			return time.Since(start), nil
		}
		// Warm pass fills the buffer pool, so the timed
		// repeats isolate the topology kernel itself.
		if _, err := run(); err != nil {
			conn.Close()
			return err
		}
		runtime.GC()
		eng.ResetCacheStats()
		const runs = 5
		var total time.Duration
		for i := 0; i < runs; i++ {
			d, err := run()
			if err != nil {
				conn.Close()
				return err
			}
			total += d
		}
		mean := total / runs
		cc := eng.CacheCounters()
		conn.Close()
		if c.name == "off" {
			offTime = mean
		}
		fmt.Fprintf(w, "%-8s %14s %8.2fx %9s\n",
			c.name, mean.Round(time.Microsecond),
			float64(offTime)/float64(mean),
			fmtHitRatio(cc.PrepHits, cc.PrepMisses))
	}
	return nil
}
