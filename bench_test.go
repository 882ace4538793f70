package jackpine

// The benches below regenerate every table and figure of the paper's
// evaluation (experiments E1–E16; see DESIGN.md for the index). Each
// benchmark iteration executes one unit of the experiment's workload, so
// `go test -bench=. -benchmem` reports the per-operation costs the
// corresponding experiment compares. The cmd/jackpine harness prints the
// same results as the paper-style comparison tables.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"jackpine/internal/core"
	"jackpine/internal/engine"
	"jackpine/internal/experiments"
	"jackpine/internal/geom"
	"jackpine/internal/sql"
	"jackpine/internal/storage"
	"jackpine/internal/tiger"
	"jackpine/internal/topo"
)

// benchEnv caches one loaded engine per (profile, scale, indexed) so the
// expensive load happens once per `go test -bench` process.
type benchKey struct {
	profile string
	scale   tiger.Scale
	indexed bool
}

var (
	benchMu   sync.Mutex
	benchEnvs = map[benchKey]*Engine{}
	benchDS   = map[tiger.Scale]*Dataset{}
)

func benchDataset(b *testing.B, scale tiger.Scale) *Dataset {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	if ds, ok := benchDS[scale]; ok {
		return ds
	}
	ds := GenerateDataset(scale, 1)
	benchDS[scale] = ds
	return ds
}

func benchEngine(b *testing.B, p Profile, scale tiger.Scale, indexed bool) *Engine {
	b.Helper()
	ds := benchDataset(b, scale)
	benchMu.Lock()
	defer benchMu.Unlock()
	key := benchKey{p.Name, scale, indexed}
	if eng, ok := benchEnvs[key]; ok {
		return eng
	}
	eng := OpenEngine(p)
	if err := LoadDataset(eng, ds, indexed); err != nil {
		b.Fatal(err)
	}
	benchEnvs[key] = eng
	return eng
}

// runMicroQuery runs one micro query as the benchmark body.
func runMicroQuery(b *testing.B, eng *Engine, q MicroQuery, ds *Dataset) {
	b.Helper()
	ctx := NewQueryContext(ds)
	conn, err := Connect(eng).Connect()
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	// Probe support once so unsupported queries skip instead of failing.
	if _, err := conn.Query(q.SQL(ctx, 0)); err != nil {
		b.Skipf("unsupported on %s: %v", eng.Profile().Name, err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Query(q.SQL(ctx, i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE1DatasetGeneration measures dataset synthesis (table E1's
// input); one iteration generates the full small dataset.
func BenchmarkE1DatasetGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ds := GenerateDataset(ScaleSmall, int64(i+1))
		if ds.TotalFeatures() == 0 {
			b.Fatal("empty dataset")
		}
	}
}

// BenchmarkE2MicroTopological regenerates figure E2: every DE-9IM micro
// query on every engine profile.
func BenchmarkE2MicroTopological(b *testing.B) {
	for _, p := range AllProfiles() {
		eng := benchEngine(b, p, ScaleSmall, true)
		for _, q := range TopologicalSuite() {
			b.Run(fmt.Sprintf("%s/%s", p.Name, q.ID), func(b *testing.B) {
				runMicroQuery(b, eng, q, benchDataset(b, ScaleSmall))
			})
		}
	}
}

// BenchmarkE3MicroAnalysis regenerates figure E3: every spatial-analysis
// micro query on every engine profile.
func BenchmarkE3MicroAnalysis(b *testing.B) {
	for _, p := range AllProfiles() {
		eng := benchEngine(b, p, ScaleSmall, true)
		for _, q := range AnalysisSuite() {
			b.Run(fmt.Sprintf("%s/%s", p.Name, q.ID), func(b *testing.B) {
				runMicroQuery(b, eng, q, benchDataset(b, ScaleSmall))
			})
		}
	}
}

// BenchmarkE4MacroScenarios regenerates figure E4: one iteration is one
// end-user operation of the scenario.
func BenchmarkE4MacroScenarios(b *testing.B) {
	for _, p := range AllProfiles() {
		eng := benchEngine(b, p, ScaleSmall, true)
		for _, sc := range MacroSuite() {
			b.Run(fmt.Sprintf("%s/%s", p.Name, sc.ID), func(b *testing.B) {
				ctx := NewQueryContext(benchDataset(b, ScaleSmall))
				conn, err := Connect(eng).Connect()
				if err != nil {
					b.Fatal(err)
				}
				defer conn.Close()
				if _, err := sc.Run(ctx, conn, 0); err != nil {
					b.Skipf("unsupported on %s: %v", p.Name, err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := sc.Run(ctx, conn, i+1); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// runnerConn drives a bare sql.Runner through the Conn shape the macro
// scenarios expect, so a bench can hand the runner its own registry.
type runnerConn struct{ run *sql.Runner }

func (c runnerConn) Exec(q string) (int, error) {
	res, err := c.run.Run(q)
	if err != nil {
		return 0, err
	}
	return res.Affected, nil
}

func (c runnerConn) Query(q string) (*ResultSet, error) {
	res, err := c.run.Run(q)
	if err != nil {
		return nil, err
	}
	return &ResultSet{Columns: res.Columns, Rows: res.Rows}, nil
}

func (c runnerConn) Close() error { return nil }

// BenchmarkMS4FloodRisk is the layer bench of E20: one iteration is one
// flood-risk operation (MS4's two statements) at the scale the
// end-to-end benchmark runs, through a runner whose ST_BUFFER is wrapped
// in a counter. ST_Buffer/op is the stage-slot rule made visible: one
// evaluation per outer row per statement, 2 per operation, where every
// output row plus the probe window plus the prepared filter used to
// buffer the same water body again (~30).
func BenchmarkMS4FloodRisk(b *testing.B) {
	eng := benchEngine(b, GaiaDB(), tiger.Medium, true)
	ctx := NewQueryContext(benchDataset(b, tiger.Medium))
	base, reg := sql.NewRegistry(sql.RegistryOptions{}), sql.NewRegistry(sql.RegistryOptions{})
	buffers := 0
	reg.Register("ST_BUFFER", func(args []storage.Value) (storage.Value, error) {
		buffers++
		return base.Call("ST_BUFFER", args)
	})
	conn := runnerConn{sql.NewRunner(eng, reg)}
	var flood MacroScenario
	for _, sc := range MacroSuite() {
		if sc.ID == "MS4" {
			flood = sc
		}
	}
	if _, err := flood.Run(ctx, conn, 0); err != nil {
		b.Fatal(err)
	}
	buffers = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := flood.Run(ctx, conn, i+1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buffers)/float64(b.N), "ST_Buffer/op")
}

// BenchmarkE5IndexEffect regenerates figure E5: the MT7 point-in-polygon
// join with and without the spatial index.
func BenchmarkE5IndexEffect(b *testing.B) {
	var q MicroQuery
	for _, cand := range TopologicalSuite() {
		if cand.ID == "MT7" {
			q = cand
		}
	}
	for _, indexed := range []bool{true, false} {
		name := "indexed"
		if !indexed {
			name = "noindex"
		}
		b.Run(name, func(b *testing.B) {
			eng := benchEngine(b, GaiaDB(), ScaleSmall, indexed)
			runMicroQuery(b, eng, q, benchDataset(b, ScaleSmall))
		})
	}
}

// BenchmarkE6ScaleUp regenerates figure E6: the MT3 polygon join at
// increasing dataset scales.
func BenchmarkE6ScaleUp(b *testing.B) {
	var q MicroQuery
	for _, cand := range TopologicalSuite() {
		if cand.ID == "MT3" {
			q = cand
		}
	}
	for _, scale := range []tiger.Scale{ScaleSmall, ScaleMedium} {
		b.Run(scale.String(), func(b *testing.B) {
			eng := benchEngine(b, GaiaDB(), scale, true)
			runMicroQuery(b, eng, q, benchDataset(b, scale))
		})
	}
}

// BenchmarkE7MBRAccuracy regenerates table E7's timing column: the MT3
// intersects join under exact versus MBR-only semantics.
func BenchmarkE7MBRAccuracy(b *testing.B) {
	var q MicroQuery
	for _, cand := range TopologicalSuite() {
		if cand.ID == "MT3" {
			q = cand
		}
	}
	for _, p := range []Profile{GaiaDB(), MySpatial()} {
		b.Run(p.Name, func(b *testing.B) {
			eng := benchEngine(b, p, ScaleSmall, true)
			runMicroQuery(b, eng, q, benchDataset(b, ScaleSmall))
		})
	}
}

// BenchmarkE9ColdWarm regenerates figure E9: a map-browsing window query
// against a small buffer pool, cold (cache dropped per iteration) versus
// warm.
func BenchmarkE9ColdWarm(b *testing.B) {
	setup := func(b *testing.B) (*Engine, string) {
		ds := benchDataset(b, ScaleSmall)
		eng := OpenEngine(GaiaDB(), engine.WithPoolPages(64))
		if err := LoadDataset(eng, ds, true); err != nil {
			b.Fatal(err)
		}
		eng.Pool().MissPenalty = 5 * time.Microsecond
		ctx := NewQueryContext(ds)
		win := ctx.Window("E9", 0, 6)
		return eng, fmt.Sprintf("SELECT id FROM edges WHERE ST_Intersects(geo, %s)", core.WindowWKT(win))
	}
	b.Run("cold", func(b *testing.B) {
		eng, q := setup(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if err := eng.Pool().DropAll(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := eng.Exec(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		eng, q := setup(b)
		if _, err := eng.Exec(q); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Exec(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE10Concurrency regenerates figure E10: parallel geocoding
// operations (run with -cpu 1,2,4,8 to sweep client counts).
func BenchmarkE10Concurrency(b *testing.B) {
	eng := benchEngine(b, GaiaDB(), ScaleSmall, true)
	ds := benchDataset(b, ScaleSmall)
	sc := MacroSuite()[1] // geocoding
	ctx := NewQueryContext(ds)
	b.RunParallel(func(pb *testing.PB) {
		conn, err := Connect(eng).Connect()
		if err != nil {
			b.Fatal(err)
		}
		defer conn.Close()
		i := 0
		for pb.Next() {
			i++
			if _, err := sc.Run(ctx, conn, i); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE11Selectivity regenerates figure E11: window scans at
// increasing selectivity.
func BenchmarkE11Selectivity(b *testing.B) {
	eng := benchEngine(b, GaiaDB(), ScaleSmall, true)
	ds := benchDataset(b, ScaleSmall)
	ctx := NewQueryContext(ds)
	for _, blocks := range []float64{0.5, 2, 8} {
		b.Run(fmt.Sprintf("blocks-%g", blocks), func(b *testing.B) {
			conn, err := Connect(eng).Connect()
			if err != nil {
				b.Fatal(err)
			}
			defer conn.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				win := ctx.Window("E11", i, blocks)
				q := fmt.Sprintf("SELECT id FROM pointlm WHERE ST_Intersects(geo, %s)", core.WindowWKT(win))
				if _, err := conn.Query(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// findMicro looks up one micro query by id.
func findMicro(b *testing.B, id string) MicroQuery {
	b.Helper()
	for _, q := range MicroSuite() {
		if q.ID == id {
			return q
		}
	}
	b.Fatalf("no micro query %s", id)
	return MicroQuery{}
}

// parallelBenchIDs are the E13 queries: MA2 is the scan-heavy aggregate
// (SUM(ST_Length) over every edge) and MA6 the refinement-heavy spatial
// window (ST_DWithin count over pointlm). Both stage-0 tables are above
// the engine's 256-row parallel threshold at the small scale.
var parallelBenchIDs = []string{"MA2", "MA6"}

// BenchmarkE13Parallelism regenerates figure E13: the scan-heavy and
// refinement-heavy micro queries at increasing intra-query worker
// counts on GaiaDB. On a single-core machine the parallel plans still
// run (goroutines serialize); real scaling needs 4+ cores.
func BenchmarkE13Parallelism(b *testing.B) {
	eng := benchEngine(b, GaiaDB(), ScaleSmall, true)
	defer eng.SetParallelism(0) // engine is cached across benchmarks
	ds := benchDataset(b, ScaleSmall)
	for _, id := range parallelBenchIDs {
		q := findMicro(b, id)
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/workers-%d", q.ID, workers), func(b *testing.B) {
				eng.SetParallelism(workers)
				runMicroQuery(b, eng, q, ds)
			})
		}
	}
}

// TestWriteParallelBench regenerates BENCH_parallel.json, the committed
// E13 baseline. Gated behind JACKPINE_WRITE_BENCH=1 so normal test runs
// stay measurement-free:
//
//	JACKPINE_WRITE_BENCH=1 go test -run TestWriteParallelBench .
func TestWriteParallelBench(t *testing.T) {
	if os.Getenv("JACKPINE_WRITE_BENCH") != "1" {
		t.Skip("set JACKPINE_WRITE_BENCH=1 to rewrite BENCH_parallel.json")
	}
	ds := GenerateDataset(ScaleSmall, 1)
	eng := OpenEngine(GaiaDB())
	if err := LoadDataset(eng, ds, true); err != nil {
		t.Fatal(err)
	}
	ctx := NewQueryContext(ds)
	conn, err := Connect(eng).Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	type timing struct {
		Workers int     `json:"workers"`
		MeanUS  int64   `json:"mean_us"`
		Speedup float64 `json:"speedup"`
	}
	type queryOut struct {
		ID      string   `json:"id"`
		Name    string   `json:"name"`
		SQL     string   `json:"sql"`
		Access  string   `json:"access"`
		Rows    int      `json:"rows"`
		Timings []timing `json:"timings"`
	}
	out := struct {
		Experiment string     `json:"experiment"`
		Date       string     `json:"date"`
		CPUs       int        `json:"cpus"`
		GOMAXPROCS int        `json:"gomaxprocs"`
		Scale      string     `json:"scale"`
		Warmup     int        `json:"warmup"`
		Runs       int        `json:"runs"`
		Note       string     `json:"note"`
		Queries    []queryOut `json:"queries"`
	}{
		Experiment: "E13 intra-query parallelism scaling (GaiaDB)",
		Date:       time.Now().UTC().Format("2006-01-02"),
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Scale:      ScaleSmall.String(),
		Warmup:     2,
		Runs:       9,
		Note: "Speedup is mean(workers=1)/mean(workers=n). The acceptance " +
			"target (>=2x at 4 workers) applies to 4+ core machines; on this " +
			"host the worker goroutines time-share the available cores, so " +
			"speedup ~1x is expected when cpus=1.",
	}
	const warmup, runs = 2, 9
	for _, id := range parallelBenchIDs {
		var q MicroQuery
		for _, cand := range MicroSuite() {
			if cand.ID == id {
				q = cand
			}
		}
		qo := queryOut{ID: q.ID, Name: q.Name, SQL: q.SQL(ctx, 0)}
		for _, workers := range []int{1, 2, 4, 8} {
			eng.SetParallelism(workers)
			for w := 0; w < warmup; w++ {
				if _, err := conn.Query(q.SQL(ctx, w)); err != nil {
					t.Fatal(err)
				}
			}
			var total time.Duration
			for i := 0; i < runs; i++ {
				sql := q.SQL(ctx, warmup+i)
				start := time.Now()
				rs, err := conn.Query(sql)
				total += time.Since(start)
				if err != nil {
					t.Fatal(err)
				}
				qo.Rows = len(rs.Rows)
			}
			if workers == 4 { // record the plan the paper's figure cites
				res, err := eng.Exec(q.SQL(ctx, 0))
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Access) > 0 {
					qo.Access = res.Access[0]
				}
			}
			mean := total / runs
			tm := timing{Workers: workers, MeanUS: mean.Microseconds(), Speedup: 1}
			if len(qo.Timings) > 0 && mean > 0 {
				base := time.Duration(qo.Timings[0].MeanUS) * time.Microsecond
				tm.Speedup = float64(base.Nanoseconds()) / float64(mean.Nanoseconds())
			}
			qo.Timings = append(qo.Timings, tm)
		}
		eng.SetParallelism(0)
		out.Queries = append(out.Queries, qo)
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile("BENCH_parallel.json", buf, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_parallel.json (%d bytes)", len(buf))
}

// decodeBenchConfigs are the E14 cache configurations: no decode-layer
// caches, plan cache only, geometry cache only, both.
var decodeBenchConfigs = []struct {
	Name string
	Opts []engine.Option
}{
	{"none", []engine.Option{engine.WithGeomCache(0), engine.WithPlanCache(0)}},
	{"plan", []engine.Option{engine.WithGeomCache(0)}},
	{"geom", []engine.Option{engine.WithPlanCache(0)}},
	{"plan+geom", nil},
}

// decodeBenchQueries builds the E14 workload: short selective window
// queries whose warm-repeat cost is dominated by per-execution parse
// and WKB-decode work rather than by predicate refinement.
func decodeBenchQueries(ctx *QueryContext) []string {
	queries := make([]string, 0, 24)
	for i := 0; i < 8; i++ {
		win := core.WindowWKT(ctx.Window("E14", i, 2))
		queries = append(queries,
			fmt.Sprintf("SELECT COUNT(*) FROM parcels WHERE ST_Intersects(geo, %s)", win),
			fmt.Sprintf("SELECT SUM(ST_Length(geo)) FROM edges WHERE ST_Intersects(geo, %s)", win),
			fmt.Sprintf("SELECT id FROM pointlm WHERE ST_DWithin(geo, ST_Centroid(%s), 20)", win))
	}
	return queries
}

// BenchmarkE14DecodeCache regenerates figure E14: the warm-repeat cost
// of a window-query workload under each cache configuration. One
// iteration runs the whole workload once; the caches are pre-warmed, so
// the per-iteration delta between configurations is the parse and
// WKB-decode work the caches eliminate.
func BenchmarkE14DecodeCache(b *testing.B) {
	ds := benchDataset(b, ScaleSmall)
	ctx := NewQueryContext(ds)
	queries := decodeBenchQueries(ctx)
	for _, c := range decodeBenchConfigs {
		b.Run(c.Name, func(b *testing.B) {
			eng := OpenEngine(GaiaDB(), c.Opts...)
			if err := LoadDataset(eng, ds, true); err != nil {
				b.Fatal(err)
			}
			conn, err := Connect(eng).Connect()
			if err != nil {
				b.Fatal(err)
			}
			defer conn.Close()
			// Warm pass populates whichever caches are enabled.
			for _, q := range queries {
				if _, err := conn.Query(q); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, q := range queries {
					if _, err := conn.Query(q); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// TestWriteDecodeBench regenerates BENCH_decode.json, the committed E14
// baseline. Gated behind JACKPINE_WRITE_BENCH=1 like
// TestWriteParallelBench:
//
//	JACKPINE_WRITE_BENCH=1 go test -run TestWriteDecodeBench .
func TestWriteDecodeBench(t *testing.T) {
	if os.Getenv("JACKPINE_WRITE_BENCH") != "1" {
		t.Skip("set JACKPINE_WRITE_BENCH=1 to rewrite BENCH_decode.json")
	}
	ds := GenerateDataset(ScaleSmall, 1)
	ctx := NewQueryContext(ds)
	queries := decodeBenchQueries(ctx)

	type configOut struct {
		Caches      string  `json:"caches"`
		ColdUS      int64   `json:"cold_us"`
		WarmUS      int64   `json:"warm_us"`
		WarmSpeedup float64 `json:"warm_speedup_vs_none"`
		GeomHit     float64 `json:"geom_hit_ratio"`
		PlanHit     float64 `json:"plan_hit_ratio"`
	}
	out := struct {
		Experiment string      `json:"experiment"`
		Date       string      `json:"date"`
		CPUs       int         `json:"cpus"`
		GOMAXPROCS int         `json:"gomaxprocs"`
		Scale      string      `json:"scale"`
		Queries    int         `json:"queries"`
		Runs       int         `json:"runs"`
		Note       string      `json:"note"`
		Configs    []configOut `json:"configs"`
	}{
		Experiment: "E14 decode elimination: geometry and plan caches (GaiaDB)",
		Date:       time.Now().UTC().Format("2006-01-02"),
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Scale:      ScaleSmall.String(),
		Queries:    len(queries),
		Runs:       31,
		Note: "cold_us is the first pass against empty caches; warm_us is the " +
			"mean of the following passes served from them. warm_speedup_vs_none " +
			"is warm(none)/warm(config). Hit ratios cover all measured passes; " +
			"-1 means the cache is disabled.",
	}
	const runs = 31
	warmNone := time.Duration(0)
	for _, c := range decodeBenchConfigs {
		eng := OpenEngine(GaiaDB(), c.Opts...)
		if err := LoadDataset(eng, ds, true); err != nil {
			t.Fatal(err)
		}
		conn, err := Connect(eng).Connect()
		if err != nil {
			t.Fatal(err)
		}
		pass := func() time.Duration {
			start := time.Now()
			for _, q := range queries {
				if _, err := conn.Query(q); err != nil {
					t.Fatal(err)
				}
			}
			return time.Since(start)
		}
		// Collect the previous config's engine before timing.
		runtime.GC()
		eng.ResetCacheStats()
		cold := pass()
		var warmTotal time.Duration
		for i := 0; i < runs; i++ {
			warmTotal += pass()
		}
		warm := warmTotal / runs
		cc := eng.CacheCounters()
		conn.Close()
		ratio := func(hits, misses uint64) float64 {
			if hits+misses == 0 {
				return -1
			}
			return float64(hits) / float64(hits+misses)
		}
		co := configOut{
			Caches: c.Name, ColdUS: cold.Microseconds(), WarmUS: warm.Microseconds(),
			GeomHit: ratio(cc.GeomHits, cc.GeomMisses),
			PlanHit: ratio(cc.PlanHits, cc.PlanMisses),
		}
		if c.Name == "none" {
			warmNone = warm
		}
		if warmNone > 0 && warm > 0 {
			co.WarmSpeedup = float64(warmNone.Nanoseconds()) / float64(warm.Nanoseconds())
		}
		out.Configs = append(out.Configs, co)
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile("BENCH_decode.json", buf, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_decode.json (%d bytes)", len(buf))
}

// scaleoutShardCounts are the E15 cluster sizes.
var scaleoutShardCounts = []int{1, 2, 4, 8}

// benchCluster caches one loaded in-process cluster per shard count.
var benchClusters = map[int]*Cluster{}

func benchClusterN(b *testing.B, n int) *Cluster {
	b.Helper()
	ds := benchDataset(b, ScaleSmall)
	benchMu.Lock()
	defer benchMu.Unlock()
	if cl, ok := benchClusters[n]; ok {
		return cl
	}
	cl, err := OpenCluster(GaiaDB(), ds, n)
	if err != nil {
		b.Fatal(err)
	}
	benchClusters[n] = cl
	return cl
}

// BenchmarkE15ScaleOut regenerates figure E15: macro throughput (MS1 map
// browsing, MS3 geocoding) and representative micro queries on
// spatially-sharded clusters of increasing size. All shards of an
// in-process cluster share this machine, so full-scan work is bounded by
// the core count; window-driven queries also gain from shard pruning.
func BenchmarkE15ScaleOut(b *testing.B) {
	ds := benchDataset(b, ScaleSmall)
	ctx := NewQueryContext(ds)
	var macros []MacroScenario
	for _, sc := range MacroSuite() {
		if sc.ID == "MS1" || sc.ID == "MS3" {
			macros = append(macros, sc)
		}
	}
	for _, n := range scaleoutShardCounts {
		cl := benchClusterN(b, n)
		for _, sc := range macros {
			b.Run(fmt.Sprintf("%s/shards-%d", sc.ID, n), func(b *testing.B) {
				conn, err := cl.Connect()
				if err != nil {
					b.Fatal(err)
				}
				defer conn.Close()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := sc.Run(ctx, conn, i+1); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		for _, id := range []string{"MA2", "MA6", "MT1"} {
			q := findMicro(b, id)
			b.Run(fmt.Sprintf("%s/shards-%d", q.ID, n), func(b *testing.B) {
				conn, err := cl.Connect()
				if err != nil {
					b.Fatal(err)
				}
				defer conn.Close()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := conn.Query(q.SQL(ctx, i)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestWriteScaleoutBench regenerates BENCH_scaleout.json, the committed
// E15 baseline. Gated behind JACKPINE_WRITE_BENCH=1 like
// TestWriteParallelBench:
//
//	JACKPINE_WRITE_BENCH=1 go test -run TestWriteScaleoutBench .
func TestWriteScaleoutBench(t *testing.T) {
	if os.Getenv("JACKPINE_WRITE_BENCH") != "1" {
		t.Skip("set JACKPINE_WRITE_BENCH=1 to rewrite BENCH_scaleout.json")
	}
	ds := GenerateDataset(ScaleSmall, 1)
	ctx := NewQueryContext(ds)

	type macroOut struct {
		Shards     int     `json:"shards"`
		OpsPerSec  float64 `json:"ops_per_sec"`
		Speedup    float64 `json:"speedup"`
		PruneRate  float64 `json:"shard_prune_rate"`
		RowsPerOp  float64 `json:"rows_per_op"`
		MeanLatUS  int64   `json:"mean_latency_us"`
		P50LatUS   int64   `json:"p50_latency_us"`
		P95LatUS   int64   `json:"p95_latency_us"`
		P99LatUS   int64   `json:"p99_latency_us"`
		FastPath   int     `json:"fast_path"`
		HedgeFired int     `json:"hedge_fired"`
		HedgeWon   int     `json:"hedge_won"`
	}
	type microOut struct {
		Shards     int     `json:"shards"`
		MeanUS     int64   `json:"mean_us"`
		P50US      int64   `json:"p50_us"`
		P99US      int64   `json:"p99_us"`
		Speedup    float64 `json:"speedup"`
		PruneRate  float64 `json:"shard_prune_rate"`
		Rows       int     `json:"rows"`
		FastPath   int     `json:"fast_path"`
		HedgeFired int     `json:"hedge_fired"`
		HedgeWon   int     `json:"hedge_won"`
	}
	type queryOut struct {
		ID    string     `json:"id"`
		Name  string     `json:"name"`
		Macro []macroOut `json:"macro,omitempty"`
		Micro []microOut `json:"micro,omitempty"`
	}
	out := struct {
		Experiment string     `json:"experiment"`
		Date       string     `json:"date"`
		CPUs       int        `json:"cpus"`
		GOMAXPROCS int        `json:"gomaxprocs"`
		Scale      string     `json:"scale"`
		Warmup     int        `json:"warmup"`
		Runs       int        `json:"runs"`
		Replicas   int        `json:"replicas"`
		Note       string     `json:"note"`
		Queries    []queryOut `json:"queries"`
	}{
		Experiment: "E15 scale-out: spatially-sharded cluster (GaiaDB)",
		Date:       time.Now().UTC().Format("2006-01-02"),
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Scale:      ScaleSmall.String(),
		Warmup:     10,
		Runs:       200,
		Replicas:   1,
		Note: "Speedup is vs the 1-shard cluster, whose single-table reads all " +
			"take the same verbatim-forward fast path; on a single-CPU host a " +
			"scatter cannot beat that baseline, so >=1x speedups here come from " +
			"routing (fast path, kNN two-phase, pruning), not parallelism. " +
			"shard_prune_rate is the fraction of per-shard queries spatial " +
			"pruning avoided (-1 when nothing was prune-eligible); fast_path " +
			"counts statements resolved to a single owning shard. Hedge " +
			"counters stay 0 at 1 replica per shard. Each (query, shards) " +
			"cell is the best of 3 full passes over the matrix, which cancels " +
			"the slow drift of this shared host across a long run. p99 here " +
			"is dominated by multi-ms scheduler stalls visible even at 1 " +
			"shard; p50 is the stable column for µs-scale queries.",
	}
	opts := Options{Warmup: 10, Runs: 200, Clients: 1}

	var macros []MacroScenario
	for _, sc := range MacroSuite() {
		if sc.ID == "MS1" || sc.ID == "MS3" {
			macros = append(macros, sc)
		}
	}
	var micros []MicroQuery
	for _, q := range MicroSuite() {
		switch q.ID {
		case "MA2", "MA6", "MT1":
			micros = append(micros, q)
		}
	}
	queries := make(map[string]*queryOut)
	var order []string
	get := func(id, name string) *queryOut {
		if qo, ok := queries[id]; ok {
			return qo
		}
		qo := &queryOut{ID: id, Name: name}
		queries[id] = qo
		order = append(order, id)
		return qo
	}
	// The host's throughput drifts over a long run (shared CPU), which
	// would bias whichever shard count is measured last. Sweep the whole
	// matrix several times and keep each cell's best pass — the run
	// least disturbed by outside load — then derive speedups.
	const passes = 3
	bestMacro := make(map[string]map[int]macroOut)
	bestMicro := make(map[string]map[int]microOut)
	for pass := 0; pass < passes; pass++ {
		for _, n := range scaleoutShardCounts {
			cl, err := OpenCluster(GaiaDB(), ds, n)
			if err != nil {
				t.Fatal(err)
			}
			// Collect the previous cluster's engines now so GC pauses do
			// not land inside the measured runs (ops here are tens of µs).
			runtime.GC()
			for _, sc := range macros {
				res := RunMacro(cl, sc, ctx, opts)
				if res.Err != nil {
					t.Fatalf("%s on %d shards: %v", sc.ID, n, res.Err)
				}
				get(sc.ID, sc.Name)
				mo := macroOut{
					Shards: n, OpsPerSec: res.Throughput, Speedup: 1,
					PruneRate: res.ShardPruneRate, RowsPerOp: res.RowsPerOp,
					MeanLatUS:  res.MeanLatency.Microseconds(),
					P50LatUS:   res.P50Latency.Microseconds(),
					P95LatUS:   res.P95Latency.Microseconds(),
					P99LatUS:   res.P99Latency.Microseconds(),
					FastPath:   res.ShardFastPath,
					HedgeFired: res.ShardHedgeFired, HedgeWon: res.ShardHedgeWon,
				}
				if bestMacro[sc.ID] == nil {
					bestMacro[sc.ID] = make(map[int]macroOut)
				}
				if prev, ok := bestMacro[sc.ID][n]; !ok || mo.OpsPerSec > prev.OpsPerSec {
					bestMacro[sc.ID][n] = mo
				}
			}
			micRes, err := RunMicro(cl, micros, ctx, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range micRes {
				if r.Err != nil {
					t.Fatalf("%s on %d shards: %v", r.ID, n, r.Err)
				}
				get(r.ID, r.Name)
				mo := microOut{
					Shards: n, MeanUS: r.Mean.Microseconds(), Speedup: 1,
					P50US: r.Median.Microseconds(), P99US: r.P99.Microseconds(),
					PruneRate: r.ShardPruneRate, Rows: r.Rows,
					FastPath:   r.ShardFastPath,
					HedgeFired: r.ShardHedgeFired, HedgeWon: r.ShardHedgeWon,
				}
				if bestMicro[r.ID] == nil {
					bestMicro[r.ID] = make(map[int]microOut)
				}
				if prev, ok := bestMicro[r.ID][n]; !ok || mo.MeanUS < prev.MeanUS {
					bestMicro[r.ID][n] = mo
				}
			}
		}
	}
	for _, id := range order {
		qo := queries[id]
		for _, n := range scaleoutShardCounts {
			if mo, ok := bestMacro[id][n]; ok {
				if base := bestMacro[id][scaleoutShardCounts[0]]; base.OpsPerSec > 0 {
					mo.Speedup = mo.OpsPerSec / base.OpsPerSec
				}
				qo.Macro = append(qo.Macro, mo)
			}
			if mo, ok := bestMicro[id][n]; ok {
				if base := bestMicro[id][scaleoutShardCounts[0]]; mo.MeanUS > 0 {
					mo.Speedup = float64(base.MeanUS) / float64(mo.MeanUS)
				}
				qo.Micro = append(qo.Micro, mo)
			}
		}
		out.Queries = append(out.Queries, *qo)
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile("BENCH_scaleout.json", buf, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_scaleout.json (%d bytes)", len(buf))
}

// BenchmarkE12JoinAblation regenerates figure E12: the MT2 spatial join
// with an index-nested-loop inner versus a block nested loop.
func BenchmarkE12JoinAblation(b *testing.B) {
	var q MicroQuery
	for _, cand := range TopologicalSuite() {
		if cand.ID == "MT2" {
			q = cand
		}
	}
	b.Run("index-nested-loop", func(b *testing.B) {
		eng := benchEngine(b, GaiaDB(), ScaleSmall, true)
		runMicroQuery(b, eng, q, benchDataset(b, ScaleSmall))
	})
	b.Run("block-nested-loop", func(b *testing.B) {
		eng := benchEngine(b, GaiaDB(), ScaleSmall, false)
		runMicroQuery(b, eng, q, benchDataset(b, ScaleSmall))
	})
}

// topoKernelConst builds the E16 constant operand: a 256-vertex regular
// polygon, dense enough that re-decomposing (and re-indexing) it per
// row dominates an unprepared DE-9IM evaluation.
func topoKernelConst() geom.Geometry {
	const n = 256
	ring := make(geom.Ring, 0, n+1)
	for i := 0; i < n; i++ {
		th := 2 * math.Pi * float64(i) / float64(n)
		ring = append(ring, geom.Coord{X: 500 + 400*math.Cos(th), Y: 500 + 400*math.Sin(th)})
	}
	ring = append(ring, ring[0])
	return geom.Polygon{ring}
}

// topoKernelRows builds parcel-like boxes scattered across the
// constant's envelope, so the MBR screen passes and every evaluation
// refines the full DE-9IM matrix (a mix of interior, boundary-crossing
// and env-overlapping-but-exterior rows).
func topoKernelRows() []geom.Geometry {
	rows := make([]geom.Geometry, 0, 512)
	for i := 0; i < 512; i++ {
		x := 100 + 36*float64(i%23)
		y := 100 + 36*float64(i/23)
		ring := geom.Ring{
			{X: x, Y: y}, {X: x + 8, Y: y}, {X: x + 8, Y: y + 8},
			{X: x, Y: y + 8}, {X: x, Y: y},
		}
		rows = append(rows, geom.Polygon{ring})
	}
	return rows
}

// topoPrepBenchQueries builds the E16 SQL workload: full-matrix
// predicates against a 256-vertex constant region, plus an
// index-nested-loop spatial join whose outer rows are prepared per
// invocation.
func topoPrepBenchQueries(ctx *QueryContext) []string {
	queries := make([]string, 0, 13)
	for i := 0; i < 4; i++ {
		win := ctx.Window("E16", i, 4)
		cx, cy := (win.MinX+win.MaxX)/2, (win.MinY+win.MaxY)/2
		r := win.Width() / 2
		const n = 256
		var sb strings.Builder
		sb.WriteString("ST_GEOMFROMTEXT('POLYGON ((")
		for j := 0; j <= n; j++ {
			if j > 0 {
				sb.WriteString(", ")
			}
			a := 2 * math.Pi * float64(j%n) / float64(n)
			fmt.Fprintf(&sb, "%g %g", cx+r*math.Cos(a), cy+r*math.Sin(a))
		}
		sb.WriteString("))')")
		region := sb.String()
		queries = append(queries,
			fmt.Sprintf("SELECT COUNT(*) FROM parcels WHERE ST_Intersects(geo, %s)", region),
			fmt.Sprintf("SELECT COUNT(*) FROM edges WHERE ST_Crosses(geo, %s)", region),
			fmt.Sprintf("SELECT COUNT(*) FROM pointlm WHERE ST_Within(geo, %s)", region))
	}
	joinWin := core.WindowWKT(ctx.Window("E16/join", 0, 4))
	queries = append(queries, fmt.Sprintf(
		"SELECT COUNT(*) FROM arealm AS a JOIN pointlm AS p ON ST_Contains(a.geo, p.geo) WHERE ST_Intersects(a.geo, %s)",
		joinWin))
	return queries
}

// BenchmarkE16TopoKernel regenerates figure E16. The kernel/ pair
// isolates the prepared topology kernel itself: one iteration computes
// one DE-9IM matrix between the 256-vertex constant and one row
// geometry, with the constant either re-decomposed per call (naive) or
// prepared once (prepared). The sql/ pair runs the E16 SQL workload
// through a GaiaDB engine with prepared-constant evaluation off and on.
func BenchmarkE16TopoKernel(b *testing.B) {
	constG := topoKernelConst()
	rows := topoKernelRows()
	b.Run("kernel/naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			topo.Relate(constG, rows[i%len(rows)])
		}
	})
	b.Run("kernel/prepared", func(b *testing.B) {
		p := topo.Prepare(constG)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Relate(rows[i%len(rows)])
		}
	})
	ds := benchDataset(b, ScaleSmall)
	ctx := NewQueryContext(ds)
	queries := topoPrepBenchQueries(ctx)
	for _, c := range []struct {
		name string
		prep bool
	}{{"sql/off", false}, {"sql/on", true}} {
		b.Run(c.name, func(b *testing.B) {
			eng := OpenEngine(GaiaDB(), engine.WithTopoPrep(c.prep))
			if err := LoadDataset(eng, ds, true); err != nil {
				b.Fatal(err)
			}
			conn, err := Connect(eng).Connect()
			if err != nil {
				b.Fatal(err)
			}
			defer conn.Close()
			for _, q := range queries {
				if _, err := conn.Query(q); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, q := range queries {
					if _, err := conn.Query(q); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// TestWriteTopoKernelBench regenerates BENCH_topokernel.json, the
// committed E16 baseline. Gated like the other BENCH writers:
//
//	JACKPINE_WRITE_BENCH=1 go test -run TestWriteTopoKernelBench .
func TestWriteTopoKernelBench(t *testing.T) {
	if os.Getenv("JACKPINE_WRITE_BENCH") != "1" {
		t.Skip("set JACKPINE_WRITE_BENCH=1 to rewrite BENCH_topokernel.json")
	}
	constG := topoKernelConst()
	rows := topoKernelRows()

	// Kernel timing: several alternating passes over the row set.
	const passes = 31
	timeKernel := func(rel func(geom.Geometry) topo.Matrix) time.Duration {
		start := time.Now()
		for p := 0; p < passes; p++ {
			for _, r := range rows {
				rel(r)
			}
		}
		return time.Since(start) / time.Duration(passes*len(rows))
	}
	naiveNS := timeKernel(func(r geom.Geometry) topo.Matrix { return topo.Relate(constG, r) })
	prep := topo.Prepare(constG)
	prepNS := timeKernel(prep.Relate)

	ds := GenerateDataset(ScaleSmall, 1)
	ctx := NewQueryContext(ds)
	queries := topoPrepBenchQueries(ctx)
	type sqlOut struct {
		Prepared string  `json:"prepared"`
		WarmUS   int64   `json:"warm_us"`
		Speedup  float64 `json:"speedup_vs_off"`
		PrepHit  float64 `json:"prep_hit_ratio"`
	}
	var sqlConfigs []sqlOut
	var offWarm time.Duration
	for _, c := range []struct {
		name string
		prep bool
	}{{"off", false}, {"on", true}} {
		eng := OpenEngine(GaiaDB(), engine.WithTopoPrep(c.prep))
		if err := LoadDataset(eng, ds, true); err != nil {
			t.Fatal(err)
		}
		conn, err := Connect(eng).Connect()
		if err != nil {
			t.Fatal(err)
		}
		pass := func() time.Duration {
			start := time.Now()
			for _, q := range queries {
				if _, err := conn.Query(q); err != nil {
					t.Fatal(err)
				}
			}
			return time.Since(start)
		}
		pass() // warm caches
		runtime.GC()
		eng.ResetCacheStats()
		const runs = 7
		var total time.Duration
		for i := 0; i < runs; i++ {
			total += pass()
		}
		warm := total / runs
		cc := eng.CacheCounters()
		conn.Close()
		hit := -1.0
		if cc.PrepHits+cc.PrepMisses > 0 {
			hit = float64(cc.PrepHits) / float64(cc.PrepHits+cc.PrepMisses)
		}
		so := sqlOut{Prepared: c.name, WarmUS: warm.Microseconds(), PrepHit: hit}
		if c.name == "off" {
			offWarm = warm
			so.Speedup = 1
		} else if warm > 0 {
			so.Speedup = float64(offWarm.Nanoseconds()) / float64(warm.Nanoseconds())
		}
		sqlConfigs = append(sqlConfigs, so)
	}

	out := struct {
		Experiment    string   `json:"experiment"`
		Date          string   `json:"date"`
		CPUs          int      `json:"cpus"`
		GOMAXPROCS    int      `json:"gomaxprocs"`
		ConstVertices int      `json:"const_vertices"`
		Rows          int      `json:"rows"`
		Passes        int      `json:"passes"`
		NaiveNSPerOp  int64    `json:"kernel_naive_ns_per_relate"`
		PrepNSPerOp   int64    `json:"kernel_prepared_ns_per_relate"`
		KernelSpeedup float64  `json:"kernel_speedup"`
		Scale         string   `json:"scale"`
		Queries       int      `json:"queries"`
		SQLRuns       int      `json:"sql_runs"`
		SQL           []sqlOut `json:"sql_configs"`
		Note          string   `json:"note"`
	}{
		Experiment:    "E16 prepared-geometry topology kernel (GaiaDB)",
		Date:          time.Now().UTC().Format("2006-01-02"),
		CPUs:          runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		ConstVertices: 256,
		Rows:          len(rows),
		Passes:        passes,
		NaiveNSPerOp:  naiveNS.Nanoseconds(),
		PrepNSPerOp:   prepNS.Nanoseconds(),
		Scale:         ScaleSmall.String(),
		Queries:       len(queries),
		SQLRuns:       7,
		SQL:           sqlConfigs,
		Note: "kernel_*_ns_per_relate is one full DE-9IM matrix between the " +
			"256-vertex constant and one parcel-sized row, averaged over all " +
			"rows and passes; naive re-decomposes the constant per call, " +
			"prepared decomposes and STR-indexes it once. sql warm_us is the " +
			"E16 workload (12 window-predicate queries + 1 spatial join) on a " +
			"warm GaiaDB engine with prepared-constant evaluation off/on.",
	}
	if prepNS > 0 {
		out.KernelSpeedup = float64(naiveNS.Nanoseconds()) / float64(prepNS.Nanoseconds())
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile("BENCH_topokernel.json", buf, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("kernel naive %v prepared %v (%.2fx); wrote BENCH_topokernel.json (%d bytes)",
		naiveNS, prepNS, out.KernelSpeedup, len(buf))
}

// e17BenchQueries renders the E17 window-predicate micros (two probe
// iterations each) against a query context.
func e17BenchQueries(ctx *QueryContext) []string {
	var out []string
	for _, q := range experiments.E17Queries() {
		out = append(out, q.SQL(ctx, 0), q.SQL(ctx, 1))
	}
	return out
}

// BenchmarkE17BatchExec compares tuple-at-a-time and batch-at-a-time
// execution on the E17 window-predicate micros, single core. One
// iteration runs the whole query set once; -benchmem shows the
// allocs/op reduction the batch executor's pooled batches and arena
// decoding buy.
func BenchmarkE17BatchExec(b *testing.B) {
	ds := benchDataset(b, tiger.Small)
	ctx := NewQueryContext(ds)
	queries := e17BenchQueries(ctx)
	for _, c := range []struct {
		name  string
		batch bool
	}{{"row", false}, {"batch", true}} {
		b.Run(c.name, func(b *testing.B) {
			eng := OpenEngine(GaiaDB(), WithBatchExec(c.batch))
			eng.SetParallelism(1)
			if err := LoadDataset(eng, ds, true); err != nil {
				b.Fatal(err)
			}
			conn, err := Connect(eng).Connect()
			if err != nil {
				b.Fatal(err)
			}
			defer conn.Close()
			for _, q := range queries {
				if _, err := conn.Query(q); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, q := range queries {
					if _, err := conn.Query(q); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// batchGuardQueryID is the representative window-predicate micro the
// allocation-regression guard tracks.
const batchGuardQueryID = "MT13"

// planGuardQueryID is MS2's single-table address lookup: no function
// call, so the planner's stage-slot pass creates nothing and must cost
// nothing — browse runs it at 0.07 ms.
const planGuardQueryID = "MS2"

// guardQuery renders the SQL of an allocation-guard query.
func guardQuery(tb testing.TB, ctx *QueryContext, id string) string {
	tb.Helper()
	if id == planGuardQueryID {
		name, house := ctx.RandomAddress("MS2", 0)
		return fmt.Sprintf("SELECT fromaddr, toaddr, geo FROM edges WHERE name = '%s' AND fromaddr <= %d AND toaddr >= %d",
			name, house, house)
	}
	for _, q := range experiments.E17Queries() {
		if q.ID == id {
			return q.SQL(ctx, 0)
		}
	}
	tb.Fatalf("guard query %s is neither %s nor in the E17 set", id, planGuardQueryID)
	return ""
}

// guardAllocs measures steady-state allocations per execution of a
// guard query on a warm, single-core, batch-enabled engine at small
// scale — the exact procedure that produced the committed baselines in
// BENCH_batch.json.
func guardAllocs(tb testing.TB, id string) float64 {
	tb.Helper()
	ds := GenerateDataset(ScaleSmall, 1)
	query := guardQuery(tb, NewQueryContext(ds), id)
	eng := OpenEngine(GaiaDB())
	eng.SetParallelism(1)
	if err := LoadDataset(eng, ds, true); err != nil {
		tb.Fatal(err)
	}
	conn, err := Connect(eng).Connect()
	if err != nil {
		tb.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 3; i++ {
		if _, err := conn.Query(query); err != nil {
			tb.Fatal(err)
		}
	}
	return testing.AllocsPerRun(20, func() {
		if _, err := conn.Query(query); err != nil {
			tb.Fatal(err)
		}
	})
}

// TestBatchAllocRegression fails when the allocs/op of a guard query
// exceeds its committed BENCH_batch.json baseline by more than 20%: the
// margin absorbs environment noise while catching a reintroduced
// per-row allocation in the batch executor (alloc_guard, which
// multiplies by the row count, not percents) or per-statement planner
// work on a lookup that has nothing to hoist (plan_guard, ~180 allocs in
// all). Skipped under the race detector, whose instrumentation changes
// allocation counts.
func TestBatchAllocRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	buf, err := os.ReadFile("BENCH_batch.json")
	if err != nil {
		t.Skipf("no committed baseline: %v", err)
	}
	type guard struct {
		Query       string  `json:"query"`
		AllocsPerOp float64 `json:"allocs_per_op"`
	}
	var bench struct {
		Batch guard `json:"alloc_guard"`
		Plan  guard `json:"plan_guard"`
	}
	if err := json.Unmarshal(buf, &bench); err != nil {
		t.Fatalf("BENCH_batch.json: %v", err)
	}
	for _, g := range []struct {
		name, id string
		base     guard
	}{{"alloc_guard", batchGuardQueryID, bench.Batch}, {"plan_guard", planGuardQueryID, bench.Plan}} {
		if g.base.Query != g.id || g.base.AllocsPerOp <= 0 {
			t.Logf("baseline has no %s for %s", g.name, g.id)
			continue
		}
		got := guardAllocs(t, g.id)
		limit := g.base.AllocsPerOp * 1.2
		if got > limit {
			t.Errorf("%s allocs/op = %.0f, exceeds baseline %.0f by more than 20%% (limit %.0f); "+
				"a per-row or per-statement allocation crept back in, or the baseline needs "+
				"regenerating (JACKPINE_WRITE_BENCH=1 go test -run TestWriteBatchBench .)",
				g.id, got, g.base.AllocsPerOp, limit)
		}
	}
}

// TestWriteBatchBench regenerates BENCH_batch.json, the committed E17
// result set and the allocation-regression baseline. Gated like the
// other BENCH writers:
//
//	JACKPINE_WRITE_BENCH=1 go test -run TestWriteBatchBench .
func TestWriteBatchBench(t *testing.T) {
	if os.Getenv("JACKPINE_WRITE_BENCH") != "1" {
		t.Skip("set JACKPINE_WRITE_BENCH=1 to rewrite BENCH_batch.json")
	}
	const runs = 7
	ds := tiger.Generate(tiger.Medium, 1)
	ctx := core.NewQueryContext(ds)
	row, err := experiments.MeasureE17(ds, ctx, false, runs)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := experiments.MeasureE17(ds, ctx, true, runs)
	if err != nil {
		t.Fatal(err)
	}

	type queryOut struct {
		ID          string  `json:"id"`
		RowUS       int64   `json:"row_us"`
		BatchUS     int64   `json:"batch_us"`
		Speedup     float64 `json:"speedup"`
		RowAllocs   float64 `json:"row_allocs_per_op"`
		BatchAllocs float64 `json:"batch_allocs_per_op"`
		AllocRatio  float64 `json:"alloc_ratio"`
	}
	var queries []queryOut
	var rowTotal, batchTotal time.Duration
	for _, q := range experiments.E17Queries() {
		r, b := row[q.ID], batch[q.ID]
		qo := queryOut{
			ID: q.ID, RowUS: r.Mean.Microseconds(), BatchUS: b.Mean.Microseconds(),
			RowAllocs: r.Allocs, BatchAllocs: b.Allocs,
		}
		if b.Mean > 0 {
			qo.Speedup = float64(r.Mean) / float64(b.Mean)
		}
		if r.Allocs > 0 {
			qo.AllocRatio = b.Allocs / r.Allocs
		}
		queries = append(queries, qo)
		rowTotal += r.Mean
		batchTotal += b.Mean
	}

	batchAllocs := guardAllocs(t, batchGuardQueryID)
	type guardOut struct {
		Query       string  `json:"query"`
		Scale       string  `json:"scale"`
		AllocsPerOp float64 `json:"allocs_per_op"`
	}

	out := struct {
		Experiment   string     `json:"experiment"`
		Date         string     `json:"date"`
		CPUs         int        `json:"cpus"`
		GOMAXPROCS   int        `json:"gomaxprocs"`
		Scale        string     `json:"scale"`
		Runs         int        `json:"runs"`
		BatchSize    int        `json:"batch_size"`
		Queries      []queryOut `json:"queries"`
		TotalSpeedup float64    `json:"total_speedup"`
		Guard        guardOut   `json:"alloc_guard"`
		PlanGuard    guardOut   `json:"plan_guard"`
		Note         string     `json:"note"`
	}{
		Experiment: "E17 vectorized batch execution (GaiaDB, 1 worker)",
		Date:       time.Now().UTC().Format("2006-01-02"),
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Scale:      tiger.Medium.String(),
		Runs:       runs,
		BatchSize:  256,
		Queries:    queries,
		Note: "row/batch are per-execution wall times of the best of 7 timed " +
			"passes on one core with warm caches (the minimum is the stable " +
			"estimator of uncontended cost on a shared host); *_allocs_per_op " +
			"are process-wide heap " +
			"allocation deltas per execution (runtime.MemStats). alloc_guard " +
			"is the TestBatchAllocRegression baseline: steady-state allocs/op " +
			"of " + batchGuardQueryID + " at small scale, batch on, measured " +
			"with testing.AllocsPerRun; plan_guard is the same for " + planGuardQueryID +
			"'s address lookup, which has nothing to hoist.",
	}
	if batchTotal > 0 {
		out.TotalSpeedup = float64(rowTotal) / float64(batchTotal)
	}
	out.Guard = guardOut{batchGuardQueryID, tiger.Small.String(), batchAllocs}
	out.PlanGuard = guardOut{planGuardQueryID, tiger.Small.String(), guardAllocs(t, planGuardQueryID)}

	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile("BENCH_batch.json", buf, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("total speedup %.2fx (row %v, batch %v); guard %s %.0f allocs/op; wrote BENCH_batch.json (%d bytes)",
		out.TotalSpeedup, rowTotal, batchTotal, batchGuardQueryID, batchAllocs, len(buf))
}

// TestWritePersistBench regenerates BENCH_persist.json, the committed
// E18 durability baseline. Gated behind JACKPINE_WRITE_BENCH=1 like
// TestWriteParallelBench:
//
//	JACKPINE_WRITE_BENCH=1 go test -run TestWritePersistBench .
func TestWritePersistBench(t *testing.T) {
	if os.Getenv("JACKPINE_WRITE_BENCH") != "1" {
		t.Skip("set JACKPINE_WRITE_BENCH=1 to rewrite BENCH_persist.json")
	}
	cfg := experiments.DefaultConfig()
	dir := t.TempDir()
	cells, st, err := experiments.MeasureE18(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	cold, warm, steady := cells[0], cells[1], cells[2]

	type microOut struct {
		ID            string  `json:"id"`
		Name          string  `json:"name"`
		ColdUS        int64   `json:"cold_us"`
		WarmUS        int64   `json:"warm_us"`
		SteadyUS      int64   `json:"steady_us"`
		ColdWarmRatio float64 `json:"cold_warm_ratio"`
	}
	type macroOut struct {
		ID        string  `json:"id"`
		Name      string  `json:"name"`
		ColdOps   float64 `json:"cold_ops_per_s"`
		WarmOps   float64 `json:"warm_ops_per_s"`
		SteadyOps float64 `json:"steady_ops_per_s"`
		WALFsyncs int     `json:"wal_fsyncs"`
	}
	out := struct {
		Experiment      string     `json:"experiment"`
		Date            string     `json:"date"`
		CPUs            int        `json:"cpus"`
		Scale           string     `json:"scale"`
		Warmup          int        `json:"warmup"`
		Runs            int        `json:"runs"`
		LoadMS          int64      `json:"load_ms"`
		WALAppends      uint64     `json:"wal_appends"`
		WALCommits      uint64     `json:"wal_commits"`
		WALFsyncs       uint64     `json:"wal_fsyncs"`
		GroupCommitSize float64    `json:"group_commit_size"`
		Recovered       uint64     `json:"recovered_records"`
		Note            string     `json:"note"`
		Micro           []microOut `json:"micro"`
		Macro           []macroOut `json:"macro"`
	}{
		Experiment:      "E18 durability: WAL, recovery, cold vs warm vs steady (GaiaDB)",
		Date:            time.Now().UTC().Format("2006-01-02"),
		CPUs:            runtime.NumCPU(),
		Scale:           cfg.Scale.String(),
		Warmup:          cfg.Opts.Warmup,
		Runs:            cfg.Opts.Runs,
		LoadMS:          st.LoadTime.Milliseconds(),
		WALAppends:      st.Load.Appends,
		WALCommits:      st.Load.Commits,
		WALFsyncs:       st.Load.Fsyncs,
		GroupCommitSize: st.Load.GroupCommitSize(),
		Recovered:       st.Recovered,
		Note: "cold = reopened directory (recovery + empty buffer pool, the " +
			"pool dropped before every micro query and macro scenario; " +
			"warmup=0, runs=1 for micros); warm = same engine after the cold " +
			"pass; steady = the in-memory baseline engine. recovered_records " +
			"is 0 when the load's Close checkpointed cleanly. wal_fsyncs in " +
			"macro rows is the warm pass's count: only MS5 (land information " +
			"management) writes.",
	}
	for i := range cold.Micro {
		c, wa, s := cold.Micro[i], warm.Micro[i], steady.Micro[i]
		ratio := 0.0
		if wa.Mean > 0 {
			ratio = float64(c.Mean) / float64(wa.Mean)
		}
		out.Micro = append(out.Micro, microOut{
			ID: c.ID, Name: c.Name,
			ColdUS:        c.Mean.Microseconds(),
			WarmUS:        wa.Mean.Microseconds(),
			SteadyUS:      s.Mean.Microseconds(),
			ColdWarmRatio: math.Round(ratio*100) / 100,
		})
	}
	for i := range cold.Macro {
		c, wa, s := cold.Macro[i], warm.Macro[i], steady.Macro[i]
		out.Macro = append(out.Macro, macroOut{
			ID: c.ID, Name: c.Name,
			ColdOps:   math.Round(c.Throughput*10) / 10,
			WarmOps:   math.Round(wa.Throughput*10) / 10,
			SteadyOps: math.Round(s.Throughput*10) / 10,
			WALFsyncs: wa.WALFsyncs,
		})
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile("BENCH_persist.json", buf, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("load %s, %d fsyncs (group commit %.1f); wrote BENCH_persist.json (%d bytes)",
		st.LoadTime.Round(time.Millisecond), st.Load.Fsyncs, st.Load.GroupCommitSize(), len(buf))
}

// TestWriteSpatialJoinBench regenerates BENCH_spatialjoin.json, the
// committed E19 evidence for the partition-based spatial-merge join.
// Same protocol as TestWriteParallelBench:
//
//	JACKPINE_WRITE_BENCH=1 go test -run TestWriteSpatialJoinBench .
func TestWriteSpatialJoinBench(t *testing.T) {
	if os.Getenv("JACKPINE_WRITE_BENCH") != "1" {
		t.Skip("set JACKPINE_WRITE_BENCH=1 to rewrite BENCH_spatialjoin.json")
	}
	cfg := experiments.DefaultConfig()
	cfg.Scale = tiger.Medium
	ds := tiger.Generate(cfg.Scale, cfg.Seed)
	ctx := core.NewQueryContext(ds)
	const runs = 5

	type cellOut struct {
		INLUS      int64   `json:"inl_us"`
		PBSMUS     int64   `json:"pbsm_us"`
		Speedup    float64 `json:"speedup"`
		Rows       int     `json:"rows"`
		Cells      int64   `json:"pbsm_cells,omitempty"`
		DedupDrops int64   `json:"dedup_drops,omitempty"`
		Pushdowns  int     `json:"join_pushdowns,omitempty"`
	}
	type singleOut struct {
		Parallelism int `json:"parallelism"`
		cellOut
	}
	type clusterOut struct {
		Shards int `json:"shards"`
		cellOut
	}
	out := struct {
		Experiment string       `json:"experiment"`
		Date       string       `json:"date"`
		CPUs       int          `json:"cpus"`
		Scale      string       `json:"scale"`
		Runs       int          `json:"runs"`
		Workload   string       `json:"workload"`
		Note       string       `json:"note"`
		Single     []singleOut  `json:"single_engine"`
		Cluster    []clusterOut `json:"cluster"`
	}{
		Experiment: "E19 partition-based spatial-merge join vs index-nested-loop (GaiaDB)",
		Date:       time.Now().UTC().Format("2006-01-02"),
		CPUs:       runtime.NumCPU(),
		Scale:      cfg.Scale.String(),
		Runs:       runs,
		Workload: "MS7 overlay-and-proximity macro: arealm x areawater " +
			"ST_Intersects overlay, pointlm self-join ST_DWithin clustering, " +
			"pointlm x areawater ST_DWithin proximity; per-operation wall " +
			"time, best of the timed passes.",
		Note: "inl forces per-outer-row R-tree probes, pbsm the grid " +
			"partitioning + x-sorted plane sweep with reference-point " +
			"dedup. Row counts are asserted identical per cell. Cluster " +
			"rows run co-partitioned joins shard-local (join_pushdowns " +
			"counts them); cells/dedup are per operation.",
	}

	maxSpeedup := 0.0
	for _, par := range []int{1, 2, 8} {
		inl, err := experiments.MeasureE19(ds, ctx, JoinINL, par, runs)
		if err != nil {
			t.Fatal(err)
		}
		pbsm, err := experiments.MeasureE19(ds, ctx, JoinPBSM, par, runs)
		if err != nil {
			t.Fatal(err)
		}
		if inl.Rows != pbsm.Rows {
			t.Fatalf("parallelism %d: INL rows %d != PBSM rows %d", par, inl.Rows, pbsm.Rows)
		}
		sp := float64(inl.Mean) / float64(pbsm.Mean)
		if sp > maxSpeedup {
			maxSpeedup = sp
		}
		out.Single = append(out.Single, singleOut{par, cellOut{
			INLUS: inl.Mean.Microseconds(), PBSMUS: pbsm.Mean.Microseconds(),
			Speedup: math.Round(sp*100) / 100, Rows: pbsm.Rows,
			Cells: pbsm.Cells, DedupDrops: pbsm.DedupDrops,
		}})
		t.Logf("par=%d inl=%v pbsm=%v speedup=%.2fx", par, inl.Mean, pbsm.Mean, sp)
	}
	for _, shards := range []int{1, 2, 8} {
		inl, err := experiments.MeasureE19Cluster(ds, ctx, JoinINL, shards, runs)
		if err != nil {
			t.Fatal(err)
		}
		pbsm, err := experiments.MeasureE19Cluster(ds, ctx, JoinPBSM, shards, runs)
		if err != nil {
			t.Fatal(err)
		}
		if inl.Rows != pbsm.Rows {
			t.Fatalf("shards %d: INL rows %d != PBSM rows %d", shards, inl.Rows, pbsm.Rows)
		}
		sp := float64(inl.Mean) / float64(pbsm.Mean)
		out.Cluster = append(out.Cluster, clusterOut{shards, cellOut{
			INLUS: inl.Mean.Microseconds(), PBSMUS: pbsm.Mean.Microseconds(),
			Speedup: math.Round(sp*100) / 100, Rows: pbsm.Rows,
			Cells: pbsm.Cells, DedupDrops: pbsm.DedupDrops,
			Pushdowns: pbsm.Pushdowns,
		}})
		t.Logf("shards=%d inl=%v pbsm=%v speedup=%.2fx pushdowns=%d",
			shards, inl.Mean, pbsm.Mean, sp, pbsm.Pushdowns)
	}
	if maxSpeedup < 2.0 {
		t.Fatalf("best single-engine PBSM speedup %.2fx, want >= 2x on the join-heavy macro", maxSpeedup)
	}

	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile("BENCH_spatialjoin.json", buf, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("best speedup %.2fx; wrote BENCH_spatialjoin.json (%d bytes)", maxSpeedup, len(buf))
}
