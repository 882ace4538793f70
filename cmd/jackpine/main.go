// Command jackpine runs the Jackpine spatial database benchmark against
// the built-in engines (or a remote engine over the wire protocol) and
// prints the paper's tables.
//
// Usage:
//
//	jackpine [flags]
//
// Suites (-suite): all, dataset (E1), queries (the query-definition
// catalog), micro-topo (E2), micro-analysis (E3), macro (E4),
// index-effect (E5), scaleup (E6), mbr (E7), features (E8), cache (E9),
// concurrency (E10), selectivity (E11), join-ablation (E12),
// parallelism (E13), scaleout (E15), topo-prep (E16), persist (E18),
// spatial-join (E19).
// Add -full-joins to run the micro joins over the whole extent as the
// paper did. Add -data <dir> to root the durable suites at a fixed
// directory instead of a temporary one.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"jackpine/internal/core"
	"jackpine/internal/driver"
	"jackpine/internal/engine"
	"jackpine/internal/experiments"
	"jackpine/internal/tiger"
	"jackpine/internal/wire"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "jackpine:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		scaleFlag   = flag.String("scale", "small", "dataset scale: small, medium, large")
		seed        = flag.Int64("seed", 1, "dataset / probe seed")
		suite       = flag.String("suite", "all", "experiment suite to run: all, dataset, queries, micro-topo, micro-analysis, macro, index-effect, scaleup, mbr, features, cache, concurrency, selectivity, join-ablation, parallelism, scaleout, topo-prep, persist, spatial-join")
		enginesFlag = flag.String("engines", "gaiadb,myspatial,commercedb", "comma-separated engine profiles")
		warmup      = flag.Int("warmup", 2, "warmup iterations per query")
		runs        = flag.Int("runs", 5, "measured iterations per query")
		clients     = flag.Int("clients", 1, "concurrent clients for macro scenarios")
		remote      = flag.String("remote", "", "benchmark a remote wire server at host:port instead of local engines")
		csv         = flag.Bool("csv", false, "emit CSV instead of tables (micro/macro suites)")
		fullJoins   = flag.Bool("full-joins", false, "run micro joins over the full extent (as the paper did) instead of sampled windows")
		shardsFlag  = flag.String("shards", "1,2,4,8", "comma-separated cluster sizes for -suite scaleout")
		dataDir     = flag.String("data", "", "data directory for the durable suites (persist); empty uses a temporary directory")
	)
	flag.Parse()

	shardCounts, err := parseShards(*shardsFlag)
	if err != nil {
		return err
	}

	scale, err := parseScale(*scaleFlag)
	if err != nil {
		return err
	}
	profiles, err := parseProfiles(*enginesFlag)
	if err != nil {
		return err
	}
	cfg := experiments.Config{
		Scale:     scale,
		Seed:      *seed,
		Opts:      core.Options{Warmup: *warmup, Runs: *runs, Clients: *clients},
		Profiles:  profiles,
		FullJoins: *fullJoins,
		DataDir:   *dataDir,
	}
	out := os.Stdout

	if *remote != "" {
		return runRemote(*remote, cfg, *suite, *csv)
	}

	wants := func(ids ...string) bool {
		if *suite == "all" {
			return true
		}
		for _, id := range ids {
			if *suite == id {
				return true
			}
		}
		return false
	}

	needEnv := wants("micro-topo") || wants("micro-analysis") || wants("macro") ||
		wants("mbr") || wants("features") || wants("concurrency") || wants("selectivity")
	var env *experiments.Env
	if needEnv {
		fmt.Fprintf(out, "loading %s dataset into %d engine(s)...\n", scale, len(profiles))
		env, err = experiments.Setup(cfg)
		if err != nil {
			return err
		}
	}
	type step struct {
		id  string
		run func() error
	}
	steps := []step{
		{"dataset", func() error { return experiments.RunE1(out, cfg) }},
		{"queries", func() error { return experiments.RunQueryCatalog(out, cfg) }},
		{"micro-topo", func() error {
			if *csv {
				return runMicroCSV(out, env, core.TopologicalSuite())
			}
			return experiments.RunE2(out, env)
		}},
		{"micro-analysis", func() error {
			if *csv {
				return runMicroCSV(out, env, core.AnalysisSuite())
			}
			return experiments.RunE3(out, env)
		}},
		{"macro", func() error {
			if *csv {
				return runMacroCSV(out, env)
			}
			return experiments.RunE4(out, env)
		}},
		{"index-effect", func() error { return experiments.RunE5(out, cfg) }},
		{"scaleup", func() error {
			scales := []tiger.Scale{tiger.Small, tiger.Medium}
			if scale == tiger.Large {
				scales = append(scales, tiger.Large)
			}
			return experiments.RunE6(out, cfg, scales)
		}},
		{"mbr", func() error { return experiments.RunE7(out, env) }},
		{"features", func() error { return experiments.RunE8(out, env) }},
		{"cache", func() error { return experiments.RunE9(out, cfg) }},
		{"concurrency", func() error { return experiments.RunE10(out, env, []int{1, 2, 4, 8}) }},
		{"selectivity", func() error { return experiments.RunE11(out, env) }},
		{"join-ablation", func() error { return experiments.RunE12(out, cfg) }},
		{"parallelism", func() error { return experiments.RunE13(out, cfg, []int{1, 2, 4, 8}) }},
		{"scaleout", func() error { return experiments.RunE15(out, cfg, shardCounts) }},
		{"topo-prep", func() error { return experiments.RunE16(out, cfg) }},
		{"persist", func() error { return experiments.RunE18(out, cfg) }},
		{"spatial-join", func() error { return experiments.RunE19(out, cfg, []int{1, 2, 8}, shardCounts) }},
	}
	ran := false
	for _, s := range steps {
		if wants(s.id) {
			if err := s.run(); err != nil {
				return fmt.Errorf("%s: %w", s.id, err)
			}
			ran = true
		}
	}
	if !ran {
		return fmt.Errorf("unknown suite %q", *suite)
	}
	return nil
}

func runMicroCSV(out *os.File, env *experiments.Env, suite []core.MicroQuery) error {
	var all []core.MicroResult
	for _, conn := range env.Connectors {
		res, err := core.RunMicro(conn, suite, env.Ctx, env.Config.Opts)
		if err != nil {
			return err
		}
		all = append(all, res...)
	}
	core.WriteMicroCSV(out, all)
	return nil
}

func runMacroCSV(out *os.File, env *experiments.Env) error {
	var all []core.MacroResult
	for _, conn := range env.Connectors {
		all = append(all, core.RunMacroSuite(conn, env.Ctx, env.Config.Opts)...)
	}
	core.WriteMacroCSV(out, all)
	return nil
}

// runRemote drives a remote engine: load the dataset over the wire, then
// run the micro and macro suites.
func runRemote(addr string, cfg experiments.Config, suite string, csv bool) error {
	client := wire.NewClient(addr, "remote")
	conn, err := client.Connect()
	if err != nil {
		return err
	}
	ds := tiger.Generate(cfg.Scale, cfg.Seed)
	ctx := core.NewQueryContext(ds)
	fmt.Printf("loading %s dataset into remote engine at %s...\n", cfg.Scale, addr)
	if err := tiger.Load(remoteExecer{conn}, ds, true); err != nil {
		return err
	}
	conn.Close()

	if suite == "all" || suite == "micro-topo" || suite == "micro-analysis" {
		var queries []core.MicroQuery
		if suite != "micro-analysis" {
			queries = append(queries, core.TopologicalSuite()...)
		}
		if suite != "micro-topo" {
			queries = append(queries, core.AnalysisSuite()...)
		}
		res, err := core.RunMicro(client, queries, ctx, cfg.Opts)
		if err != nil {
			return err
		}
		if csv {
			core.WriteMicroCSV(os.Stdout, res)
		} else {
			core.WriteMicroTable(os.Stdout, res)
		}
	}
	if suite == "all" || suite == "macro" {
		res := core.RunMacroSuite(client, ctx, cfg.Opts)
		if csv {
			core.WriteMacroCSV(os.Stdout, res)
		} else {
			core.WriteMacroTable(os.Stdout, res)
		}
	}
	return nil
}

type remoteExecer struct{ conn driver.Conn }

// Exec implements tiger.Execer.
func (r remoteExecer) Exec(q string) error {
	_, err := r.conn.Exec(q)
	return err
}

func parseScale(s string) (tiger.Scale, error) {
	switch strings.ToLower(s) {
	case "small":
		return tiger.Small, nil
	case "medium":
		return tiger.Medium, nil
	case "large":
		return tiger.Large, nil
	}
	return 0, fmt.Errorf("unknown scale %q (small, medium, large)", s)
}

func parseShards(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("invalid shard count %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no shard counts selected")
	}
	return out, nil
}

func parseProfiles(s string) ([]engine.Profile, error) {
	var out []engine.Profile
	for _, name := range strings.Split(s, ",") {
		switch strings.TrimSpace(strings.ToLower(name)) {
		case "gaiadb":
			out = append(out, engine.GaiaDB())
		case "myspatial":
			out = append(out, engine.MySpatial())
		case "commercedb":
			out = append(out, engine.CommerceDB())
		case "":
		default:
			return nil, fmt.Errorf("unknown engine profile %q", name)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no engine profiles selected")
	}
	return out, nil
}
