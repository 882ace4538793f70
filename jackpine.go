// Package jackpine is a from-scratch Go reproduction of "Jackpine: A
// benchmark to evaluate spatial database performance" (Ray, Simion,
// Demke Brown — ICDE 2011), together with everything the benchmark needs
// to run: three complete spatial database engines (geometry model,
// DE-9IM topology, overlay operations, R-tree/grid/B+tree indexes,
// slotted-page storage with a buffer pool, a SQL layer with spatial
// functions and index-aware planning), a deterministic TIGER-like data
// generator, a driver abstraction with in-process and TCP transports,
// and a spatially-sharded cluster layer that scatter-gathers queries
// across independent shard engines (see OpenCluster).
//
// This package is the public facade: it re-exports the pieces a
// downstream user needs. Quick start:
//
//	eng := jackpine.OpenEngine(jackpine.GaiaDB())
//	ds := jackpine.GenerateDataset(jackpine.ScaleSmall, 1)
//	if err := jackpine.LoadDataset(eng, ds, true); err != nil { ... }
//	res, err := eng.Exec("SELECT COUNT(*) FROM edges WHERE ST_Intersects(geo, ST_MakeEnvelope(0,0,500,500))")
//
// To benchmark:
//
//	ctx := jackpine.NewQueryContext(ds)
//	results, err := jackpine.RunMicro(jackpine.Connect(eng), jackpine.MicroSuite(), ctx, jackpine.DefaultOptions())
//	jackpine.WriteMicroTable(os.Stdout, results)
package jackpine

import (
	sqldrv "database/sql/driver"
	"fmt"
	"io"

	"jackpine/internal/cluster"
	"jackpine/internal/core"
	"jackpine/internal/driver"
	"jackpine/internal/engine"
	"jackpine/internal/experiments"
	"jackpine/internal/sql"
	"jackpine/internal/sqldriver"
	"jackpine/internal/storage/wal"
	"jackpine/internal/tiger"
	"jackpine/internal/wire"
)

// Engine aliases the spatial database engine type.
type Engine = engine.Engine

// Profile aliases an engine profile (semantics + architecture).
type Profile = engine.Profile

// Dataset aliases the generated TIGER-like dataset.
type Dataset = tiger.Dataset

// Scale aliases the dataset scale selector.
type Scale = tiger.Scale

// Dataset scales.
const (
	ScaleSmall  = tiger.Small
	ScaleMedium = tiger.Medium
	ScaleLarge  = tiger.Large
)

// Connector aliases the database-access abstraction the benchmark runs
// against.
type Connector = driver.Connector

// Conn aliases one database session.
type Conn = driver.Conn

// ResultSet aliases a fully-retrieved query result.
type ResultSet = driver.ResultSet

// QueryContext aliases the deterministic workload-probe generator.
type QueryContext = core.QueryContext

// MicroQuery aliases one micro benchmark query.
type MicroQuery = core.MicroQuery

// MacroScenario aliases one macro workload scenario.
type MacroScenario = core.MacroScenario

// Options aliases the workload-runner options.
type Options = core.Options

// MicroResult aliases a micro query measurement.
type MicroResult = core.MicroResult

// MacroResult aliases a macro scenario measurement.
type MacroResult = core.MacroResult

// GaiaDB returns the PostGIS-like engine profile (exact DE-9IM topology,
// R-tree index, full function set).
func GaiaDB() Profile { return engine.GaiaDB() }

// MySpatial returns the MySQL-5.x-like profile (MBR-only topological
// predicates, reduced function set).
func MySpatial() Profile { return engine.MySpatial() }

// CommerceDB returns the anonymized commercial profile (exact topology,
// fixed-grid index).
func CommerceDB() Profile { return engine.CommerceDB() }

// AllProfiles returns the three built-in profiles.
func AllProfiles() []Profile { return engine.AllProfiles() }

// OpenEngine creates an engine with the given profile.
func OpenEngine(p Profile, opts ...engine.Option) *Engine { return engine.Open(p, opts...) }

// OpenDurable opens (or creates) a durable engine rooted at dir: pages
// live in a file-backed store, every commit is written ahead to a
// redo log and group-committed with fsync, and reopening the directory
// recovers the committed state exactly — tables, indexes, and row
// order are byte-identical to the engine that wrote them. See
// Engine.Checkpoint for log truncation.
func OpenDurable(p Profile, dir string, opts ...engine.Option) (*Engine, error) {
	return engine.OpenDurable(p, dir, opts...)
}

// WALStats aliases the write-ahead-log activity counters reported by
// Engine.WALStats on durable engines.
type WALStats = wal.Stats

// WithParallelism sets the engine's intra-query worker pool size
// (0 = GOMAXPROCS, 1 = serial). See also Engine.SetParallelism.
func WithParallelism(n int) engine.Option { return engine.WithParallelism(n) }

// WithGeomCache is a no-op: the engine has no decoded-geometry cache.
//
// Deprecated: kept only so bench/verify.go, which is frozen, compiles.
func WithGeomCache(bytes int) engine.Option { return engine.WithGeomCache(bytes) }

// WithTopoPrep toggles prepared-geometry evaluation of topological
// predicates: the constant side (literal query window, outer join row)
// is decomposed and indexed once per statement execution instead of
// per row. Enabled by default.
func WithTopoPrep(enabled bool) engine.Option { return engine.WithTopoPrep(enabled) }

// WithPlanCache is a no-op: the engine has no parsed-statement cache.
//
// Deprecated: kept only so bench/verify.go, which is frozen, compiles.
func WithPlanCache(entries int) engine.Option { return engine.WithPlanCache(entries) }

// WithBatchExec is a no-op: every plan runs stage 0 through the batch
// cascade.
//
// Deprecated: kept only so bench/verify.go, which is frozen, compiles.
func WithBatchExec(enabled bool) engine.Option { return engine.WithBatchExec(enabled) }

// JoinStrategy selects how two-table spatial joins execute: JoinAuto
// (cost-based), JoinINL (per-outer-row index probes), or JoinPBSM
// (partition-based spatial-merge: grid partitioning + plane sweep).
type JoinStrategy = sql.JoinStrategy

// Spatial-join strategies (see JoinStrategy).
const (
	JoinAuto = sql.JoinAuto
	JoinINL  = sql.JoinINL
	JoinPBSM = sql.JoinPBSM
)

// WithJoinStrategy forces the spatial-join strategy. The default,
// JoinAuto, costs index-nested-loop against the partitioned sweep from
// table statistics per statement. See also Engine.SetJoinStrategy.
func WithJoinStrategy(s JoinStrategy) engine.Option { return engine.WithJoinStrategy(s) }

// JoinStats aliases the cumulative spatial-join counters reported by
// Engine.JoinStats: joins per strategy, PBSM grid cells, and duplicate
// candidate pairs suppressed by the reference-point rule.
type JoinStats = sql.JoinStats

// Connect wraps a local engine in an in-process Connector.
func Connect(eng *Engine) Connector { return driver.NewInProc(eng) }

// ConnectRemote returns a Connector that dials a wire server (see
// cmd/spatialdbd) at addr.
func ConnectRemote(addr, name string) Connector { return wire.NewClient(addr, name) }

// Cluster aliases the spatially-sharded scatter-gather router. A
// *Cluster is a Connector, so every suite and report runs against it
// unchanged.
type Cluster = cluster.Cluster

// ShardStats aliases the cluster's scatter/prune counters.
type ShardStats = driver.ShardStats

// OpenCluster builds an in-process spatially-sharded cluster: n engines
// with the given profile, each preloaded with its grid-partition slice
// of the dataset and fully indexed, behind one scatter-gather router.
func OpenCluster(p Profile, ds *Dataset, n int) (*Cluster, error) {
	return experiments.SetupCluster(p, ds, n)
}

// OpenClusterRemote assembles a cluster whose shards are wire servers.
// Each server at addrs[i] must hold shard i's partition of the dataset
// (spatialdbd -preload ... -shard i -of len(addrs)) and run the given
// profile.
func OpenClusterRemote(p Profile, ds *Dataset, addrs []string) (*Cluster, error) {
	part, err := cluster.NewPartitioner(ds.Extent, len(addrs))
	if err != nil {
		return nil, err
	}
	shards := make([]Connector, len(addrs))
	for i, addr := range addrs {
		shards[i] = wire.NewClient(addr, fmt.Sprintf("shard%d", i))
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

// SQLConnector adapts a local engine to Go's database/sql:
//
//	db := sql.OpenDB(jackpine.SQLConnector(eng))
//
// Remote engines are reachable with sql.Open("jackpine",
// "tcp://host:port") — importing this package registers the driver.
// Geometry columns scan as WKB []byte; '?' placeholders are supported.
func SQLConnector(eng *Engine) sqldrv.Connector { return sqldriver.NewConnector(eng) }

// GenerateDataset builds the deterministic TIGER-like dataset.
func GenerateDataset(scale Scale, seed int64) *Dataset { return tiger.Generate(scale, seed) }

// LoadDataset creates the benchmark schema in the engine and loads the
// dataset, optionally building all indexes.
func LoadDataset(eng *Engine, ds *Dataset, withIndexes bool) error {
	return tiger.Load(engineExecer{eng}, ds, withIndexes)
}

// LoadDatasetConn loads the dataset through any driver connection (for
// remote engines).
func LoadDatasetConn(conn Conn, ds *Dataset, withIndexes bool) error {
	return tiger.Load(connExecer{conn}, ds, withIndexes)
}

type engineExecer struct{ e *Engine }

// Exec implements tiger.Execer.
func (a engineExecer) Exec(q string) error {
	_, err := a.e.Exec(q)
	return err
}

type connExecer struct{ c Conn }

// Exec implements tiger.Execer.
func (a connExecer) Exec(q string) error {
	_, err := a.c.Exec(q)
	return err
}

// NewQueryContext builds the deterministic probe generator for a dataset.
func NewQueryContext(ds *Dataset) *QueryContext { return core.NewQueryContext(ds) }

// TopologicalSuite returns the DE-9IM micro benchmark queries (MT1–MT15).
func TopologicalSuite() []MicroQuery { return core.TopologicalSuite() }

// AnalysisSuite returns the spatial-analysis micro benchmark queries
// (MA1–MA12).
func AnalysisSuite() []MicroQuery { return core.AnalysisSuite() }

// MicroSuite returns both micro suites.
func MicroSuite() []MicroQuery { return core.MicroSuite() }

// MacroSuite returns the seven macro workload scenarios (MS1–MS7).
func MacroSuite() []MacroScenario { return core.MacroSuite() }

// DefaultOptions returns the workload-runner defaults.
func DefaultOptions() Options { return core.DefaultOptions() }

// RunMicro measures a micro suite against a connector.
func RunMicro(c Connector, suite []MicroQuery, ctx *QueryContext, opts Options) ([]MicroResult, error) {
	return core.RunMicro(c, suite, ctx, opts)
}

// RunMacro measures one macro scenario.
func RunMacro(c Connector, sc MacroScenario, ctx *QueryContext, opts Options) MacroResult {
	return core.RunMacro(c, sc, ctx, opts)
}

// RunMacroSuite measures all macro scenarios.
func RunMacroSuite(c Connector, ctx *QueryContext, opts Options) []MacroResult {
	return core.RunMacroSuite(c, ctx, opts)
}

// WriteMicroTable renders micro results as an aligned comparison table.
func WriteMicroTable(w io.Writer, results []MicroResult) { core.WriteMicroTable(w, results) }

// WriteMicroCSV renders micro results as CSV.
func WriteMicroCSV(w io.Writer, results []MicroResult) { core.WriteMicroCSV(w, results) }

// WriteMacroTable renders macro results as an aligned comparison table.
func WriteMacroTable(w io.Writer, results []MacroResult) { core.WriteMacroTable(w, results) }

// WriteMacroCSV renders macro results as CSV.
func WriteMacroCSV(w io.Writer, results []MacroResult) { core.WriteMacroCSV(w, results) }
