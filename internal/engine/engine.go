package engine

//lint:allow-file lockdiscipline Exec holds e.mu for the whole statement; the catalog is reached only through it

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"jackpine/internal/sql"
	"jackpine/internal/storage"
	"jackpine/internal/storage/wal"
)

// defaultPoolPages sizes the buffer pool when the profile does not
// (4096 pages = 32 MiB).
const defaultPoolPages = 4096

// defaultGeomCacheBytes budgets the decoded-geometry cache (16 MiB).
const defaultGeomCacheBytes = 16 << 20

// defaultPlanCacheEntries bounds the prepared-statement cache.
const defaultPlanCacheEntries = 256

// Engine is a complete spatial database instance.
type Engine struct {
	profile   Profile
	store     storage.PageStore
	pool      *storage.BufferPool
	geomCache *storage.GeomCache // nil when disabled
	plans     *planCache         // nil when disabled
	runner    *sql.Runner
	reg       *sql.Registry

	// ddlEpoch versions the schema: every CREATE/DROP of a table or
	// index bumps it, invalidating cached plans parsed under an older
	// epoch.
	ddlEpoch atomic.Uint64

	// Durability state (nil/zero for in-memory engines; see durable.go).
	wal       *wal.WAL
	dataDir   string
	ckptBytes int64
	catPages  []uint32 // catalog page chain, head first
	catLast   []byte   // last serialized catalog, for change detection
	// inflight tracks commits whose fsync runs outside e.mu; Checkpoint
	// drains it before rotating the log so no commit record can land in
	// a generation that postdates its page images.
	inflight sync.WaitGroup

	mu     sync.RWMutex
	tables map[string]*table
}

// Option configures Open.
type Option func(*options)

type options struct {
	store        storage.PageStore
	poolPages    int
	parallelism  int
	parSet       bool
	geomBytes    int
	geomSet      bool
	planEntries  int
	planSet      bool
	topoPrep     bool
	topoPrepSet  bool
	batchExec    bool
	batchSet     bool
	joinStrat    sql.JoinStrategy
	joinStratSet bool
}

// WithStore backs the engine with a custom page store (e.g. a FileStore).
func WithStore(s storage.PageStore) Option {
	return func(o *options) { o.store = s }
}

// WithPoolPages overrides the buffer pool size in pages.
func WithPoolPages(n int) Option {
	return func(o *options) { o.poolPages = n }
}

// WithParallelism sizes the worker pool used for parallel-eligible
// query plans. n <= 0 means GOMAXPROCS; 1 forces serial execution.
// Overrides the profile's Parallelism.
func WithParallelism(n int) Option {
	return func(o *options) { o.parallelism = n; o.parSet = true }
}

// WithGeomCache budgets the decoded-geometry cache in bytes. bytes <= 0
// disables it. Default: 16 MiB.
func WithGeomCache(bytes int) Option {
	return func(o *options) { o.geomBytes = bytes; o.geomSet = true }
}

// WithPlanCache bounds the prepared-statement (plan) cache in entries.
// entries <= 0 disables it. Default: 256.
func WithPlanCache(entries int) Option {
	return func(o *options) { o.planEntries = entries; o.planSet = true }
}

// WithTopoPrep toggles prepared-geometry evaluation of topological
// predicates: the constant side of a predicate (literal query window,
// outer row of a spatial join) is decomposed and indexed once per
// statement execution and reused across rows. Default: enabled.
// MBR profiles ignore the setting (approximate evaluation has nothing
// to prepare).
func WithTopoPrep(enabled bool) Option {
	return func(o *options) { o.topoPrep = enabled; o.topoPrepSet = true }
}

// WithBatchExec toggles batch-at-a-time (vectorized) stage-0 query
// execution: eligible scans feed column batches through flat MBR
// prefilter kernels and batched predicate refinement instead of one
// row per callback. Default: enabled. Plans batching does not cover
// (kNN, index seeks, bare LIMIT) use the row path either way.
func WithBatchExec(enabled bool) Option {
	return func(o *options) { o.batchExec = enabled; o.batchSet = true }
}

// WithJoinStrategy forces the spatial-join strategy: sql.JoinAuto
// (cost-based, the default), sql.JoinINL (per-outer-row index probes)
// or sql.JoinPBSM (partitioned sweep whenever structurally eligible).
func WithJoinStrategy(s sql.JoinStrategy) Option {
	return func(o *options) { o.joinStrat = s; o.joinStratSet = true }
}

// Open creates an engine with the given profile.
func Open(profile Profile, opts ...Option) *Engine {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	if o.store == nil {
		o.store = storage.NewMemStore()
	}
	if o.poolPages == 0 {
		o.poolPages = profile.BufferPoolPages
	}
	if o.poolPages == 0 {
		o.poolPages = defaultPoolPages
	}
	if !o.geomSet {
		o.geomBytes = defaultGeomCacheBytes
	}
	if !o.planSet {
		o.planEntries = defaultPlanCacheEntries
	}
	e := &Engine{
		profile:   profile,
		store:     o.store,
		pool:      storage.NewBufferPool(o.store, o.poolPages),
		geomCache: storage.NewGeomCache(o.geomBytes),
		plans:     newPlanCache(o.planEntries),
		tables:    make(map[string]*table),
		reg:       sql.NewRegistry(profile.registryOptions()),
	}
	e.runner = sql.NewRunner(e, e.reg)
	par := profile.Parallelism
	if o.parSet {
		par = o.parallelism
	}
	e.runner.SetParallelism(par)
	if o.topoPrepSet {
		e.runner.SetTopoPrep(o.topoPrep)
	}
	if o.batchSet {
		e.runner.SetBatchExec(o.batchExec)
	}
	if o.joinStratSet {
		e.runner.SetJoinStrategy(o.joinStrat)
	}
	return e
}

// SetParallelism resizes the intra-query worker pool at runtime.
// n <= 0 resets to GOMAXPROCS; 1 forces serial execution.
func (e *Engine) SetParallelism(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.runner.SetParallelism(n)
}

// Parallelism reports the configured worker pool size.
func (e *Engine) Parallelism() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.runner.Parallelism()
}

// SetJoinStrategy changes the spatial-join strategy at runtime.
func (e *Engine) SetJoinStrategy(s sql.JoinStrategy) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.runner.SetJoinStrategy(s)
}

// JoinStrategy reports the configured spatial-join strategy.
func (e *Engine) JoinStrategy() sql.JoinStrategy {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.runner.JoinStrategy()
}

// JoinStats reports cumulative spatial-join activity: joins per
// strategy, PBSM grid cells built, and reference-point dedup drops.
func (e *Engine) JoinStats() sql.JoinStats {
	return e.runner.JoinStats()
}

// ResetJoinStats zeroes the spatial-join counters.
func (e *Engine) ResetJoinStats() {
	e.runner.ResetJoinStats()
}

// BatchStats reports cumulative batch-execution activity: batches
// processed and rows entering the batch filter cascade. Equivalence
// tests assert these to prove the intended path ran.
func (e *Engine) BatchStats() (batches, rows int64) {
	return e.runner.BatchStats()
}

// ResetBatchStats zeroes the batch activity counters.
func (e *Engine) ResetBatchStats() {
	e.runner.ResetBatchStats()
}

// Profile returns the engine's profile.
func (e *Engine) Profile() Profile { return e.profile }

// Pool exposes the buffer pool (cache experiments).
func (e *Engine) Pool() *storage.BufferPool { return e.pool }

// GeomCache exposes the decoded-geometry cache; nil when disabled.
func (e *Engine) GeomCache() *storage.GeomCache { return e.geomCache }

// PlanCacheStats snapshots the prepared-statement cache counters.
func (e *Engine) PlanCacheStats() PlanCacheStats { return e.plans.snapshot() }

// PlanCacheLen reports the number of cached statements.
func (e *Engine) PlanCacheLen() int { return e.plans.len() }

// CacheCounters bundles the raw hit/miss counters of every cache layer:
// buffer pool (pages), geometry cache (decoded WKB), plan cache
// (parsed statements), prepared-geometry topology kernel (exact
// predicate evaluations served by a prepared constant side). Reports
// sample it before and after a timed region and difference the
// snapshots.
type CacheCounters struct {
	PoolHits, PoolMisses uint64
	GeomHits, GeomMisses uint64
	PlanHits, PlanMisses uint64
	PrepHits, PrepMisses uint64

	// Durability counters; meaningful only when WALEnabled (in-memory
	// engines report zeroes and reports render the columns as unknown).
	// DirtyPages is a gauge — sample it, do not difference it.
	WALEnabled  bool
	WALAppends  uint64
	WALFsyncs   uint64
	PoolFlushes uint64
	DirtyPages  uint64
}

// CacheCounters snapshots all cache layers at once.
func (e *Engine) CacheCounters() CacheCounters {
	ps := e.pool.Stats()
	gs := e.geomCache.Stats()
	cs := e.plans.snapshot()
	ph, pm := e.reg.PreparedCounters()
	out := CacheCounters{
		PoolHits: ps.Hits, PoolMisses: ps.Misses,
		GeomHits: gs.Hits, GeomMisses: gs.Misses,
		PlanHits: cs.Hits, PlanMisses: cs.Misses,
		PrepHits: uint64(ph), PrepMisses: uint64(pm),
	}
	if e.wal != nil {
		ws := e.wal.Stats()
		out.WALEnabled = true
		out.WALAppends = ws.Appends
		out.WALFsyncs = ws.Fsyncs
		out.PoolFlushes = ps.Flushes
		out.DirtyPages = uint64(e.pool.DirtyPages())
	}
	return out
}

// ResetCacheStats zeroes the activity counters of every cache layer
// (contents are kept), so timed runs measure only their own traffic.
func (e *Engine) ResetCacheStats() {
	e.pool.ResetStats()
	e.geomCache.ResetStats()
	e.plans.resetStats()
	e.reg.ResetPreparedCounters()
}

// Close releases the backing store. Durable engines checkpoint first,
// so a clean close leaves an empty log and a fully materialized page
// file.
func (e *Engine) Close() error {
	if e.wal != nil {
		if err := e.Checkpoint(); err != nil {
			return err
		}
		if err := e.wal.Close(); err != nil {
			return err
		}
		return e.store.Close()
	}
	if err := e.pool.FlushAll(); err != nil {
		return err
	}
	return e.store.Close()
}

// Exec parses and executes one SQL statement. Reads run concurrently;
// DDL and DML serialize against everything else. Parses of repeated
// SELECT/EXPLAIN texts are served from the plan cache.
func (e *Engine) Exec(query string) (*sql.Result, error) {
	stmt, err := e.parseCached(query)
	if err != nil {
		return nil, err
	}
	return e.execStatement(stmt)
}

// parseCached returns a statement tree private to this execution,
// consulting the plan cache for SELECT/EXPLAIN texts. Cached templates
// stay pristine: the caller always receives a clone, because execution
// binds column offsets into the tree in place and concurrent readers
// may hold clones of the same entry. DDL and DML bypass the cache
// entirely so they don't pollute its miss counters.
func (e *Engine) parseCached(query string) (sql.Statement, error) {
	if e.plans == nil || !cacheableSQL(query) {
		return sql.Parse(query)
	}
	epoch := e.ddlEpoch.Load()
	if stmt, ok := e.plans.get(query, epoch); ok {
		return stmt, nil
	}
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	switch stmt.(type) {
	case *sql.Select, *sql.Explain:
		e.plans.put(query, stmt, epoch)
		return sql.CloneStatement(stmt), nil
	}
	return stmt, nil
}

// cacheableSQL cheaply screens for statements the plan cache stores
// (SELECT/EXPLAIN) without parsing, so write statements never touch
// the cache or its hit/miss statistics.
func cacheableSQL(query string) bool {
	s := strings.TrimLeft(query, " \t\r\n")
	return len(s) >= 6 && (strings.EqualFold(s[:6], "SELECT") ||
		(len(s) >= 7 && strings.EqualFold(s[:7], "EXPLAIN")))
}

// execStatement runs a parsed statement under the engine's lock
// discipline: read-only statements share the read lock (EXPLAIN plans
// without executing and must not serialize readers), everything else
// takes the write lock. On a durable engine every mutating statement is
// a transaction: its dirty pages and catalog are logged and the commit
// record appended under the lock (so log order is commit order), but
// the fsync happens after release — that is what lets concurrent
// committers share one fsync (group commit).
func (e *Engine) execStatement(stmt sql.Statement) (*sql.Result, error) {
	switch stmt.(type) {
	case *sql.Select, *sql.Explain:
		e.mu.RLock()
		defer e.mu.RUnlock()
		return e.runner.Execute(stmt)
	}
	e.mu.Lock()
	res, err := e.runner.Execute(stmt)
	if err != nil || e.wal == nil {
		e.mu.Unlock()
		return res, err
	}
	end, cerr := e.commitLocked()
	needCkpt := cerr == nil && e.wal.Size() >= e.ckptBytes
	e.mu.Unlock()
	if cerr != nil {
		return nil, fmt.Errorf("engine: durable commit: %w", cerr)
	}
	if end != 0 {
		serr := e.wal.Sync(end)
		e.inflight.Done()
		if serr != nil {
			return nil, serr
		}
	}
	if needCkpt {
		if err := e.Checkpoint(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// ExecParsed executes an already-parsed statement under the same lock
// discipline as Exec. The caller must not reuse the tree across
// executions (binding mutates it in place; clone with sql.CloneStatement
// first). Used by the cluster router's gather path, which constructs
// statement trees directly so geometry values round-trip without a
// rendering step.
func (e *Engine) ExecParsed(stmt sql.Statement) (*sql.Result, error) {
	return e.execStatement(stmt)
}

// MustExec executes a statement and panics on error; intended for
// loaders and tests.
func (e *Engine) MustExec(query string) *sql.Result {
	res, err := e.Exec(query)
	if err != nil {
		panic(fmt.Sprintf("engine %s: %s: %v", e.profile.Name, query, err))
	}
	return res
}

// --- sql.Catalog ---------------------------------------------------------
// The catalog methods are called with e.mu already held by Exec; direct
// callers (the loader) go through Exec.

// Table implements sql.Catalog.
func (e *Engine) Table(name string) (sql.Table, bool) {
	t, ok := e.tables[strings.ToLower(name)]
	if !ok {
		return nil, false
	}
	return t, true
}

// CreateTable implements sql.Catalog.
func (e *Engine) CreateTable(name string, cols []sql.Column) error {
	key := strings.ToLower(name)
	if _, exists := e.tables[key]; exists {
		return fmt.Errorf("engine: table %q already exists", name)
	}
	if len(cols) == 0 {
		return fmt.Errorf("engine: table %q needs at least one column", name)
	}
	seen := map[string]bool{}
	for _, c := range cols {
		if seen[c.Name] {
			return fmt.Errorf("engine: duplicate column %q in table %q", c.Name, name)
		}
		seen[c.Name] = true
	}
	e.tables[key] = newTable(key, cols, e.pool, e.geomCache)
	e.ddlEpoch.Add(1)
	return nil
}

// CreateIndex implements sql.Catalog.
func (e *Engine) CreateIndex(_, tableName string, columns []string, spatial bool) error {
	t, ok := e.tables[strings.ToLower(tableName)]
	if !ok {
		return fmt.Errorf("engine: unknown table %q", tableName)
	}
	defer e.ddlEpoch.Add(1)
	if spatial {
		if len(columns) != 1 {
			return fmt.Errorf("engine: spatial indexes take exactly one column")
		}
		return t.buildSpatialIndex(columns[0], e.profile.SpatialIndex, e.profile.GridDim)
	}
	return t.buildAttrIndex(columns)
}

// Vacuum implements sql.Catalog: it rewrites the table's heap into fresh
// pages (reclaiming tombstoned slots and abandoned overflow chains left
// by DELETE and UPDATE) and rebuilds its indexes. The old pages remain
// allocated in the page store; only a store rewrite reclaims them.
func (e *Engine) Vacuum(tableName string) error {
	t, ok := e.tables[strings.ToLower(tableName)]
	if !ok {
		return fmt.Errorf("engine: unknown table %q", tableName)
	}
	e.ddlEpoch.Add(1)
	return t.rebuild(e.pool, e.profile.SpatialIndex, e.profile.GridDim)
}

// DropTable implements sql.Catalog. The table's pages remain allocated
// in the page store (as with Vacuum, only a store rewrite reclaims them)
// but all in-memory structures are released.
func (e *Engine) DropTable(tableName string, ifExists bool) error {
	key := strings.ToLower(tableName)
	if _, ok := e.tables[key]; !ok {
		if ifExists {
			return nil
		}
		return fmt.Errorf("engine: unknown table %q", tableName)
	}
	delete(e.tables, key)
	// A later table of the same name would reuse record ids, so cached
	// geometries must not outlive the definition.
	e.geomCache.InvalidateTable(key)
	e.ddlEpoch.Add(1)
	return nil
}

// DropSpatialIndex removes the spatial index on table.column, reporting
// whether it existed. Used by the index-effect experiment (E5).
func (e *Engine) DropSpatialIndex(tableName, column string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, ok := e.tables[strings.ToLower(tableName)]
	if !ok {
		return false
	}
	dropped := t.dropSpatialIndex(column)
	if dropped {
		e.ddlEpoch.Add(1)
	}
	return dropped
}

// TableNames returns the sorted table names.
func (e *Engine) TableNames() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	names := make([]string, 0, len(e.tables))
	for n := range e.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SupportsFunction reports whether the profile provides the SQL function.
func (e *Engine) SupportsFunction(name string) bool {
	return e.reg.Has(strings.ToUpper(name))
}

// FunctionNames lists the functions this engine supports.
func (e *Engine) FunctionNames() []string { return e.reg.Names() }
