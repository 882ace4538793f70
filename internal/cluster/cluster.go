// Package cluster shards the Jackpine tables spatially across N
// independent engines and exposes the ensemble as one driver.Connector,
// so every micro query, macro scenario and report in the benchmark runs
// against a scale-out deployment unchanged.
//
// A Partitioner tiles the dataset extent into a grid with one cell per
// shard; every row of a table with a GEOMETRY column lives on exactly
// one shard (chosen by its envelope centre), while tables without
// geometry are replicated to all shards. Partitioned tables carry a
// hidden trailing _seq column holding a cluster-wide insertion sequence
// number: merging shard streams in _seq order reproduces the heap-scan
// order of an equivalent single engine, and breaking ORDER BY ties by
// _seq makes sorted merges deterministic.
//
// A cluster connection binds every SELECT once, joins included, with
// the engine's sql.Bind, against its bindings' catalog columns, so a
// statement that does not bind fails with the engine's error before
// any shard is asked. It takes every routing decision with the
// engine's own code over that tree: the planner's spatial window
// (sql.SpatialWindow) for pruning, its PBSM and index-probe matchers
// (sql.PBSMJoin, sql.JoinProbe) for the join pushdown's distance bound
// and the gather's semijoin, its kNN shape (sql.KNNShape), the
// executor's output names (sql.OutputNames) and its aggregate partials
// and merge (sql.PartialItems, sql.MergePartials). It routes
// statements through five paths, tried in order:
//
//   - the single-shard fast path: when the query's constant spatial
//     window (or kNN bound) resolves to exactly one owning shard, the
//     original statement is forwarded verbatim — no _seq rewrite, no
//     merge — because a shard's local heap order is _seq order;
//   - plain scans fan out with _seq appended (and LIMIT pushed down)
//     and stream-merge in _seq order as fragments arrive;
//   - ORDER BY queries fan out with the sort keys appended, push
//     LIMIT+OFFSET to each shard, and stream-merge by (keys, _seq);
//     kNN-shaped queries run in two phases — nearest shard first, then
//     only the shards whose data MBR lies within the k-th distance —
//     canceling shards the tightening bound proves irrelevant;
//   - global aggregates rewrite SUM/AVG to the hidden __PARTIAL_SUM
//     aggregate, and the shards' partials merge, in shard order, as the
//     executor's aggregate states and finalize once — the same bits a
//     single engine would produce;
//   - everything else (joins, GROUP BY, …) gathers per-table fragments
//     — pushing per-binding conjuncts and spatial-semijoin filters
//     derived from join predicates, so shard pruning still applies —
//     into a fresh local engine with the same profile, built for this
//     statement alone and dropped after it, and runs the original query
//     there (or forwards verbatim when every fragment collapses to one
//     shard). Co-partitioned aggregate spatial joins skip the gather:
//     shards count their local pairs and a transient complement engine
//     counts the cross-shard ones.
//
// Shards are plain driver.Connectors: in-process engines and remote
// wire connections mix freely, so a cluster of spatialdbd processes
// (each started with -shard i -of n) behaves identically to an
// in-process cluster. A cluster session holds exactly one session per
// shard.
package cluster

import (
	"fmt"
	"strings"
	"sync"

	"jackpine/internal/driver"
	"jackpine/internal/engine"
	"jackpine/internal/geom"
	"jackpine/internal/sql"
	"jackpine/internal/storage"
)

// SeqColumn is the hidden global-insertion-sequence column appended to
// every partitioned table on the shards. The lexer accepts leading
// underscores, so shard-side SQL can name it, but benchmark schemas
// never do.
const SeqColumn = "_seq"

// Options configure a cluster.
type Options struct {
	// Name labels the connector in reports; defaults to
	// "cluster-<n>x-<profile>".
	Name string
	// Profile supplies the SQL semantics the router itself needs —
	// constant-probe evaluation, INSERT routing, aggregate finalizing
	// and the gather engine. It must match the profile the shard
	// engines were opened with, or routed and shard-local evaluation
	// would disagree.
	Profile engine.Profile
	// JoinStrategy forces the spatial-join strategy of the transient
	// engines the router itself opens — one per gathered statement and
	// one per join-pushdown complement. Shard engines are opened by the
	// caller and carry their own knob. The zero value is sql.JoinAuto
	// (cost-based).
	JoinStrategy sql.JoinStrategy
}

// tableInfo is the cluster catalog entry for one table.
type tableInfo struct {
	name string
	cols []sql.Column // benchmark-visible schema, without _seq
	// geomCol indexes the partitioning geometry column in cols, -1 for
	// replicated (geometry-free) tables.
	geomCol int
	// seq is the next global insertion sequence number.
	seq int64
	// mbr is the measured per-shard data envelope, used for pruning.
	// Features may overhang their grid cell, so pruning must use these
	// rather than the cell rectangles. INSERT grows them; DELETE does
	// not shrink them (a sound over-estimate).
	mbr []geom.Rect
	// rows is the per-shard row count (EXPLAIN cosmetics only).
	rows []int64
	// nullGeom counts rows with a NULL partitioning geometry per shard
	// (routing sends them all to shard 0). NULL distance keys sort
	// before every real distance, so kNN bound-pruning must never skip
	// a shard holding such rows. Like mbr, DELETE does not shrink it.
	nullGeom []int64
}

func (t *tableInfo) partitioned() bool { return t.geomCol >= 0 }

// Cluster is a driver.Connector over N spatially-partitioned shards.
type Cluster struct {
	name      string
	shards    []driver.Connector
	part      Partitioner
	prof      engine.Profile
	joinStrat sql.JoinStrategy
	reg       *sql.Registry
	shapes    sql.ShapeCache // the router's parse cache

	mu     sync.Mutex
	tables map[string]*tableInfo
	stats  driver.ShardStats
}

// Open assembles a cluster from per-shard connectors. len(shards) must
// equal part.Shards().
func Open(shards []driver.Connector, part Partitioner, opts Options) (*Cluster, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("cluster: no shards")
	}
	if len(shards) != part.Shards() {
		return nil, fmt.Errorf("cluster: %d shards for %d partitions", len(shards), part.Shards())
	}
	name := opts.Name
	if name == "" {
		name = fmt.Sprintf("cluster-%dx-%s", len(shards), opts.Profile.Name)
	}
	return &Cluster{
		name:      name,
		shards:    shards,
		part:      part,
		prof:      opts.Profile,
		joinStrat: opts.JoinStrategy,
		reg: sql.NewRegistry(sql.RegistryOptions{
			MBRPredicates: opts.Profile.MBRPredicates,
			Disabled:      opts.Profile.DisabledFunctions,
		}),
		tables: make(map[string]*tableInfo),
	}, nil
}

// Name implements driver.Connector.
func (c *Cluster) Name() string { return c.name }

// Connect implements driver.Connector: it opens one session per shard.
func (c *Cluster) Connect() (driver.Conn, error) {
	sess := make([]driver.Conn, len(c.shards))
	for i, connector := range c.shards {
		cn, err := connector.Connect()
		if err != nil {
			for _, s := range sess[:i] {
				s.Close()
			}
			return nil, fmt.Errorf("cluster: shard %d: %w", i, err)
		}
		sess[i] = cn
	}
	return &Conn{c: c, sess: sess}, nil
}

// Partitioner returns the cluster's partitioning scheme.
func (c *Cluster) Partitioner() Partitioner { return c.part }

// ShardStats snapshots the cluster-wide scatter/prune counters.
func (c *Cluster) ShardStats() driver.ShardStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Shards = len(c.shards)
	return s
}

// ResetShardStats zeroes the scatter/prune counters (between benchmark
// phases).
func (c *Cluster) ResetShardStats() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats = driver.ShardStats{}
}

// Register records a table that was created on the shards out of band
// (e.g. preloaded with tiger.LoadShard) without executing any DDL. The
// statement must be the benchmark-visible CREATE TABLE, without _seq.
// Call RefreshStats afterwards to learn the shards' data extents and
// sequence high-water mark.
func (c *Cluster) Register(ddl string) error {
	stmt, err := sql.Parse(ddl)
	if err != nil {
		return err
	}
	ct, ok := stmt.(*sql.CreateTable)
	if !ok {
		return fmt.Errorf("cluster: Register wants CREATE TABLE, got %T", stmt)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.registerLocked(ct)
	return nil
}

// registerLocked adds a catalog entry. Caller holds c.mu.
func (c *Cluster) registerLocked(ct *sql.CreateTable) *tableInfo {
	info := &tableInfo{
		name:     ct.Name,
		cols:     append([]sql.Column(nil), ct.Columns...),
		geomCol:  -1,
		mbr:      make([]geom.Rect, len(c.shards)),
		rows:     make([]int64, len(c.shards)),
		nullGeom: make([]int64, len(c.shards)),
	}
	for i, col := range ct.Columns {
		if col.Type == storage.TypeGeom {
			info.geomCol = i
			break
		}
	}
	for i := range info.mbr {
		info.mbr[i] = geom.EmptyRect()
	}
	c.tables[ct.Name] = info
	return info
}

// countGatherBuild records a gather that built a transient engine.
func (c *Cluster) countGatherBuild() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.GatherBuilds++
}

// countJoinPushdown records a join answered shard-local.
func (c *Cluster) countJoinPushdown() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.JoinPushdowns++
}

// RefreshStats measures every partitioned table on every shard —
// per-shard data MBR, row count and _seq high-water mark — so pruning
// and sequence allocation work for shards loaded out of band. The
// probe is a plain aggregate query, so it works across the wire and
// under every profile (aggregates bypass the profile's disabled-
// function list).
func (c *Cluster) RefreshStats() error {
	conn, err := c.Connect()
	if err != nil {
		return err
	}
	defer conn.Close()
	cc := conn.(*Conn)

	c.mu.Lock()
	infos := make([]*tableInfo, 0, len(c.tables))
	for _, info := range c.tables {
		if info.partitioned() {
			infos = append(infos, info)
		}
	}
	c.mu.Unlock()

	for _, info := range infos {
		geoName := info.cols[info.geomCol].Name
		q := fmt.Sprintf("SELECT ST_Extent(%s), COUNT(*), MAX(%s) FROM %s",
			geoName, SeqColumn, info.name)
		nullQ := fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE %s IS NULL", info.name, geoName)
		mbrs := make([]geom.Rect, len(c.shards))
		counts := make([]int64, len(c.shards))
		nulls := make([]int64, len(c.shards))
		maxSeq := int64(-1)
		for i := range c.shards {
			rs, err := cc.sess[i].Query(q)
			if err != nil {
				return fmt.Errorf("cluster: stats for %s on shard %d: %w", info.name, i, err)
			}
			mbrs[i] = geom.EmptyRect()
			if len(rs.Rows) == 1 {
				row := rs.Rows[0]
				if row[0].Type == storage.TypeGeom && row[0].Geom != nil {
					mbrs[i] = row[0].Geom.Envelope()
				}
				if row[1].Type == storage.TypeInt {
					counts[i] = row[1].Int
				}
				if row[2].Type == storage.TypeInt && row[2].Int > maxSeq {
					maxSeq = row[2].Int
				}
			}
			nrs, err := cc.sess[i].Query(nullQ)
			if err != nil {
				return fmt.Errorf("cluster: null stats for %s on shard %d: %w", info.name, i, err)
			}
			if len(nrs.Rows) == 1 && nrs.Rows[0][0].Type == storage.TypeInt {
				nulls[i] = nrs.Rows[0][0].Int
			}
		}
		c.mu.Lock()
		info.mbr = mbrs
		info.rows = counts
		info.nullGeom = nulls
		if maxSeq+1 > info.seq {
			info.seq = maxSeq + 1
		}
		c.mu.Unlock()
	}
	return nil
}

// lookup returns the catalog entry for a table, nil if unknown.
func (c *Cluster) lookup(name string) *tableInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tables[name]
}

// allocSeq reserves n consecutive sequence numbers for a table and
// returns the first.
func (c *Cluster) allocSeq(info *tableInfo, n int) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	first := info.seq
	info.seq += int64(n)
	return first
}

// noteInsert grows a shard's data MBR, row count and NULL-geometry
// count after routing rows to it.
func (c *Cluster) noteInsert(info *tableInfo, shard int, env geom.Rect, n, nulls int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !env.IsEmpty() {
		info.mbr[shard] = info.mbr[shard].Union(env)
	}
	info.rows[shard] += n
	info.nullGeom[shard] += nulls
}

// countScatter records one fan-out decision: sent and pruned shard
// queries, and whether the scatter was prune-eligible (carried a
// constant spatial window or kNN bound). Ineligible scatters keep the
// prune-rate denominator honest: a windowless full scan could never
// have pruned anything.
func (c *Cluster) countScatter(sent, pruned int, eligible bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Scatters++
	c.stats.ShardQueries += sent
	if eligible {
		c.stats.PrunableSent += sent
		c.stats.Pruned += pruned
	}
}

// countFastPath records a statement forwarded verbatim to one shard.
func (c *Cluster) countFastPath() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.FastPathHits++
}

// typeKeyword renders a column type for shard-side DDL.
func typeKeyword(t storage.ValueType) string {
	switch t {
	case storage.TypeInt:
		return "INTEGER"
	case storage.TypeFloat:
		return "DOUBLE"
	case storage.TypeText:
		return "TEXT"
	case storage.TypeGeom:
		return "GEOMETRY"
	case storage.TypeBool:
		return "BOOLEAN"
	}
	return "TEXT"
}

// shardDDL renders the shard-side CREATE TABLE for a catalog entry,
// appending _seq for partitioned tables.
func shardDDL(info *tableInfo) string {
	var b strings.Builder
	b.WriteString("CREATE TABLE ")
	b.WriteString(info.name)
	b.WriteString(" (")
	for i, col := range info.cols {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(col.Name)
		b.WriteByte(' ')
		b.WriteString(typeKeyword(col.Type))
	}
	if info.partitioned() {
		b.WriteString(", ")
		b.WriteString(SeqColumn)
		b.WriteString(" INTEGER")
	}
	b.WriteString(")")
	return b.String()
}
