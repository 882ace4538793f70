// Package driver defines the database-access abstraction the Jackpine
// benchmark runs against — the role JDBC plays in the original paper.
// Any engine reachable through a Connector can be benchmarked: the
// in-process connector in this package wraps a local engine directly,
// and package wire provides a TCP client/server pair implementing the
// same interfaces for remote engines.
package driver

import (
	"context"
	"fmt"
	"sync"

	"jackpine/internal/engine"
	"jackpine/internal/sql"
	"jackpine/internal/storage"
)

// ResultSet is a fully-retrieved query result. Benchmark timings include
// building it, mirroring a JDBC client draining its result cursor.
type ResultSet struct {
	Columns []string
	Rows    [][]storage.Value
}

// Conn is a single database session.
type Conn interface {
	// Exec runs a statement that returns no rows and reports the number
	// of affected rows.
	Exec(query string) (int, error)
	// Query runs a statement and retrieves its full result.
	Query(query string) (*ResultSet, error)
	// Close releases the session.
	Close() error
}

// Connector creates sessions against one database instance.
type Connector interface {
	// Name identifies the target database (profile name).
	Name() string
	// Connect opens a new session.
	Connect() (Conn, error)
}

// ContextConn is an optional Conn extension for cancelable queries. A
// scatter-gather router uses it to abandon shard requests it no longer
// needs (a kNN bound pruned the shard, or another shard failed):
// sessions that implement it honor ctx cancellation (at least between
// statements), others simply run the query to completion and the
// caller discards the result.
type ContextConn interface {
	QueryContext(ctx context.Context, query string) (*ResultSet, error)
}

// ShardStats is a snapshot of a sharded connector's scatter-gather
// counters. Connections to a cluster expose it through a ShardStats()
// method (the benchmark core detects the method by interface assertion,
// the way it detects CacheCounters); single-engine connections simply
// lack it.
type ShardStats struct {
	// Shards is the cluster size.
	Shards int
	// Scatters counts routed statements that fanned out (or could have).
	Scatters int
	// ShardQueries counts per-shard statements actually sent.
	ShardQueries int
	// Pruned counts per-shard statements avoided because the shard's
	// data MBR cannot intersect the query window.
	Pruned int
	// PrunableSent counts per-shard statements sent by prune-eligible
	// scatters — those whose query carried a constant spatial window
	// (or kNN bound) the router could prune against. ShardQueries
	// minus PrunableSent were sent by scatters with nothing to prune
	// on; counting them in the prune-rate denominator would understate
	// pruning on mixed workloads.
	PrunableSent int
	// FastPathHits counts statements resolved to a single owning shard
	// and forwarded verbatim, skipping the scatter/merge machinery.
	FastPathHits int
	// GatherBuilds counts gathered statements: each builds a fresh
	// transient engine (schema, fragment load, spatial index) and drops
	// it afterwards. Single-shard forwards and join pushdowns build no
	// gather engine and do not count.
	GatherBuilds int
	// JoinPushdowns counts co-partitioned spatial aggregate joins
	// answered shard-local (partial-aggregate scatter plus a boundary
	// complement) instead of through the gather engine.
	JoinPushdowns int
}

// PruneRate is the fraction of potential shard queries avoided by
// spatial pruning, over prune-eligible scatters only; -1 when nothing
// prune-eligible was routed. A windowless full scan is not eligible
// and does not drag the rate toward zero.
func (s ShardStats) PruneRate() float64 {
	total := s.PrunableSent + s.Pruned
	if total == 0 {
		return -1
	}
	return float64(s.Pruned) / float64(total)
}

// --- in-process connector ------------------------------------------------

// InProc is a Connector bound directly to a local engine.
type InProc struct {
	eng *engine.Engine
}

// NewInProc wraps an engine in a Connector.
func NewInProc(eng *engine.Engine) *InProc { return &InProc{eng: eng} }

// Engine returns the wrapped engine (for experiment hooks such as cache
// drops and index toggles).
func (c *InProc) Engine() *engine.Engine { return c.eng }

// Name implements Connector.
func (c *InProc) Name() string { return c.eng.Profile().Name }

// Connect implements Connector.
func (c *InProc) Connect() (Conn, error) {
	return &inProcConn{eng: c.eng}, nil
}

type inProcConn struct {
	mu     sync.Mutex
	eng    *engine.Engine
	closed bool
}

func (c *inProcConn) guard() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("driver: connection is closed")
	}
	return nil
}

// Exec implements Conn.
func (c *inProcConn) Exec(query string) (int, error) {
	if err := c.guard(); err != nil {
		return 0, err
	}
	res, err := c.eng.Exec(query)
	if err != nil {
		return 0, err
	}
	return res.Affected, nil
}

// Query implements Conn.
func (c *inProcConn) Query(query string) (*ResultSet, error) {
	if err := c.guard(); err != nil {
		return nil, err
	}
	res, err := c.eng.Exec(query)
	if err != nil {
		return nil, err
	}
	return FromSQLResult(res), nil
}

// QueryContext implements ContextConn. The engine itself is not
// interruptible, so cancellation is honored at statement entry: a query
// whose context is already dead never starts.
func (c *inProcConn) QueryContext(ctx context.Context, query string) (*ResultSet, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return c.Query(query)
}

// CacheCounters snapshots the engine's cache-layer hit/miss counters
// (buffer pool, prepared topology). The benchmark core detects
// this method to report per-run hit ratios; remote connections simply
// lack it.
func (c *inProcConn) CacheCounters() engine.CacheCounters {
	return c.eng.CacheCounters()
}

// JoinStats is the optional spatial-join counter extension, detected by
// interface assertion like CacheCounters; remote connections lack it.
func (c *inProcConn) JoinStats() sql.JoinStats {
	return c.eng.JoinStats()
}

// Close implements Conn.
func (c *inProcConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	return nil
}

// FromSQLResult converts an engine result into a driver ResultSet.
func FromSQLResult(res *sql.Result) *ResultSet {
	return &ResultSet{Columns: res.Columns, Rows: res.Rows}
}
