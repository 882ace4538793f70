package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"jackpine/internal/driver"
	"jackpine/internal/geom"
	"jackpine/internal/storage"
)

// Span names, outermost first. The benchmark records spans from its own
// files, around the calls into each layer; spans inside the engine are
// a later change (ROADMAP item 2).
const (
	spanOp    = "core.op"            // one scheduled operation of one client
	spanStmt  = "driver.stmt"        // one statement through the client's driver.Conn
	spanShard = "cluster.shard_call" // one statement the router sent to one shard
)

// Caps on what a traced run keeps for the replay probes.
const (
	maxLoggedTexts = 4096
	maxLoggedGeoms = 2048
)

// span is one timed interval. Parent indexes the session's span slice
// (-1 for an operation root); Op is shared by every span of one
// operation.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Class  string `json:"class,omitempty"` // op class on core.op spans
	Shard  int    `json:"shard"`           // shard index on shard-call spans, else -1
	Rows   int    `json:"rows"`
	Failed bool   `json:"failed,omitempty"`
}

// session is the span log of one closed-loop client. The client runs one
// operation and one statement at a time, so the open op and statement
// are single slots; shard calls of one statement run concurrently on
// router goroutines, hence the mutex.
type session struct {
	mu     sync.Mutex
	client int
	spans  []span
	op     int // index of the open core.op span, -1 when none
	stmt   int // index of the open driver.stmt span, -1 when none
	opID   int64
}

// tracer owns every session of one traced phase plus the statement
// texts and returned geometries the replay probes run on.
type tracer struct {
	epoch time.Time

	// mu guards sessions and serializes the connect handshake: while a
	// traced client connector is inside Connect, pending names the
	// session that the shard connections opened underneath belong to.
	mu       sync.Mutex
	sessions []*session
	pending  *session

	logMu sync.Mutex
	texts []string
	geoms []geom.Geometry
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin appends an open span and returns its index; the caller fills
// Name, Parent, Shard and Class.
func (s *session) begin(t *tracer, sp span) int {
	sp.Start = t.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	sp.Op = s.opID
	s.spans = append(s.spans, sp)
	return len(s.spans) - 1
}

func (s *session) end(t *tracer, idx, rows int, failed bool) {
	end := t.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	sp := &s.spans[idx]
	sp.End, sp.Rows, sp.Failed = end, rows, failed
}

// setStmt publishes the open statement to the router goroutines that
// parent their shard calls on it.
func (s *session) setStmt(idx int) {
	s.mu.Lock()
	s.stmt = idx
	s.mu.Unlock()
}

// beginOp opens the root span of one operation.
func (s *session) beginOp(t *tracer, opID int64, class string) {
	s.mu.Lock()
	s.opID = opID
	s.mu.Unlock()
	s.op = s.begin(t, span{Name: spanOp, Parent: -1, Shard: -1, Class: class})
}

func (s *session) endOp(t *tracer, rows int, failed bool) {
	s.end(t, s.op, rows, failed)
	s.op = -1
}

// logResult keeps a bounded sample of statement texts and returned
// geometries for the replay probes.
func (t *tracer) logResult(query string, rs *driver.ResultSet) {
	t.logMu.Lock()
	defer t.logMu.Unlock()
	if len(t.texts) < maxLoggedTexts {
		t.texts = append(t.texts, query)
	}
	if rs == nil || len(t.geoms) >= maxLoggedGeoms {
		return
	}
	for _, row := range rs.Rows {
		for _, v := range row {
			if v.Type == storage.TypeGeom && v.Geom != nil && len(t.geoms) < maxLoggedGeoms {
				t.geoms = append(t.geoms, v.Geom)
			}
		}
	}
}

// tracedConnector decorates the connector the clients use: every
// statement of a connection it opens becomes a driver.stmt span.
type tracedConnector struct {
	inner driver.Connector
	t     *tracer
}

// Name implements driver.Connector.
func (c *tracedConnector) Name() string { return c.inner.Name() }

// Connect implements driver.Connector. Shard connections the inner
// connector opens during this call (a cluster opens one per shard) join
// the new session through tracer.pending.
func (c *tracedConnector) Connect() (driver.Conn, error) {
	c.t.mu.Lock()
	defer c.t.mu.Unlock()
	s := &session{client: len(c.t.sessions), op: -1, stmt: -1}
	c.t.pending = s
	conn, err := c.inner.Connect()
	c.t.pending = nil
	if err != nil {
		return nil, err
	}
	c.t.sessions = append(c.t.sessions, s)
	return &tracedConn{inner: conn, t: c.t, s: s}, nil
}

type tracedConn struct {
	inner driver.Conn
	t     *tracer
	s     *session
}

func (c *tracedConn) beginStmt() int {
	idx := c.s.begin(c.t, span{Name: spanStmt, Parent: c.s.op, Shard: -1})
	c.s.setStmt(idx)
	return idx
}

func (c *tracedConn) endStmt(idx, rows int, failed bool) {
	c.s.end(c.t, idx, rows, failed)
	c.s.setStmt(-1)
}

// Exec implements driver.Conn.
func (c *tracedConn) Exec(query string) (int, error) {
	idx := c.beginStmt()
	n, err := c.inner.Exec(query)
	c.endStmt(idx, n, err != nil)
	c.t.logResult(query, nil)
	return n, err
}

// Query implements driver.Conn.
func (c *tracedConn) Query(query string) (*driver.ResultSet, error) {
	idx := c.beginStmt()
	rs, err := c.inner.Query(query)
	rows := 0
	if rs != nil {
		rows = len(rs.Rows)
	}
	c.endStmt(idx, rows, err != nil)
	c.t.logResult(query, rs)
	return rs, err
}

// Close implements driver.Conn.
func (c *tracedConn) Close() error { return c.inner.Close() }

// shardConnector decorates one shard connector handed to cluster.Open:
// statements on the connections it opens become cluster.shard_call
// spans under the owning client's open statement.
type shardConnector struct {
	inner driver.Connector
	t     *tracer
	shard int
}

// Name implements driver.Connector.
func (c *shardConnector) Name() string { return c.inner.Name() }

// Connect implements driver.Connector. Connections opened outside a
// traced client's Connect (the router's own statistics probe) stay
// undecorated.
func (c *shardConnector) Connect() (driver.Conn, error) {
	conn, err := c.inner.Connect()
	// pending is written by the goroutine now inside
	// tracedConnector.Connect, which is this one.
	s := c.t.pending
	if err != nil || s == nil {
		return conn, err
	}
	return &shardConn{inner: conn, t: c.t, s: s, shard: c.shard}, nil
}

type shardConn struct {
	inner driver.Conn
	t     *tracer
	s     *session
	shard int
}

// begin opens a shard-call span under the owning client's open
// statement. Router goroutines call it while the client goroutine is
// blocked inside that statement.
func (c *shardConn) begin() int {
	c.s.mu.Lock()
	parent := c.s.stmt
	c.s.mu.Unlock()
	return c.s.begin(c.t, span{Name: spanShard, Parent: parent, Shard: c.shard})
}

// Exec implements driver.Conn.
func (c *shardConn) Exec(query string) (int, error) {
	idx := c.begin()
	n, err := c.inner.Exec(query)
	c.s.end(c.t, idx, n, err != nil)
	return n, err
}

// Query implements driver.Conn.
func (c *shardConn) Query(query string) (*driver.ResultSet, error) {
	idx := c.begin()
	rs, err := c.inner.Query(query)
	rows := 0
	if rs != nil {
		rows = len(rs.Rows)
	}
	c.s.end(c.t, idx, rows, err != nil)
	return rs, err
}

// Close implements driver.Conn.
func (c *shardConn) Close() error { return c.inner.Close() }

// selfTimes returns, per span, its duration minus the part of that
// interval its direct children cover. Children may overlap (concurrent
// shard calls), so the covered part is the union of their intervals
// clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int][][2]int64)
	for _, sp := range spans {
		if sp.Parent >= 0 {
			children[sp.Parent] = append(children[sp.Parent], [2]int64{sp.Start, sp.End})
		}
	}
	self := make([]int64, len(spans))
	for i, sp := range spans {
		self[i] = sp.End - sp.Start - unionLen(children[i], sp.Start, sp.End)
	}
	return self
}

// unionLen is the total length of the union of the intervals, clipped
// to [lo, hi].
func unionLen(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		a, b := x[0], x[1]
		if a < cur {
			a = cur
		}
		if b > hi {
			b = hi
		}
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// traceFile is the JSON document written once when a traced run ends.
type traceFile struct {
	Workload string          `json:"workload"`
	Host     fingerprint     `json:"host"`
	Pressure *pressureReport `json:"pressure,omitempty"`
	Sessions []traceSession  `json:"sessions"`
}

type traceSession struct {
	Client int     `json:"client"`
	Spans  []span  `json:"spans"`
	SelfNS []int64 `json:"self_ns"`
}

func (t *tracer) write(path, workload string, host fingerprint, pressure *pressureReport) error {
	doc := traceFile{Workload: workload, Host: host, Pressure: pressure}
	for _, s := range t.sessions {
		doc.Sessions = append(doc.Sessions, traceSession{Client: s.client, Spans: s.spans, SelfNS: selfTimes(s.spans)})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
