package main

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"jackpine/internal/driver"
)

// fakeConnector stands in for an engine or a shard: every statement
// takes the configured time.
type fakeConnector struct{ delay time.Duration }

func (f fakeConnector) Name() string { return "fake" }

func (f fakeConnector) Connect() (driver.Conn, error) { return fakeConn(f), nil }

type fakeConn fakeConnector

func (c fakeConn) Exec(string) (int, error) {
	time.Sleep(c.delay)
	return 1, nil
}

func (c fakeConn) Query(string) (*driver.ResultSet, error) {
	time.Sleep(c.delay)
	return &driver.ResultSet{}, nil
}

func (c fakeConn) Close() error { return nil }

// fakeRouter fans every statement out to all its shards at once, the
// way the cluster router does.
type fakeRouter struct{ shards []driver.Connector }

func (r fakeRouter) Name() string { return "router" }

func (r fakeRouter) Connect() (driver.Conn, error) {
	rc := &routerConn{}
	for _, s := range r.shards {
		c, err := s.Connect()
		if err != nil {
			return nil, err
		}
		rc.sess = append(rc.sess, c)
	}
	return rc, nil
}

type routerConn struct{ sess []driver.Conn }

func (c *routerConn) Exec(q string) (int, error) { return 0, nil }

func (c *routerConn) Query(q string) (*driver.ResultSet, error) {
	var wg sync.WaitGroup
	for _, s := range c.sess {
		wg.Add(1)
		go func(s driver.Conn) {
			defer wg.Done()
			s.Query(q)
		}(s)
	}
	wg.Wait()
	return &driver.ResultSet{}, nil
}

func (c *routerConn) Close() error { return nil }

func TestSpansNestOpStmtShard(t *testing.T) {
	tr := newTracer()
	router := fakeRouter{shards: []driver.Connector{
		&shardConnector{inner: fakeConnector{time.Millisecond}, t: tr, shard: 0},
		&shardConnector{inner: fakeConnector{3 * time.Millisecond}, t: tr, shard: 1},
	}}
	conn, err := (&tracedConnector{inner: router, t: tr}).Connect()
	if err != nil {
		t.Fatal(err)
	}
	tc := conn.(*tracedConn)
	tc.s.beginOp(tr, 42, "window")
	for i := 0; i < 2; i++ {
		if _, err := conn.Query("SELECT 1"); err != nil {
			t.Fatal(err)
		}
	}
	tc.s.endOp(tr, 0, false)

	spans := tc.s.spans
	if len(spans) != 7 {
		t.Fatalf("got %d spans, want 1 op + 2 stmts + 4 shard calls", len(spans))
	}
	if spans[0].Name != spanOp || spans[0].Parent != -1 || spans[0].Class != "window" {
		t.Errorf("root span = %+v", spans[0])
	}
	for i, sp := range spans {
		if sp.Op != 42 {
			t.Errorf("span %d has op %d, want 42", i, sp.Op)
		}
		switch sp.Name {
		case spanStmt:
			if sp.Parent != 0 {
				t.Errorf("stmt span %d has parent %d, want the op", i, sp.Parent)
			}
		case spanShard:
			if p := sp.Parent; p < 0 || spans[p].Name != spanStmt {
				t.Errorf("shard span %d has parent %d, want a stmt", i, p)
			} else if sp.Start < spans[p].Start || sp.End > spans[p].End {
				t.Errorf("shard span %d [%d,%d] leaves its stmt [%d,%d]", i, sp.Start, sp.End, spans[p].Start, spans[p].End)
			}
		}
	}
	// The two shard calls of a statement overlap, so what they cover is
	// at least the slower call and less than the sum of both.
	self := selfTimes(spans)
	for i, sp := range spans {
		if sp.Name != spanStmt {
			continue
		}
		var slowest, sum int64
		for _, child := range spans {
			if child.Parent == i {
				d := child.End - child.Start
				sum += d
				if d > slowest {
					slowest = d
				}
			}
		}
		covered := sp.End - sp.Start - self[i]
		if covered < slowest || covered >= sum {
			t.Errorf("stmt span %d: children cover %d ns, want at least the slowest (%d) and less than their sum (%d)",
				i, covered, slowest, sum)
		}
	}
}

func TestUnionLen(t *testing.T) {
	cases := []struct {
		iv     [][2]int64
		lo, hi int64
		want   int64
	}{
		{nil, 0, 10, 0},
		{[][2]int64{{2, 4}, {6, 8}}, 0, 10, 4},             // disjoint
		{[][2]int64{{2, 6}, {4, 8}}, 0, 10, 6},             // overlapping
		{[][2]int64{{1, 9}, {3, 5}}, 0, 10, 8},             // nested
		{[][2]int64{{6, 8}, {2, 4}}, 0, 10, 4},             // unsorted
		{[][2]int64{{-5, 3}, {8, 20}}, 0, 10, 5},           // clipped to the parent
		{[][2]int64{{0, 10}, {0, 10}, {0, 10}}, 0, 10, 10}, // identical
	}
	for _, c := range cases {
		if got := unionLen(c.iv, c.lo, c.hi); got != c.want {
			t.Errorf("unionLen(%v, %d, %d) = %d, want %d", c.iv, c.lo, c.hi, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsDirectChildrenOnly(t *testing.T) {
	spans := []span{
		{Name: spanOp, Start: 0, End: 100, Parent: -1},
		{Name: spanStmt, Start: 10, End: 60, Parent: 0},
		{Name: spanShard, Start: 20, End: 50, Parent: 1},
		{Name: spanStmt, Start: 70, End: 90, Parent: 0},
	}
	want := []int64{30, 20, 30, 20}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self[%d] = %d, want %d", i, got, want[i])
		}
	}
}

// TestConcurrentClients runs several traced clients at once (run with
// -race): sessions stay separate and every shard call lands under a
// statement of its own client.
func TestConcurrentClients(t *testing.T) {
	tr := newTracer()
	router := fakeRouter{shards: []driver.Connector{
		&shardConnector{inner: fakeConnector{50 * time.Microsecond}, t: tr, shard: 0},
		&shardConnector{inner: fakeConnector{50 * time.Microsecond}, t: tr, shard: 1},
	}}
	connector := &tracedConnector{inner: router, t: tr}
	const clients, ops, stmts = 4, 20, 3
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			conn, err := connector.Connect()
			if err != nil {
				t.Error(err)
				return
			}
			s := conn.(*tracedConn).s
			for i := 0; i < ops; i++ {
				s.beginOp(tr, int64(k*1000+i), "lookup")
				for j := 0; j < stmts; j++ {
					conn.Query(fmt.Sprintf("SELECT %d", j))
				}
				s.endOp(tr, 0, false)
			}
		}(k)
	}
	wg.Wait()
	if len(tr.sessions) != clients {
		t.Fatalf("%d sessions, want %d", len(tr.sessions), clients)
	}
	for _, s := range tr.sessions {
		if want := ops * (1 + stmts + 2*stmts); len(s.spans) != want {
			t.Errorf("client %d recorded %d spans, want %d", s.client, len(s.spans), want)
		}
		for i, sp := range s.spans {
			if sp.End < sp.Start {
				t.Errorf("client %d span %d never ended", s.client, i)
			}
			if sp.Name == spanShard && (sp.Parent < 0 || s.spans[sp.Parent].Op != sp.Op) {
				t.Errorf("client %d shard span %d is not under a statement of its own op", s.client, i)
			}
		}
	}
}
