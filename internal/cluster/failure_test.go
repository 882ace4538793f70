package cluster_test

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"jackpine/internal/driver"
	"jackpine/internal/engine"
)

// errShardDown is the fixed failure of the broken shard.
var errShardDown = errors.New("shard down")

// failingConnector wraps a connector so every read whose text contains
// match fails at once (the empty match fails every read). Writes pass
// through, so the fixture still loads.
type failingConnector struct {
	inner driver.Connector
	match string
}

func (f failingConnector) Name() string { return f.inner.Name() }

func (f failingConnector) Connect() (driver.Conn, error) {
	c, err := f.inner.Connect()
	if err != nil {
		return nil, err
	}
	return failingConn{c, f.match}, nil
}

// failingConn embeds only driver.Conn, so it is not a ContextConn and
// the router reaches it through plain Query.
type failingConn struct {
	driver.Conn
	match string
}

func (c failingConn) Query(q string) (*driver.ResultSet, error) {
	if strings.Contains(q, c.match) {
		return nil, errShardDown
	}
	return c.Conn.Query(q)
}

// lateConnector wraps a connector so every read waits before it runs
// and gives up with ctx.Err() if the router cancels it first: the
// failing shard's error always arrives before the healthy shards
// answer, so each merge sees real cancellations to sort out.
type lateConnector struct {
	inner driver.Connector
	delay time.Duration
}

func (l lateConnector) Name() string { return l.inner.Name() }

func (l lateConnector) Connect() (driver.Conn, error) {
	c, err := l.inner.Connect()
	if err != nil {
		return nil, err
	}
	return lateConn{c, l.delay}, nil
}

type lateConn struct {
	driver.Conn
	delay time.Duration
}

// QueryContext implements driver.ContextConn.
func (c lateConn) QueryContext(ctx context.Context, q string) (*driver.ResultSet, error) {
	t := time.NewTimer(c.delay)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-t.C:
	}
	return c.Conn.Query(q)
}

// newFailureFixture loads the join fixture on a 4-shard cluster whose
// shard broken fails the reads containing match while every other
// shard answers late.
func newFailureFixture(t *testing.T, broken int, match string) *routerFixture {
	t.Helper()
	shards := make([]driver.Connector, 4)
	for i := range shards {
		inner := driver.NewInProc(engine.Open(engine.GaiaDB()))
		if i == broken {
			shards[i] = failingConnector{inner, match}
		} else {
			shards[i] = lateConnector{inner, 20 * time.Millisecond}
		}
	}
	f := newRouterFixtureOver(t, shards)
	loadJoinFixture(t, f)
	return f
}

// TestScatterShardFailure: when one shard's reads fail, every scatter
// shape must return that shard's error — not the context.Canceled the
// router's own cancel-all induces on the other shards — and the shard
// goroutines must unwind.
func TestScatterShardFailure(t *testing.T) {
	const join = "SELECT COUNT(*) FROM jpts p JOIN jareas a ON ST_Intersects(p.loc, a.shape)"
	// Shard 3 (north-east) fails every read.
	f := newFailureFixture(t, 3, "")
	// Shard 2 (north-west) fails only statements naming ST_XMAX: its
	// complement spill fetch tests its internal east edge, while the
	// pushdown's same-shard scatter reaches it unharmed.
	spill := newFailureFixture(t, 2, "ST_XMAX")

	before := runtime.NumGoroutine()
	queries := []struct {
		name string
		f    *routerFixture
		sql  string
	}{
		{"plain scan", f, "SELECT id FROM jpts"},
		{"ordered scan", f, "SELECT id FROM jpts ORDER BY id"},
		{"global aggregate", f, "SELECT COUNT(*), SUM(id) FROM jpts"},
		// Shard 0 holds the NULL geometry and is nearest the probe, so
		// phase 1 runs there; its 37 rows cannot fill LIMIT 100, so
		// phase 2 must ask every other shard, the broken one included.
		{"knn phase 2", f, "SELECT id FROM jpts ORDER BY ST_Distance(loc, ST_MakePoint(10, 10)) LIMIT 100"},
		{"join pushdown", f, join},
		{"join pushdown spill fetch", spill, join},
	}
	for _, q := range queries {
		_, err := q.f.cluster.Query(q.sql)
		if !errors.Is(err, errShardDown) {
			t.Errorf("%s: err = %v, want the broken shard's %v", q.name, err, errShardDown)
		}
	}
	for _, fx := range []*routerFixture{f, spill} {
		if ss := fx.cl.ShardStats(); ss.JoinPushdowns != 0 || ss.GatherBuilds != 0 {
			t.Errorf("the failed join should have stopped inside the pushdown: %+v", ss)
		}
	}

	// Canceled shard requests must unwind: the goroutine count returns
	// to its level before the failing queries.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+5 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before+5 {
		t.Errorf("goroutine leak: %d before the failing queries, %d after settling", before, g)
	}
}
