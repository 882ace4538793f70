package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"jackpine"
	"jackpine/internal/driver"
)

// goldenJSON holds the per-class digests of the verification phase for
// -seed 1, regenerated with -update-golden after a change that is meant
// to alter results.
//
//go:embed golden.json
var goldenJSON []byte

// goldenSeed is the seed golden.json was recorded with.
const goldenSeed = 1

// classDigest summarizes the verified operations of one class: how many
// ran, the rows they returned and the sum of their result digests.
type classDigest struct {
	Ops    int    `json:"ops"`
	Rows   int    `json:"rows"`
	Digest string `json:"digest"`
}

// goldenFile is golden.json: workload → class → digest.
type goldenFile map[string]map[string]classDigest

// digestConn decorates a connection with an order-independent digest of
// everything the current operation returned: the sum of the FNV-1a
// hashes of the rendered rows and of each write's affected count.
type digestConn struct {
	inner driver.Conn
	sum   uint64
	rows  int
}

func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// Exec implements driver.Conn.
func (c *digestConn) Exec(query string) (int, error) {
	n, err := c.inner.Exec(query)
	if err == nil {
		c.sum += hashString(fmt.Sprintf("affected=%d", n))
		c.rows += n
	}
	return n, err
}

// Query implements driver.Conn.
func (c *digestConn) Query(query string) (*driver.ResultSet, error) {
	rs, err := c.inner.Query(query)
	if err != nil {
		return rs, err
	}
	var sb strings.Builder
	for _, row := range rs.Rows {
		sb.Reset()
		for _, v := range row {
			sb.WriteString(v.String())
			sb.WriteByte(0x1f)
		}
		c.sum += hashString(sb.String())
	}
	c.rows += len(rs.Rows)
	return rs, nil
}

// Close implements driver.Conn.
func (c *digestConn) Close() error { return c.inner.Close() }

// take returns and clears the digest of the operation just run.
func (c *digestConn) take() (uint64, int) {
	sum, rows := c.sum, c.rows
	c.sum, c.rows = 0, 0
	return sum, rows
}

// setupReference builds the oracle the verification phase compares
// with: one in-memory engine over the whole dataset on the simplest
// execution path — row-at-a-time executor, index-nested-loop joins, no
// prepared topology, no plan or geometry cache, serial.
func setupReference(ds *jackpine.Dataset) (*world, error) {
	eng := jackpine.OpenEngine(jackpine.GaiaDB(),
		jackpine.WithBatchExec(false), jackpine.WithTopoPrep(false),
		jackpine.WithJoinStrategy(jackpine.JoinINL), jackpine.WithPlanCache(0),
		jackpine.WithGeomCache(0), jackpine.WithParallelism(1))
	var st setupTimes
	if err := loadEngine(eng, ds, &st); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	return &world{
		ds:        ds,
		ctx:       jackpine.NewQueryContext(ds),
		connector: jackpine.Connect(eng),
		engines:   []*jackpine.Engine{eng},
		close:     eng.Close,
	}, nil
}

// verify walks the first verifyOps slots of the schedule serially, on
// the system under test and on the reference, and requires every
// operation to return the same rows on both. It returns the per-class
// digests and the client that ran against the system under test (for
// ingest it carries acknowledged writes into the durability check).
func verify(spec *workloadSpec, w, ref *world, base int) (map[string]classDigest, *client, error) {
	open := func(x *world) (*client, *digestConn, error) {
		conn, err := x.connector.Connect()
		if err != nil {
			return nil, nil, err
		}
		dc := &digestConn{inner: conn}
		return &client{conn: dc}, dc, nil
	}
	sut, sutDigest, err := open(w)
	if err != nil {
		return nil, nil, err
	}
	defer sut.conn.Close()
	oracle, oracleDigest, err := open(ref)
	if err != nil {
		return nil, nil, err
	}
	defer oracle.conn.Close()

	sums := make(map[string]uint64)
	out := make(map[string]classDigest)
	for j := 0; j < verifyOps; j++ {
		class := spec.schedule[j%scheduleLen]
		iter := base + j
		if _, err := classes[class](w, sut, iter); err != nil {
			return nil, nil, fmt.Errorf("verify %s iter %d: %w", class, iter, err)
		}
		if _, err := classes[class](ref, oracle, iter); err != nil {
			return nil, nil, fmt.Errorf("verify %s iter %d on reference: %w", class, iter, err)
		}
		got, rows := sutDigest.take()
		want, wantRows := oracleDigest.take()
		if got != want || rows != wantRows {
			return nil, nil, fmt.Errorf("verify %s iter %d: %d rows digest %016x, reference has %d rows digest %016x",
				class, iter, rows, got, wantRows, want)
		}
		d := out[class]
		d.Ops++
		d.Rows += rows
		sums[class] += got
		out[class] = d
	}
	for class, d := range out {
		d.Digest = fmt.Sprintf("%016x", sums[class])
		out[class] = d
	}
	return out, sut, nil
}

// checkGolden compares the verification digests of a -seed 1 run with
// the committed ones.
func checkGolden(workload string, got map[string]classDigest) error {
	var golden goldenFile
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	want, ok := golden[workload]
	if !ok {
		return fmt.Errorf("golden.json has no workload %q", workload)
	}
	for class, w := range want {
		if got[class] != w {
			return fmt.Errorf("golden mismatch on %s.%s: got %+v, want %+v", workload, class, got[class], w)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("golden mismatch on %s: %d classes verified, golden has %d", workload, len(got), len(want))
	}
	return nil
}

// durability is what the ingest workload's close-and-reopen check
// measured.
type durability struct {
	checkpoint, reopen time.Duration
}

// checkDurable closes the durable engine, reopens its directory and
// requires the point-landmark table to hold exactly the dataset's rows
// plus every acknowledged insert minus every acknowledged delete, with
// a sample of ids checked one by one.
func checkDurable(w *world, clients []*client) (durability, error) {
	var d durability
	t0 := time.Now()
	if err := w.engines[0].Checkpoint(); err != nil {
		return d, fmt.Errorf("checkpoint: %w", err)
	}
	d.checkpoint = time.Since(t0)
	if err := w.engines[0].Close(); err != nil {
		return d, fmt.Errorf("close: %w", err)
	}
	t0 = time.Now()
	eng, err := jackpine.OpenDurable(jackpine.GaiaDB(), w.dataDir)
	if err != nil {
		return d, fmt.Errorf("reopen: %w", err)
	}
	d.reopen = time.Since(t0)
	w.engines[0] = eng

	count := func(where string) (int64, error) {
		res, err := eng.Exec("SELECT COUNT(*) FROM pointlm" + where)
		if err != nil {
			return 0, err
		}
		return res.Rows[0][0].Int, nil
	}
	want := int64(len(w.ds.PointLandmarks))
	var present, absent []int64
	for _, c := range clients {
		want += int64(c.inserted - len(c.deleted))
		present = append(present, c.pending...)
		absent = append(absent, c.deleted...)
	}
	got, err := count("")
	if err != nil {
		return d, err
	}
	if got != want {
		return d, fmt.Errorf("after reopen pointlm has %d rows, acknowledged writes leave %d", got, want)
	}
	const sampleIDs = 16
	for _, set := range []struct {
		ids  []int64
		want int64
	}{{present, 1}, {absent, 0}} {
		step := len(set.ids)/sampleIDs + 1
		for i := 0; i < len(set.ids); i += step {
			n, err := count(fmt.Sprintf(" WHERE id = %d", set.ids[i]))
			if err != nil {
				return d, err
			}
			if n != set.want {
				return d, fmt.Errorf("after reopen id %d appears %d times, want %d", set.ids[i], n, set.want)
			}
		}
	}
	return d, nil
}
