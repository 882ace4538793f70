package main

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"jackpine"
	"jackpine/internal/cluster"
	"jackpine/internal/core"
	"jackpine/internal/driver"
	"jackpine/internal/tiger"
	"jackpine/internal/wire"
)

// Every workload is a closed loop of this many clients: each client
// sends its next operation only after the previous one returned. It
// equals the core count of the reference host, so the load generator and
// the engine share the machine the way an embedding application would.
const numClients = 2

// scheduleLen is the length of every workload's slot schedule.
const scheduleLen = 10

// verifyOps is the number of schedule slots the serial verification
// phase walks before anything is timed. It is a multiple of scheduleLen
// so the timed phase starts every client on the slot its offset names.
const verifyOps = 2 * scheduleLen

// ownIDBase is the first id the ingest workload inserts; dataset ids are
// far below it.
const ownIDBase = 10_000_000

// workloadSpec is one macro workload: a fixed slot schedule over op
// classes, and how to build the system under test.
type workloadSpec struct {
	name     string
	schedule [scheduleLen]string
	setup    func(ds *jackpine.Dataset, tr *tracer, outDir string) (*world, setupTimes, error)
}

// The four workloads; BENCHMARK.json and README.md say why each exists.
// Slot order matters only for ingest, where both client offsets (0 and
// 5) must reach an insert before a delete.
var workloads = []workloadSpec{
	{
		name: "browse",
		schedule: [scheduleLen]string{
			"lookup", "knn", "window", "lookup", "spill",
			"knn", "lookup", "window", "knn", "spill"},
		setup: setupInProc,
	},
	{
		name: "analysis",
		schedule: [scheduleLen]string{
			"flood", "overlayjoin", "landinfo", "flood", "overlayjoin",
			"landinfo", "flood", "overlayjoin", "landinfo", "flood"},
		setup: setupInProc,
	},
	{
		name: "ingest",
		schedule: [scheduleLen]string{
			"insert", "spill", "delete", "update", "proxjoin",
			"insert", "delete", "spill", "insert", "update"},
		setup: setupDurable,
	},
	{
		name: "cluster_wire",
		schedule: [scheduleLen]string{
			"lookup", "knn", "window", "lookup", "spill",
			"knn", "lookup", "window", "knn", "overlayjoin"},
		setup: setupClusterWire,
	},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// world is one built system under test.
type world struct {
	ds        *jackpine.Dataset
	ctx       *jackpine.QueryContext
	connector driver.Connector
	// engines are the engines serving the workload (one, or one per
	// shard); counters are summed over them.
	engines []*jackpine.Engine
	cluster *jackpine.Cluster // nil unless cluster_wire
	dataDir string            // durable engines only
	close   func() error
}

// setupTimes splits set-up into the tiger layer's three phases; the
// rest of setup_s is server and cluster assembly.
type setupTimes struct {
	generate, load, index, total time.Duration
}

type execer struct{ e *jackpine.Engine }

// Exec implements tiger.Execer.
func (x execer) Exec(q string) error {
	_, err := x.e.Exec(q)
	return err
}

func buildIndexes(eng *jackpine.Engine) error {
	for _, ddl := range tiger.IndexDDL() {
		if _, err := eng.Exec(ddl); err != nil {
			return fmt.Errorf("index: %w", err)
		}
	}
	return nil
}

// loadEngine loads the whole dataset and builds every index, timing the
// two phases.
func loadEngine(eng *jackpine.Engine, ds *jackpine.Dataset, st *setupTimes) error {
	t0 := time.Now()
	if err := tiger.Load(execer{eng}, ds, false); err != nil {
		return err
	}
	t1 := time.Now()
	if err := buildIndexes(eng); err != nil {
		return err
	}
	st.load += t1.Sub(t0)
	st.index += time.Since(t1)
	return nil
}

func setupInProc(ds *jackpine.Dataset, _ *tracer, _ string) (*world, setupTimes, error) {
	var st setupTimes
	eng := jackpine.OpenEngine(jackpine.GaiaDB())
	if err := loadEngine(eng, ds, &st); err != nil {
		return nil, st, err
	}
	return &world{
		connector: jackpine.Connect(eng),
		engines:   []*jackpine.Engine{eng},
		close:     eng.Close,
	}, st, nil
}

func setupDurable(ds *jackpine.Dataset, _ *tracer, outDir string) (*world, setupTimes, error) {
	var st setupTimes
	dir, err := os.MkdirTemp(outDir, "ingest-")
	if err != nil {
		return nil, st, err
	}
	eng, err := jackpine.OpenDurable(jackpine.GaiaDB(), dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, st, err
	}
	if err := loadEngine(eng, ds, &st); err != nil {
		eng.Close()
		os.RemoveAll(dir)
		return nil, st, err
	}
	w := &world{
		connector: jackpine.Connect(eng),
		engines:   []*jackpine.Engine{eng},
		dataDir:   dir,
	}
	w.close = func() error {
		err := w.engines[0].Close()
		if rerr := os.RemoveAll(dir); err == nil {
			err = rerr
		}
		return err
	}
	return w, st, nil
}

// setupClusterWire builds two shard engines, each behind its own wire
// server on a loopback port, and the router over them. It mirrors
// jackpine.OpenClusterRemote, except that a traced run wraps each shard
// connector so shard calls become spans.
func setupClusterWire(ds *jackpine.Dataset, tr *tracer, _ string) (*world, setupTimes, error) {
	var st setupTimes
	part, err := cluster.NewPartitioner(ds.Extent, numClients)
	if err != nil {
		return nil, st, err
	}
	w := &world{}
	var servers []*wire.Server
	w.close = func() error {
		var first error
		for _, s := range servers {
			if err := s.Close(); err != nil && first == nil {
				first = err
			}
		}
		for _, e := range w.engines {
			if err := e.Close(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	shards := make([]driver.Connector, part.Shards())
	for i := range shards {
		eng := jackpine.OpenEngine(jackpine.GaiaDB())
		w.engines = append(w.engines, eng)
		t0 := time.Now()
		if err := tiger.LoadShard(execer{eng}, ds, false, i, part.Assign); err != nil {
			w.close()
			return nil, st, err
		}
		t1 := time.Now()
		if err := buildIndexes(eng); err != nil {
			w.close()
			return nil, st, err
		}
		st.load += t1.Sub(t0)
		st.index += time.Since(t1)
		srv := wire.NewServer(eng)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			w.close()
			return nil, st, err
		}
		servers = append(servers, srv)
		shards[i] = wire.NewClient(addr, fmt.Sprintf("shard%d", i))
		if tr != nil {
			shards[i] = &shardConnector{inner: shards[i], t: tr, shard: i}
		}
	}
	cl, err := cluster.Open(shards, part, cluster.Options{Profile: jackpine.GaiaDB()})
	if err != nil {
		w.close()
		return nil, st, err
	}
	for _, ddl := range tiger.Schema() {
		if err := cl.Register(ddl); err != nil {
			w.close()
			return nil, st, err
		}
	}
	if err := cl.RefreshStats(); err != nil {
		w.close()
		return nil, st, err
	}
	w.cluster = cl
	w.connector = cl
	return w, st, nil
}

// datasetSeed fixes the generated city. The dataset is the benchmark's
// fixture, as the TIGER extract was the paper's; -seed moves the probe
// stream (windows, points, addresses, ids) over it. A city per seed
// would put its own lakes and landmarks into every whole-layer join and
// spread p95 by more than the bound a regression is judged against.
const datasetSeed = 1

// buildWorld generates the dataset and builds the workload's system
// under test, timing the whole of it.
func buildWorld(spec *workloadSpec, tr *tracer, outDir string) (*world, setupTimes, error) {
	t0 := time.Now()
	ds := jackpine.GenerateDataset(jackpine.ScaleMedium, datasetSeed)
	gen := time.Since(t0)
	w, st, err := spec.setup(ds, tr, outDir)
	if err != nil {
		return nil, st, fmt.Errorf("%s: setup: %w", spec.name, err)
	}
	w.ds = ds
	w.ctx = jackpine.NewQueryContext(ds)
	st.generate = gen
	st.total = time.Since(t0)
	return w, st, nil
}

// client is one closed-loop caller and, for ingest, the record of what
// it was acknowledged to have written.
type client struct {
	conn driver.Conn
	sess *session // non-nil while traced

	pending  []int64 // own inserted ids not yet deleted, oldest first
	inserted int
	deleted  []int64
}

// opFunc runs one operation and returns the rows it retrieved or wrote.
type opFunc func(w *world, c *client, iter int) (int, error)

var scenarios = func() map[string]core.MacroScenario {
	m := make(map[string]core.MacroScenario)
	for _, sc := range core.MacroSuite() {
		m[sc.ID] = sc
	}
	return m
}()

func scenarioOp(id string) opFunc {
	run := scenarios[id].Run
	return func(w *world, c *client, iter int) (int, error) { return run(w.ctx, c.conn, iter) }
}

func queryRows(c *client, q string) (int, error) {
	rs, err := c.conn.Query(q)
	if err != nil {
		return 0, err
	}
	return len(rs.Rows), nil
}

// execOne runs a single-row write and requires it to touch one row.
func execOne(c *client, q string) (int, error) {
	n, err := c.conn.Exec(q)
	if err == nil && n != 1 {
		err = fmt.Errorf("%d rows affected, want 1 (%s)", n, q)
	}
	return n, err
}

var pointCategories = []string{"school", "hospital", "church", "library"}

// classes maps an op class to its operation. The MS* scenarios run
// unchanged from package core; the rest are the statements the issue
// names, split out of MS5 and MS7 so reads and writes are separate
// classes.
var classes = map[string]opFunc{
	"window":      scenarioOp("MS1"),
	"lookup":      scenarioOp("MS2"),
	"knn":         scenarioOp("MS3"),
	"flood":       scenarioOp("MS4"),
	"spill":       scenarioOp("MS6"),
	"overlayjoin": scenarioOp("MS7"),
	"landinfo": func(w *world, c *client, iter int) (int, error) {
		pid := w.ctx.RandomParcelID("MS5", iter)
		total, err := queryRows(c, fmt.Sprintf(
			"SELECT b.id, b.owner, b.landuse FROM parcels a JOIN parcels b ON ST_Touches(b.geo, a.geo) "+
				"WHERE a.id = %d", pid))
		if err != nil {
			return 0, err
		}
		e := w.ctx.RandomEdge("MS5/road", iter)
		n, err := queryRows(c, fmt.Sprintf(
			"SELECT COUNT(*), SUM(ST_Area(geo)) FROM parcels "+
				"WHERE ST_Intersects(geo, ST_Buffer(%s, 30))", core.GeomWKT(e.Geom)))
		return total + n, err
	},
	"proxjoin": func(_ *world, c *client, _ int) (int, error) {
		return queryRows(c,
			"SELECT COUNT(*), MAX(p.id) FROM pointlm p JOIN areawater w ON ST_DWithin(p.geo, w.geo, 100.0)")
	},
	"update": func(w *world, c *client, iter int) (int, error) {
		return execOne(c, fmt.Sprintf(
			"UPDATE parcels SET landuse = 'public' WHERE id = %d", w.ctx.RandomParcelID("MS5", iter)))
	},
	"insert": func(w *world, c *client, iter int) (int, error) {
		id := int64(ownIDBase + iter)
		p := w.ctx.Point("ingest", iter)
		n, err := execOne(c, fmt.Sprintf(
			"INSERT INTO pointlm VALUES (%d, 'bench %d', '%s', ST_GeomFromText('POINT(%g %g)'))",
			id, id, pointCategories[iter%len(pointCategories)], p.X, p.Y))
		if err == nil {
			c.pending = append(c.pending, id)
			c.inserted++
		}
		return n, err
	},
	"delete": func(_ *world, c *client, _ int) (int, error) {
		if len(c.pending) == 0 {
			return 0, fmt.Errorf("delete scheduled before any insert")
		}
		id := c.pending[0]
		n, err := execOne(c, fmt.Sprintf("DELETE FROM pointlm WHERE id = %d", id))
		if err == nil {
			c.pending = c.pending[1:]
			c.deleted = append(c.deleted, id)
		}
		return n, err
	},
}

// sample is one timed operation.
type sample struct {
	class string
	end   time.Duration // since the phase started
	lat   time.Duration
}

// phaseResult is what one closed-loop phase measured.
type phaseResult struct {
	samples  []sample
	budget   time.Duration // the time the phase was given
	wall     time.Duration // the time it took: budget plus the last operations' overrun
	failed   int
	firstErr error
}

// iterBase offsets every probe iteration by a value derived from the
// seed: the same seed gives the same statements, another seed others.
func iterBase(seed int64) int {
	return int(uint64(seed)*0x9E3779B97F4A7C15>>44) + 1
}

// runPhase runs every client's closed loop from per-client step `from`
// until the deadline passes, and returns the step each client reached.
// Client k's j-th step takes slot (j + k*scheduleLen/numClients) of the
// schedule and iteration index base + j*numClients + k: every client
// walks the whole schedule at its own offset, iteration indices are
// disjoint, and the inputs of a step do not depend on timing.
func runPhase(spec *workloadSpec, w *world, clients []*client, tr *tracer, base int, from []int, d time.Duration) (phaseResult, []int) {
	start := time.Now()
	deadline := start.Add(d)
	results := make([]phaseResult, len(clients))
	next := make([]int, len(clients))
	var wg sync.WaitGroup
	for k, c := range clients {
		wg.Add(1)
		go func(k int, c *client) {
			defer wg.Done()
			res := &results[k]
			j := from[k]
			for ; time.Now().Before(deadline); j++ {
				class := spec.schedule[(j+k*scheduleLen/numClients)%scheduleLen]
				iter := base + j*numClients + k
				if c.sess != nil {
					c.sess.beginOp(tr, int64(iter), class)
				}
				t0 := time.Now()
				rows, err := classes[class](w, c, iter)
				t1 := time.Now()
				if c.sess != nil {
					c.sess.endOp(tr, rows, err != nil)
				}
				if err != nil {
					res.failed++
					if res.firstErr == nil {
						res.firstErr = fmt.Errorf("%s iter %d: %w", class, iter, err)
					}
					continue
				}
				res.samples = append(res.samples, sample{class: class, end: t1.Sub(start), lat: t1.Sub(t0)})
			}
			next[k] = j
		}(k, c)
	}
	wg.Wait()
	out := phaseResult{budget: d, wall: time.Since(start)}
	for _, r := range results {
		out.samples = append(out.samples, r.samples...)
		out.failed += r.failed
		if out.firstErr == nil {
			out.firstErr = r.firstErr
		}
	}
	return out, next
}

func (p phaseResult) attempted() int { return len(p.samples) + p.failed }

func (p phaseResult) opsPerSec() float64 {
	return float64(len(p.samples)) / p.wall.Seconds()
}

// window is the k-th of `of` equal slices of the phase's budget: the
// operations that ended in it, for the latency quantiles, and the
// throughput in it. An operation that straddles a slice boundary counts
// in each slice by the share of its time spent there, so a slice's
// throughput is not quantized to whole operations.
func (p phaseResult) window(k, of int) (ended phaseResult, opsPerSec float64) {
	lo := p.budget * time.Duration(k) / time.Duration(of)
	hi := p.budget * time.Duration(k+1) / time.Duration(of)
	var done float64
	for _, s := range p.samples {
		if s.end >= lo && s.end < hi {
			ended.samples = append(ended.samples, s)
		}
		from, to := s.end-s.lat, s.end
		if from < lo {
			from = lo
		}
		if to > hi {
			to = hi
		}
		if to > from && s.lat > 0 {
			done += float64(to-from) / float64(s.lat)
		}
	}
	return ended, done / (hi - lo).Seconds()
}

// quantileMS returns the q-quantile of the samples' latencies in
// milliseconds (nearest rank), over one class or, with class "", all.
func (p phaseResult) quantileMS(class string, q float64) float64 {
	var lats []time.Duration
	for _, s := range p.samples {
		if class == "" || s.class == class {
			lats = append(lats, s.lat)
		}
	}
	if len(lats) == 0 {
		return 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	i := int(q*float64(len(lats))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(lats) {
		i = len(lats) - 1
	}
	return float64(lats[i]) / float64(time.Millisecond)
}

// windowSeries splits the phase into equal windows and returns each
// window's throughput and latency quantiles, in order. A window in which
// no operation ended (a run much shorter than the benchmark's) has no
// quantiles and is left out of those two series.
func (p phaseResult) windowSeries(windows int) (opsPerSec, p50, p95 []float64) {
	for k := 0; k < windows; k++ {
		win, ops := p.window(k, windows)
		opsPerSec = append(opsPerSec, ops)
		if len(win.samples) > 0 {
			p50 = append(p50, win.quantileMS("", 0.50))
			p95 = append(p95, win.quantileMS("", 0.95))
		}
	}
	return opsPerSec, p50, p95
}

// driftRatio is throughput in the second half of the phase over
// throughput in the first half.
func (p phaseResult) driftRatio() float64 {
	_, first := p.window(0, 2)
	_, second := p.window(1, 2)
	return frac(second, first)
}

// connectClients opens one connection per client, through the tracing
// decorator when tr is non-nil.
func connectClients(w *world, tr *tracer) ([]*client, error) {
	connector := w.connector
	if tr != nil {
		connector = &tracedConnector{inner: connector, t: tr}
	}
	clients := make([]*client, numClients)
	for k := range clients {
		conn, err := connector.Connect()
		if err != nil {
			return nil, err
		}
		clients[k] = &client{conn: conn}
		if tc, ok := conn.(*tracedConn); ok {
			clients[k].sess = tc.s
		}
	}
	return clients, nil
}
