package cluster

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"jackpine/internal/driver"
	"jackpine/internal/engine"
	"jackpine/internal/geom"
)

// complementRow is one fixture row: a point (degenerate rectangle) or
// an axis-aligned box, for which exact intersection with a rectangle
// equals envelope intersection, so the brute force below needs no
// topology.
type complementRow struct {
	id   int
	env  geom.Rect
	note string
}

func pt(id int, x, y float64, note string) complementRow {
	return complementRow{id, geom.Rect{MinX: x, MinY: y, MaxX: x, MaxY: y}, note}
}

func box(id int, x0, y0, x1, y1 float64, note string) complementRow {
	return complementRow{id, geom.Rect{MinX: x0, MinY: y0, MaxX: x1, MaxY: y1}, note}
}

func (r complementRow) sqlGeom() string {
	if r.env.MinX == r.env.MaxX && r.env.MinY == r.env.MaxY {
		return fmt.Sprintf("ST_MakePoint(%g, %g)", r.env.MinX, r.env.MinY)
	}
	return fmt.Sprintf("ST_MakeEnvelope(%g, %g, %g, %g)", r.env.MinX, r.env.MinY, r.env.MaxX, r.env.MaxY)
}

// The 2-shard fixture tiles [0,100]² as 1×2: shard 0 owns y < 50,
// shard 1 owns y ≥ 50, and y = 50 is the only internal edge. Rows
// tagged "outer" hug or cross the dataset's outer edges far from
// y = 50: no shard lies beyond them, so they can never form a
// cross-shard pair and must stay home.
var (
	complementPts = []complementRow{
		pt(1, 0.5, 10, "outer"),
		pt(2, 99.5, 30, "outer"),
		pt(3, 40, 0.3, "outer"),
		pt(4, 60, 99.7, "outer"),
		pt(5, -4, 20, "outer"),
		pt(6, 105, 80, "outer"),
		pt(7, 30, -3, "outer"),
		pt(8, 20, 130, "outer"),
		pt(10, 30, 25, "deep"),
		pt(11, 70, 75, "deep"),
		pt(12, 20, 80, "deep"),
		pt(20, 40, 49, "edge"),
		pt(21, 45, 51.5, "edge"),
		pt(22, 10, 48.5, "edge"),
		pt(23, 90, 52, "edge"),
		pt(24, 99.5, 49.9, "edge"),
		pt(31, 65, 43, "band"), // interior, but under box 100's overhang
		pt(32, 65, 30, "deep"),
		pt(33, 10, 43, "deep"),
	}
	complementBoxes = []complementRow{
		box(100, 60, 44, 70, 60, "edge"), // shard 1, overhangs south
		box(101, -5, 10, 5, 20, "outer"),
		box(102, 10, 80, 20, 90, "deep"),
		box(103, 20, 40, 30, 47, "deep"),
		box(104, 95, 60, 110, 75, "outer"),
		box(105, 80, 50.5, 84, 70, "edge"),
		box(106, 60, 35, 75, 43, "band"), // interior, under box 100 (self-join)
		box(107, -10, -10, 10, 5, "outer"),
	}
)

// expectedComplement is the brute-force complement for joining table
// rows against table partners on the 1×2 fixture: rows whose envelope
// lies within m of y = 50 on their own side, plus non-spill rows whose
// envelope meets the partner table's spill from the other shard, grown
// by m. The result maps id to shard.
func expectedComplement(part Partitioner, rows, partners []complementRow, m float64) map[int]int {
	shard := func(r complementRow) int { return part.AssignPoint(r.env.Center()) }
	spills := func(r complementRow) bool {
		if shard(r) == 0 {
			return r.env.MaxY > 50-m
		}
		return r.env.MinY < 50+m
	}
	band := []geom.Rect{geom.EmptyRect(), geom.EmptyRect()} // band[t] from shard 1-t's spill
	for _, p := range partners {
		if spills(p) {
			t := 1 - shard(p)
			band[t] = band[t].Union(p.env)
		}
	}
	want := make(map[int]int)
	for _, r := range rows {
		if spills(r) || r.env.Intersects(band[shard(r)].Expand(m)) {
			want[r.id] = shard(r)
		}
	}
	return want
}

// shardLog records the statements a cluster sends its shards.
type shardLog struct {
	mu    sync.Mutex
	stmts []shardStmt
}

type shardStmt struct {
	shard int
	text  string
}

func (l *shardLog) add(shard int, text string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.stmts = append(l.stmts, shardStmt{shard, text})
}

func (l *shardLog) take() []shardStmt {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.stmts
	l.stmts = nil
	return out
}

// loggedConnector opens sessions whose queries land in log first.
type loggedConnector struct {
	driver.Connector
	shard int
	log   *shardLog
}

func (c loggedConnector) Connect() (driver.Conn, error) {
	conn, err := c.Connector.Connect()
	return loggedConn{conn, c.shard, c.log}, err
}

type loggedConn struct {
	driver.Conn
	shard int
	log   *shardLog
}

func (c loggedConn) Query(q string) (*driver.ResultSet, error) {
	c.log.add(c.shard, q)
	return c.Conn.Query(q)
}

// TestComplementIsBoundaryOnly: buildComplement must load exactly the
// rows that can form a cross-shard pair — spill rows near the internal
// edge and their band partners — and nothing that only hugs the outer
// extent edges, with and without spatial indexes on the shards. Each
// spill statement it sends is one ordinate comparison on the 1×2 grid,
// which plans as a spatial-index probe once the shard has the index.
func TestComplementIsBoundaryOnly(t *testing.T) {
	ext := geom.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}
	part, err := NewPartitioner(ext, 2)
	if err != nil {
		t.Fatal(err)
	}
	engines := []*engine.Engine{engine.Open(engine.GaiaDB()), engine.Open(engine.GaiaDB())}
	var log shardLog
	shards := make([]driver.Connector, len(engines))
	for i, e := range engines {
		shards[i] = loggedConnector{driver.NewInProc(e), i, &log}
	}
	cl, err := Open(shards, part, Options{Profile: engine.GaiaDB()})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := cl.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	cn := conn.(*Conn)

	load := func(table, col string, rows []complementRow) {
		t.Helper()
		if _, err := cn.Exec(fmt.Sprintf("CREATE TABLE %s (id INTEGER, %s GEOMETRY)", table, col)); err != nil {
			t.Fatal(err)
		}
		vals := make([]string, len(rows))
		for i, r := range rows {
			vals[i] = fmt.Sprintf("(%d, %s)", r.id, r.sqlGeom())
		}
		if _, err := cn.Exec(fmt.Sprintf("INSERT INTO %s VALUES %s, (999, NULL)", table, strings.Join(vals, ", "))); err != nil {
			t.Fatal(err)
		}
	}
	load("pts", "loc", complementPts)
	load("boxes", "shape", complementBoxes)
	fixture := map[string][]complementRow{"pts": complementPts, "boxes": complementBoxes}

	joins := [][2]string{{"pts", "boxes"}, {"pts", "pts"}, {"boxes", "boxes"}}
	for _, indexed := range []bool{false, true} {
		plan := "seqscan"
		if indexed {
			plan = "spatial-index"
			for _, s := range []string{"CREATE SPATIAL INDEX pts_loc ON pts (loc)",
				"CREATE SPATIAL INDEX boxes_shape ON boxes (shape)"} {
				if _, err := cn.Exec(s); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, d := range []float64{0, 2, 7} {
			m := spillMargin(ext, d)
			for _, j := range joins {
				log.take()
				eng, err := cn.buildComplement(context.Background(),
					[]*tableInfo{cl.lookup(j[0]), cl.lookup(j[1])}, d)
				if err != nil {
					t.Fatalf("d=%g %v: %v", d, j, err)
				}
				checkComplement(t, eng, fmt.Sprintf("indexed=%v d=%g %v", indexed, d, j), j, part, m, fixture)
				// The spill round sends one statement per shard and table;
				// the band round's carry ST_INTERSECTS.
				spills := 0
				for _, st := range log.take() {
					if strings.Contains(st.text, "ST_INTERSECTS") {
						continue
					}
					spills++
					if got := engines[st.shard].MustExec("EXPLAIN " + st.text).Rows[0][1].String(); got != plan {
						t.Errorf("indexed=%v d=%g %v: shard %d plans %s for spill statement %s, want %s",
							indexed, d, j, st.shard, got, st.text, plan)
					}
				}
				if want := 2 * len(distinct(j)); spills != want {
					t.Errorf("indexed=%v d=%g %v: %d spill statements, want %d", indexed, d, j, spills, want)
				}
			}
		}
	}

	// The fixture must exercise both halves of the complement: at d=2
	// point 31 is a band partner of box 100, box 106 of box 100.
	m := spillMargin(ext, 2)
	if _, ok := expectedComplement(part, complementPts, complementBoxes, m)[31]; !ok {
		t.Error("fixture: point 31 should be a band partner at d=2")
	}
	if _, ok := expectedComplement(part, complementBoxes, complementBoxes, m)[106]; !ok {
		t.Error("fixture: box 106 should be a band partner at d=2")
	}
}

// distinct lists a join's tables once each.
func distinct(j [2]string) []string {
	if j[0] == j[1] {
		return j[:1]
	}
	return j[:]
}

// checkComplement compares the complement engine's rows of each joined
// table with the brute-force complement.
func checkComplement(t *testing.T, eng *engine.Engine, label string, j [2]string, part Partitioner,
	m float64, fixture map[string][]complementRow) {
	t.Helper()
	for ti, table := range distinct(j) {
		want := expectedComplement(part, fixture[table], fixture[j[1-ti]], m)
		res, err := eng.Exec("SELECT id, _shard FROM " + table)
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[int]int, len(res.Rows))
		for _, r := range res.Rows {
			id := int(r[0].Int)
			if _, dup := got[id]; dup {
				t.Errorf("%s: %s row %d loaded twice", label, table, id)
			}
			got[id] = int(r[1].Int)
		}
		if fmt.Sprint(sortedPairs(got)) != fmt.Sprint(sortedPairs(want)) {
			t.Errorf("%s: %s complement (id:shard)\n got %v\nwant %v",
				label, table, sortedPairs(got), sortedPairs(want))
		}
		for _, r := range fixture[table] {
			if _, in := got[r.id]; in && r.note == "outer" {
				t.Errorf("%s: %s row %d only hugs the outer extent edge but was loaded", label, table, r.id)
			}
		}
	}
}

func sortedPairs(m map[int]int) []string {
	out := make([]string, 0, len(m))
	for id, s := range m {
		out = append(out, fmt.Sprintf("%d:%d", id, s))
	}
	sort.Strings(out)
	return out
}
