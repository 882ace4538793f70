package sql_test

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"jackpine/internal/engine"
	"jackpine/internal/geom"
	"jackpine/internal/sql"
	"jackpine/internal/storage"
)

// hoistFixture is a runner over an engine catalog whose registry carries
// CNT, an identity scalar that counts its invocations: 300 outer rows
// (o), two inner rows (i) for each of the first 299, none for the last.
type hoistFixture struct {
	run   *sql.Runner
	calls atomic.Int64
}

const hoistOuter, hoistJoined = 300, 299

func newHoistFixture(t *testing.T) *hoistFixture {
	t.Helper()
	f := &hoistFixture{}
	reg := sql.NewRegistry(sql.RegistryOptions{})
	reg.Register("CNT", func(args []storage.Value) (storage.Value, error) {
		f.calls.Add(1)
		return args[0], nil
	})
	f.run = sql.NewRunner(engine.Open(engine.GaiaDB()), reg)
	f.exec(t, "CREATE TABLE o (id INTEGER, v INTEGER, g GEOMETRY)")
	f.exec(t, "CREATE TABLE i (id INTEGER, oid INTEGER, w INTEGER, g GEOMETRY)")
	var o, i []string
	for k := 1; k <= hoistOuter; k++ {
		o = append(o, fmt.Sprintf("(%d, %d, ST_MakePoint(%d, 0))", k, k%7+1, 10*k))
		if k <= hoistJoined {
			i = append(i, fmt.Sprintf("(%d, %d, 3, ST_MakePoint(%d, 1))", 2*k, k, 10*k),
				fmt.Sprintf("(%d, %d, 4, ST_MakePoint(%d, -1))", 2*k+1, k, 10*k))
		}
	}
	f.exec(t, "INSERT INTO o VALUES "+strings.Join(o, ", "))
	f.exec(t, "INSERT INTO i VALUES "+strings.Join(i, ", "))
	f.exec(t, "CREATE SPATIAL INDEX ig ON i (g)")
	return f
}

func (f *hoistFixture) exec(t *testing.T, q string) *sql.Result {
	t.Helper()
	res, err := f.run.Run(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return res
}

// TestHoistCallCounts pins the stage-slot rule by counting evaluations:
// an expression over the outer table runs once per outer row that
// reaches one of its consumers — however many join partners, output
// rows and textual occurrences it has — a constant once per statement,
// and nothing at all when stage 0 yields no rows.
func TestHoistCallCounts(t *testing.T) {
	f := newHoistFixture(t)
	cases := []struct {
		name, sql   string
		calls, rows int
	}{
		// The hash probe reads the key for every outer row.
		{"on", "SELECT i.id FROM o JOIN i ON i.oid = CNT(o.id)", hoistOuter, 2 * hoistJoined},
		// Everything else is first read on an inner row, so the
		// partnerless outer row never evaluates it.
		{"where", "SELECT i.id FROM o JOIN i ON i.oid = o.id WHERE i.w < CNT(o.v) + 100", hoistJoined, 2 * hoistJoined},
		{"select", "SELECT CNT(o.v), i.id FROM o JOIN i ON i.oid = o.id", hoistJoined, 2 * hoistJoined},
		{"all three", "SELECT CNT(o.v), i.id FROM o JOIN i ON i.oid = o.id AND i.w <= CNT(o.v) + 100 " +
			"WHERE CNT(o.v) + i.w > 0", hoistJoined, 2 * hoistJoined},
		{"order by", "SELECT i.id FROM o JOIN i ON i.oid = o.id ORDER BY CNT(o.v), i.id", hoistJoined, 2 * hoistJoined},
		{"aggregate", "SELECT COUNT(*), SUM(CNT(o.v)) FROM o JOIN i ON i.oid = o.id", hoistJoined, 1},
		// Probe window, prepared-topology filter and projection share
		// the buffered outer geometry: CNT runs once under the one
		// ST_BUFFER slot.
		{"spatial", "SELECT i.id, ST_Area(ST_Buffer(CNT(o.g), 2)) FROM o " +
			"JOIN i ON ST_Intersects(i.g, ST_Buffer(CNT(o.g), 2))", hoistOuter, 2 * hoistJoined},
		{"constant", "SELECT i.id, CNT(7) FROM o JOIN i ON i.oid = o.id WHERE i.w < CNT(7)", 1, 2 * hoistJoined},
		{"constant single table", "SELECT id, CNT(8) FROM o WHERE v < CNT(8)", 1, hoistOuter},
		{"no outer rows", "SELECT CNT(o.v), i.id FROM o JOIN i ON i.oid = o.id AND i.w <= CNT(o.v) + 100 " +
			"WHERE o.id < 0", 0, 0},
	}
	for _, par := range []int{1, 4} {
		for _, batch := range []bool{true, false} {
			f.run.SetParallelism(par)
			f.run.SetBatchExec(batch)
			for _, c := range cases {
				f.calls.Store(0)
				res := f.exec(t, c.sql)
				if got := int(f.calls.Load()); got != c.calls || len(res.Rows) != c.rows {
					t.Errorf("%s (parallelism %d, batch %v): %d CNT calls and %d rows, want %d and %d",
						c.name, par, batch, got, len(res.Rows), c.calls, c.rows)
				}
			}
		}
	}
}

// TestHoistReexecutedTree: the pass re-points the select list of the
// tree it is handed, so a caller that executes one parsed statement
// twice hands back a tree that already holds slots. The second run must
// derive them afresh: same rows, same evaluation count.
func TestHoistReexecutedTree(t *testing.T) {
	f := newHoistFixture(t)
	stmt, err := sql.Parse("SELECT i.id, ST_Area(ST_Buffer(CNT(o.g), 2)) + CNT(o.v) FROM o " +
		"JOIN i ON ST_Intersects(i.g, ST_Buffer(CNT(o.g), 2)) ORDER BY CNT(o.v), i.id")
	if err != nil {
		t.Fatal(err)
	}
	var first string
	for run := 0; run < 2; run++ {
		f.calls.Store(0)
		res, err := f.run.Execute(stmt)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		got := fmt.Sprint(res.Columns, res.Rows)
		if run == 0 {
			first = got
		} else if got != first {
			t.Errorf("second execution of the same tree returns different rows")
		}
		// CNT(o.g) once per outer row (the window reads it), CNT(o.v)
		// once per outer row with a partner.
		if calls := f.calls.Load(); calls != hoistOuter+hoistJoined {
			t.Errorf("run %d: %d CNT calls, want %d", run, calls, hoistOuter+hoistJoined)
		}
	}
}

// accessCounts tallies how plans read the tables of a countingCatalog:
// spatial index searches, attribute index seeks and ranges, rows fetched
// by id, and the projection of every heap scan.
type accessCounts struct {
	searches, seeks, fetched atomic.Int64

	mu    sync.Mutex
	scans []sql.Projection
}

// countingCatalog wraps an engine catalog so that every table it hands
// out, and every index of those tables, reports to one accessCounts.
type countingCatalog struct {
	sql.Catalog
	n *accessCounts
}

func (c countingCatalog) Table(name string) (sql.Table, bool) {
	t, ok := c.Catalog.Table(name)
	if !ok {
		return nil, false
	}
	return countingTable{t.(sql.BatchTable), c.n}, true
}

type countingTable struct {
	sql.BatchTable
	n *accessCounts
}

func (t countingTable) SpatialIndexOn(column string) sql.SpatialIndex {
	if idx := t.BatchTable.SpatialIndexOn(column); idx != nil {
		return countingIndex{idx, t.n}
	}
	return nil
}

func (t countingTable) AttrIndexes() []sql.AttrIndexDef {
	defs := t.BatchTable.AttrIndexes()
	for i := range defs {
		defs[i].Index = countingAttr{defs[i].Index, t.n}
	}
	return defs
}

func (t countingTable) scanned(proj sql.Projection) {
	t.n.mu.Lock()
	t.n.scans = append(t.n.scans, proj)
	t.n.mu.Unlock()
}

func (t countingTable) ScanProject(shard, nshards int, proj sql.Projection, fn func(sql.RowID, []storage.Value) bool) error {
	t.scanned(proj)
	return t.BatchTable.ScanProject(shard, nshards, proj, fn)
}

func (t countingTable) ScanBatch(shard, nshards int, proj sql.Projection, size int, fn func(*storage.ColBatch) (bool, error)) error {
	t.scanned(proj)
	return t.BatchTable.ScanBatch(shard, nshards, proj, size, fn)
}

func (t countingTable) FetchProject(id sql.RowID, need []bool) ([]storage.Value, error) {
	t.n.fetched.Add(1)
	return t.BatchTable.FetchProject(id, need)
}

func (t countingTable) FetchBatch(ids []sql.RowID, proj sql.Projection, b *storage.ColBatch) error {
	t.n.fetched.Add(int64(len(ids)))
	return t.BatchTable.FetchBatch(ids, proj, b)
}

type countingIndex struct {
	sql.SpatialIndex
	n *accessCounts
}

func (x countingIndex) Search(w geom.Rect, fn func(sql.RowID) bool) {
	x.n.searches.Add(1)
	x.SpatialIndex.Search(w, fn)
}

type countingAttr struct {
	sql.AttrIndex
	n *accessCounts
}

func (x countingAttr) Seek(key []byte, fn func(sql.RowID) bool) {
	x.n.seeks.Add(1)
	x.AttrIndex.Seek(key, fn)
}

func (x countingAttr) Range(lo, hi []byte, loInc, hiInc bool, fn func(sql.RowID) bool) {
	x.n.seeks.Add(1)
	x.AttrIndex.Range(lo, hi, loInc, hiInc, fn)
}

// TestStage0SearchesIndexOnce pins a stage-0 spatial window to one index
// search per statement whatever it finds, serial or parallel, batch on
// or off: the batch/row choice reads the candidates of that one search.
// Batches run only with batch execution on and at least eight
// candidates, and every configuration returns the serial row path's
// rows byte for byte.
func TestStage0SearchesIndexOnce(t *testing.T) {
	var n accessCounts
	searches := &n.searches
	run := sql.NewRunner(countingCatalog{engine.Open(engine.GaiaDB()), &n},
		sql.NewRegistry(sql.RegistryOptions{}))
	mustRun := func(q string) *sql.Result {
		t.Helper()
		res, err := run.Run(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return res
	}
	mustRun("CREATE TABLE p (id INTEGER, g GEOMETRY)")
	var rows []string
	for k := 0; k < 600; k++ {
		rows = append(rows, fmt.Sprintf("(%d, ST_MakePoint(%d, 0))", k, k))
	}
	mustRun("INSERT INTO p VALUES " + strings.Join(rows, ", "))
	mustRun("CREATE SPATIAL INDEX pg ON p (g)")

	ref := map[string]string{}
	for _, par := range []int{1, 4} {
		for _, batch := range []bool{false, true} {
			run.SetParallelism(par)
			run.SetBatchExec(batch)
			for _, n := range []int{0, 1, 7, 8, 9, 300} {
				// The window covers the points x = 0..n-1 (none for n = 0).
				window := fmt.Sprintf("ST_MakeEnvelope(%g, -1, %g, 1)", -0.5, float64(n)-0.5)
				if n == 0 {
					window = "ST_MakeEnvelope(-10, -1, -5, 1)"
				}
				for _, q := range []string{
					"SELECT id, ST_AsText(g) FROM p WHERE ST_Intersects(g, " + window + ")",
					"SELECT COUNT(*), SUM(id) FROM p WHERE ST_Intersects(g, " + window + ")",
				} {
					searches.Store(0)
					run.ResetBatchStats()
					res := mustRun(q)
					cfg := fmt.Sprintf("%d candidates, parallelism %d, batch %v: %s", n, par, batch, q)
					if got := searches.Load(); got != 1 {
						t.Errorf("%s: %d index searches, want 1", cfg, got)
					}
					if batches, _ := run.BatchStats(); (batches > 0) != (batch && n >= 8) {
						t.Errorf("%s: %d batches", cfg, batches)
					}
					if parallel := strings.Contains(res.Access[0], "parallel"); parallel != (par > 1) {
						t.Errorf("%s: access %q", cfg, res.Access[0])
					}
					got := fmt.Sprint(res.Rows)
					if want, seen := ref[q]; !seen {
						ref[q] = got
						if strings.HasPrefix(q, "SELECT id") && len(res.Rows) != n {
							t.Fatalf("%s: %d rows, want %d", cfg, len(res.Rows), n)
						}
					} else if got != want {
						t.Errorf("%s: rows differ from the serial row path\nwant %s\ngot  %s", cfg, want, got)
					}
				}
			}
		}
	}
}
