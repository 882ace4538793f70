package engine

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"jackpine/internal/storage"
)

// newTestEngine opens a GaiaDB-profile engine with a small schema.
func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	e := Open(GaiaDB())
	e.MustExec("CREATE TABLE landmarks (id INTEGER, name TEXT, geo GEOMETRY)")
	e.MustExec("CREATE TABLE cities (id INTEGER, name TEXT, pop INTEGER, loc GEOMETRY)")
	return e
}

func TestCreateTableAndInsert(t *testing.T) {
	e := newTestEngine(t)
	res := e.MustExec("INSERT INTO landmarks VALUES " +
		"(1, 'park', ST_GeomFromText('POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))'))," +
		"(2, 'lake', ST_GeomFromText('POLYGON ((20 20, 30 20, 30 30, 20 30, 20 20))'))," +
		"(3, 'trail', ST_GeomFromText('LINESTRING (0 0, 50 50)'))")
	if res.Affected != 3 {
		t.Fatalf("affected = %d", res.Affected)
	}
	res = e.MustExec("SELECT COUNT(*) FROM landmarks")
	if res.Rows[0][0].Int != 3 {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
}

func TestInsertErrors(t *testing.T) {
	e := newTestEngine(t)
	if _, err := e.Exec("INSERT INTO landmarks VALUES (1, 'x')"); err == nil {
		t.Error("wrong arity insert accepted")
	}
	if _, err := e.Exec("INSERT INTO nosuch VALUES (1)"); err == nil {
		t.Error("insert into missing table accepted")
	}
	if _, err := e.Exec("INSERT INTO landmarks VALUES ('a', 'b', NULL)"); err == nil {
		t.Error("text into integer column accepted")
	}
	// WKT text auto-coerces into geometry columns.
	e.MustExec("INSERT INTO landmarks VALUES (9, 'auto', 'POINT (1 2)')")
	res := e.MustExec("SELECT ST_AsText(geo) FROM landmarks WHERE id = 9")
	if res.Rows[0][0].Text != "POINT (1 2)" {
		t.Errorf("coerced geometry = %v", res.Rows[0][0])
	}
}

func TestCreateTableErrors(t *testing.T) {
	e := newTestEngine(t)
	if _, err := e.Exec("CREATE TABLE landmarks (x INTEGER)"); err == nil {
		t.Error("duplicate table accepted")
	}
	if _, err := e.Exec("CREATE TABLE dup (a INTEGER, a TEXT)"); err == nil {
		t.Error("duplicate column accepted")
	}
}

func loadGrid(t *testing.T, e *Engine, n int) {
	t.Helper()
	// n×n unit squares at integer offsets, ids row-major.
	var sb strings.Builder
	sb.WriteString("INSERT INTO landmarks VALUES ")
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			if x+y > 0 {
				sb.WriteString(", ")
			}
			id := y*n + x
			fmt.Fprintf(&sb, "(%d, 'cell-%d', ST_GeomFromText('POLYGON ((%d %d, %d %d, %d %d, %d %d, %d %d))'))",
				id, id,
				x*2, y*2, x*2+1, y*2, x*2+1, y*2+1, x*2, y*2+1, x*2, y*2)
		}
	}
	e.MustExec(sb.String())
}

func TestSpatialWindowQueryWithAndWithoutIndex(t *testing.T) {
	for _, indexed := range []bool{false, true} {
		e := newTestEngine(t)
		loadGrid(t, e, 10) // cells at even coords in [0,20)
		if indexed {
			e.MustExec("CREATE SPATIAL INDEX lidx ON landmarks (geo)")
		}
		q := "SELECT id FROM landmarks WHERE ST_Intersects(geo, ST_MakeEnvelope(0, 0, 4.5, 4.5))"
		res := e.MustExec(q)
		// Cells with x*2 <= 4.5 and y*2 <= 4.5: x,y in {0,1,2} → 9 cells.
		if len(res.Rows) != 9 {
			t.Fatalf("indexed=%v: got %d rows, want 9", indexed, len(res.Rows))
		}
		wantPath := "seqscan"
		if indexed {
			wantPath = "spatial-index"
		}
		if res.Access[0] != "landmarks:"+wantPath {
			t.Errorf("indexed=%v: access = %v", indexed, res.Access)
		}
	}
}

func TestSpatialPredicatesThroughSQL(t *testing.T) {
	e := newTestEngine(t)
	e.MustExec("INSERT INTO landmarks VALUES " +
		"(1, 'a', ST_GeomFromText('POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))'))," +
		"(2, 'b', ST_GeomFromText('POLYGON ((4 0, 8 0, 8 4, 4 4, 4 0))'))," + // touches a
		"(3, 'c', ST_GeomFromText('POLYGON ((2 2, 6 2, 6 6, 2 6, 2 2))'))," + // overlaps a
		"(4, 'd', ST_GeomFromText('POLYGON ((1 1, 2 1, 2 2, 1 2, 1 1))'))") // within a
	probe := "ST_GeomFromText('POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))')"
	cases := []struct {
		pred string
		want []int64
	}{
		{"ST_Intersects(geo, " + probe + ")", []int64{1, 2, 3, 4}},
		{"ST_Touches(geo, " + probe + ")", []int64{2}},
		{"ST_Overlaps(geo, " + probe + ")", []int64{3}},
		{"ST_Within(geo, " + probe + ")", []int64{1, 4}},
		{"ST_Equals(geo, " + probe + ")", []int64{1}},
		{"ST_Contains(geo, ST_MakePoint(1.5, 1.5))", []int64{1, 4}},
		{"ST_Disjoint(geo, ST_MakePoint(100, 100))", []int64{1, 2, 3, 4}},
		{"ST_DWithin(geo, ST_MakePoint(10, 2), 2.5)", []int64{2}},
		{"ST_Relate(geo, " + probe + ", 'T*F**FFF*')", []int64{1}},    // topological equality
		{"ST_Relate(geo, " + probe + ", 'T*F**F***')", []int64{1, 4}}, // within
	}
	for _, tc := range cases {
		res := e.MustExec("SELECT id FROM landmarks WHERE " + tc.pred + " ORDER BY id")
		var got []int64
		for _, r := range res.Rows {
			got = append(got, r[0].Int)
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: got %v, want %v", tc.pred, got, tc.want)
		}
	}
}

func TestAttrIndexPaths(t *testing.T) {
	e := newTestEngine(t)
	var sb strings.Builder
	sb.WriteString("INSERT INTO cities VALUES ")
	for i := 0; i < 100; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, 'city-%02d', %d, ST_MakePoint(%d, %d))", i, i%10, i*1000, i, i)
	}
	e.MustExec(sb.String())
	e.MustExec("CREATE INDEX name_idx ON cities (name)")
	e.MustExec("CREATE INDEX pop_idx ON cities (pop)")

	res := e.MustExec("SELECT COUNT(*) FROM cities WHERE name = 'city-03'")
	if res.Rows[0][0].Int != 10 {
		t.Errorf("seek count = %v", res.Rows[0][0])
	}
	if res.Access[0] != "cities:btree-seek" {
		t.Errorf("access = %v", res.Access)
	}
	res = e.MustExec("SELECT COUNT(*) FROM cities WHERE pop BETWEEN 5000 AND 9000")
	if res.Rows[0][0].Int != 5 {
		t.Errorf("range count = %v", res.Rows[0][0])
	}
	if res.Access[0] != "cities:btree-range" {
		t.Errorf("access = %v", res.Access)
	}
}

func TestSpatialJoinIndexNestedLoop(t *testing.T) {
	e := newTestEngine(t)
	loadGrid(t, e, 6)
	e.MustExec("CREATE SPATIAL INDEX lidx ON landmarks (geo)")
	var sb strings.Builder
	sb.WriteString("INSERT INTO cities VALUES ")
	// One point inside every third cell.
	cnt := 0
	for y := 0; y < 6; y += 2 {
		for x := 0; x < 6; x += 2 {
			if cnt > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, 'p%d', 0, ST_MakePoint(%g, %g))", cnt, cnt,
				float64(x*2)+0.5, float64(y*2)+0.5)
			cnt++
		}
	}
	e.MustExec(sb.String())

	res := e.MustExec("SELECT c.id, l.id FROM cities c JOIN landmarks l ON ST_Contains(l.geo, c.loc)")
	if len(res.Rows) != cnt {
		t.Fatalf("join produced %d rows, want %d", len(res.Rows), cnt)
	}
	// The inner table must be driven by the spatial index (INL strategy).
	if res.Access[1] != "l:inl(index=geo)" {
		t.Errorf("join access = %v", res.Access)
	}
}

func TestKNNQuery(t *testing.T) {
	e := newTestEngine(t)
	var sb strings.Builder
	sb.WriteString("INSERT INTO cities VALUES ")
	for i := 0; i < 50; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, 'p%d', 0, ST_MakePoint(%d, 0))", i, i, i*10)
	}
	e.MustExec(sb.String())
	e.MustExec("CREATE SPATIAL INDEX cidx ON cities (loc)")

	res := e.MustExec("SELECT id FROM cities ORDER BY ST_Distance(loc, ST_MakePoint(103, 0)) LIMIT 3")
	if res.Access[0] != "cities:knn" {
		t.Fatalf("access = %v", res.Access)
	}
	var got []int64
	for _, r := range res.Rows {
		got = append(got, r[0].Int)
	}
	// Nearest to x=103: 100 (id 10), 110 (id 11), 90 (id 9).
	if fmt.Sprint(got) != "[10 11 9]" {
		t.Errorf("knn ids = %v", got)
	}

	// Without the index the same query must still work via sort.
	e2 := newTestEngine(t)
	e2.MustExec(sb.String())
	res2 := e2.MustExec("SELECT id FROM cities ORDER BY ST_Distance(loc, ST_MakePoint(103, 0)) LIMIT 3")
	if res2.Access[0] != "cities:seqscan" {
		t.Fatalf("fallback access = %v", res2.Access)
	}
	var got2 []int64
	for _, r := range res2.Rows {
		got2 = append(got2, r[0].Int)
	}
	if fmt.Sprint(got2) != fmt.Sprint(got) {
		t.Errorf("knn and sort disagree: %v vs %v", got, got2)
	}
}

func TestAggregationAndGroupBy(t *testing.T) {
	e := newTestEngine(t)
	e.MustExec("INSERT INTO cities VALUES " +
		"(1, 'tx', 100, ST_MakePoint(0,0)), (2, 'tx', 300, ST_MakePoint(1,1))," +
		"(3, 'ca', 500, ST_MakePoint(2,2)), (4, 'ca', 700, ST_MakePoint(3,3))," +
		"(5, 'ny', NULL, ST_MakePoint(4,4))")
	res := e.MustExec("SELECT name, COUNT(*), SUM(pop), AVG(pop), MIN(pop), MAX(pop) " +
		"FROM cities GROUP BY name ORDER BY name")
	_ = res
	rows := e.MustExec("SELECT name, SUM(pop) FROM cities GROUP BY name").Rows
	sums := map[string]storage.Value{}
	for _, r := range rows {
		sums[r[0].Text] = r[1]
	}
	if sums["tx"].Int != 400 || sums["ca"].Int != 1200 {
		t.Errorf("sums = %v", sums)
	}
	if !sums["ny"].IsNull() {
		t.Errorf("SUM of NULLs should be NULL, got %v", sums["ny"])
	}
	// Global aggregates.
	r := e.MustExec("SELECT COUNT(*), COUNT(pop), AVG(pop) FROM cities").Rows[0]
	if r[0].Int != 5 || r[1].Int != 4 || math.Abs(r[2].Float-400) > 1e-9 {
		t.Errorf("global aggregates = %v", r)
	}
	// Aggregate over empty result.
	r = e.MustExec("SELECT COUNT(*) FROM cities WHERE id > 99").Rows[0]
	if r[0].Int != 0 {
		t.Errorf("empty count = %v", r[0])
	}
	// Spatial aggregate: total area.
	e.MustExec("INSERT INTO landmarks VALUES (1, 'a', ST_GeomFromText('POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))'))," +
		"(2, 'b', ST_GeomFromText('POLYGON ((0 0, 3 0, 3 3, 0 3, 0 0))'))")
	r = e.MustExec("SELECT SUM(ST_Area(geo)) FROM landmarks").Rows[0]
	if math.Abs(r[0].Float-13) > 1e-9 {
		t.Errorf("total area = %v", r[0])
	}
}

func TestOrderByLimitOffset(t *testing.T) {
	e := newTestEngine(t)
	e.MustExec("INSERT INTO cities VALUES " +
		"(1, 'c', 300, NULL), (2, 'a', 100, NULL), (3, 'b', 200, NULL), (4, 'd', 400, NULL)")
	res := e.MustExec("SELECT name FROM cities ORDER BY pop DESC LIMIT 2 OFFSET 1")
	if len(res.Rows) != 2 || res.Rows[0][0].Text != "c" || res.Rows[1][0].Text != "b" {
		t.Errorf("rows = %v", res.Rows)
	}
	res = e.MustExec("SELECT name FROM cities ORDER BY name")
	if res.Rows[0][0].Text != "a" || res.Rows[3][0].Text != "d" {
		t.Errorf("sorted = %v", res.Rows)
	}
}

func TestUpdateDelete(t *testing.T) {
	e := newTestEngine(t)
	e.MustExec("INSERT INTO cities VALUES (1, 'x', 10, NULL), (2, 'y', 20, NULL), (3, 'z', 30, NULL)")
	res := e.MustExec("UPDATE cities SET pop = pop * 10 WHERE pop >= 20")
	if res.Affected != 2 {
		t.Fatalf("update affected = %d", res.Affected)
	}
	r := e.MustExec("SELECT SUM(pop) FROM cities").Rows[0]
	if r[0].Int != 10+200+300 {
		t.Errorf("sum after update = %v", r[0])
	}
	res = e.MustExec("DELETE FROM cities WHERE name = 'x'")
	if res.Affected != 1 {
		t.Fatalf("delete affected = %d", res.Affected)
	}
	if e.MustExec("SELECT COUNT(*) FROM cities").Rows[0][0].Int != 2 {
		t.Error("count after delete")
	}
}

func TestUpdateMaintainsIndexes(t *testing.T) {
	e := newTestEngine(t)
	e.MustExec("INSERT INTO cities VALUES (1, 'x', 10, ST_MakePoint(0, 0))")
	e.MustExec("CREATE SPATIAL INDEX cidx ON cities (loc)")
	e.MustExec("CREATE INDEX nidx ON cities (name)")
	e.MustExec("UPDATE cities SET loc = ST_MakePoint(100, 100), name = 'moved' WHERE id = 1")

	res := e.MustExec("SELECT id FROM cities WHERE ST_DWithin(loc, ST_MakePoint(100, 100), 1)")
	if len(res.Rows) != 1 {
		t.Errorf("index did not follow update: %v rows", len(res.Rows))
	}
	res = e.MustExec("SELECT id FROM cities WHERE ST_DWithin(loc, ST_MakePoint(0, 0), 1)")
	if len(res.Rows) != 0 {
		t.Errorf("stale spatial index entry: %v rows", len(res.Rows))
	}
	res = e.MustExec("SELECT id FROM cities WHERE name = 'moved'")
	if len(res.Rows) != 1 || res.Access[0] != "cities:btree-seek" {
		t.Errorf("attr index after update: rows=%d access=%v", len(res.Rows), res.Access)
	}
}

func TestProfileFunctionSurface(t *testing.T) {
	gaia := Open(GaiaDB())
	my := Open(MySpatial())
	if !gaia.SupportsFunction("ST_Relate") {
		t.Error("gaiadb should support ST_Relate")
	}
	if my.SupportsFunction("ST_Relate") {
		t.Error("myspatial must not support ST_Relate")
	}
	my.MustExec("CREATE TABLE t (g GEOMETRY)")
	if _, err := my.Exec("SELECT ST_Relate(g, g, 'T********') FROM t"); err == nil ||
		!strings.Contains(err.Error(), "not supported") {
		t.Errorf("expected unsupported-function error, got %v", err)
	}
}

func TestMBRProfileSemantics(t *testing.T) {
	// Diamonds whose MBRs overlap but shapes are disjoint: the MBR
	// engine counts them as intersecting, the exact engines do not.
	setup := func(e *Engine) {
		e.MustExec("CREATE TABLE shapes (id INTEGER, g GEOMETRY)")
		e.MustExec("INSERT INTO shapes VALUES " +
			"(1, ST_GeomFromText('POLYGON ((2 0, 4 2, 2 4, 0 2, 2 0))'))")
	}
	probe := "ST_GeomFromText('POLYGON ((5 3, 7 5, 5 7, 3 5, 5 3))')"

	exact := Open(GaiaDB())
	setup(exact)
	if n := len(exact.MustExec("SELECT id FROM shapes WHERE ST_Intersects(g, " + probe + ")").Rows); n != 0 {
		t.Errorf("exact engine found %d intersections, want 0", n)
	}
	approx := Open(MySpatial())
	setup(approx)
	if n := len(approx.MustExec("SELECT id FROM shapes WHERE ST_Intersects(g, " + probe + ")").Rows); n != 1 {
		t.Errorf("MBR engine found %d intersections, want 1", n)
	}
}

func TestGridProfileQueries(t *testing.T) {
	e := Open(CommerceDB())
	e.MustExec("CREATE TABLE landmarks (id INTEGER, name TEXT, geo GEOMETRY)")
	loadGrid(t, e, 8)
	e.MustExec("CREATE SPATIAL INDEX gidx ON landmarks (geo)")
	res := e.MustExec("SELECT COUNT(*) FROM landmarks WHERE ST_Intersects(geo, ST_MakeEnvelope(0, 0, 4.5, 4.5))")
	if res.Rows[0][0].Int != 9 {
		t.Errorf("grid-indexed count = %v", res.Rows[0][0])
	}
	if res.Access[0] != "landmarks:spatial-index" {
		t.Errorf("access = %v", res.Access)
	}
}

func TestDropSpatialIndex(t *testing.T) {
	e := newTestEngine(t)
	loadGrid(t, e, 4)
	e.MustExec("CREATE SPATIAL INDEX lidx ON landmarks (geo)")
	if !e.DropSpatialIndex("landmarks", "geo") {
		t.Fatal("drop reported missing index")
	}
	if e.DropSpatialIndex("landmarks", "geo") {
		t.Error("second drop reported success")
	}
	res := e.MustExec("SELECT COUNT(*) FROM landmarks WHERE ST_Intersects(geo, ST_MakeEnvelope(0,0,2,2))")
	if res.Access[0] != "landmarks:seqscan" {
		t.Errorf("access after drop = %v", res.Access)
	}
}

func TestSelectStarAndProjection(t *testing.T) {
	e := newTestEngine(t)
	e.MustExec("INSERT INTO cities VALUES (7, 'x', 10, ST_MakePoint(1, 2))")
	res := e.MustExec("SELECT * FROM cities")
	if len(res.Columns) != 4 || len(res.Rows[0]) != 4 {
		t.Fatalf("star select shape: %v", res.Columns)
	}
	res = e.MustExec("SELECT id * 2 AS double_id, UPPER(name) FROM cities")
	if res.Columns[0] != "double_id" {
		t.Errorf("alias = %v", res.Columns)
	}
	if res.Rows[0][0].Int != 14 || res.Rows[0][1].Text != "X" {
		t.Errorf("projection = %v", res.Rows[0])
	}
}

func TestCreateIndexErrors(t *testing.T) {
	e := newTestEngine(t)
	if _, err := e.Exec("CREATE SPATIAL INDEX i ON nosuch (g)"); err == nil {
		t.Error("index on missing table accepted")
	}
	if _, err := e.Exec("CREATE SPATIAL INDEX i ON cities (name)"); err == nil {
		t.Error("spatial index on text column accepted")
	}
	if _, err := e.Exec("CREATE INDEX i ON cities (loc)"); err == nil {
		t.Error("attr index on geometry column accepted")
	}
	if _, err := e.Exec("CREATE INDEX i ON cities (nosuchcol)"); err == nil {
		t.Error("index on missing column accepted")
	}
}

func TestConcurrentReaders(t *testing.T) {
	e := newTestEngine(t)
	loadGrid(t, e, 10)
	e.MustExec("CREATE SPATIAL INDEX lidx ON landmarks (geo)")
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(w int) {
			for i := 0; i < 50; i++ {
				q := fmt.Sprintf("SELECT COUNT(*) FROM landmarks WHERE ST_Intersects(geo, ST_MakeEnvelope(%d, %d, %d, %d))",
					w, w, w+6, w+6)
				if _, err := e.Exec(q); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestLimitZero pins LIMIT 0 returning no rows on every executor shape:
// the streaming scan used to emit one row before noticing the limit.
func TestLimitZero(t *testing.T) {
	e := newTestEngine(t)
	e.MustExec("INSERT INTO cities VALUES " +
		"(1, 'a', 10, ST_MakePoint(1, 1)), (2, 'b', 20, ST_MakePoint(2, 2)), (3, 'c', 30, ST_MakePoint(3, 3))")
	for _, q := range []string{
		"SELECT id FROM cities LIMIT 0",
		"SELECT id FROM cities ORDER BY id LIMIT 0",
		"SELECT id FROM cities ORDER BY ST_Distance(loc, ST_MakePoint(0, 0)) LIMIT 0",
		"SELECT id, COUNT(*) FROM cities GROUP BY id LIMIT 0",
		"SELECT id FROM cities LIMIT 0 OFFSET 2",
		"SELECT id FROM cities LIMIT 2 OFFSET 5",
	} {
		res := e.MustExec(q)
		if len(res.Rows) != 0 {
			t.Errorf("%s: got %d rows, want 0", q, len(res.Rows))
		}
	}
	res := e.MustExec("SELECT id FROM cities LIMIT 2 OFFSET 2")
	if len(res.Rows) != 1 {
		t.Errorf("LIMIT 2 OFFSET 2: got %d rows, want 1", len(res.Rows))
	}
}

// TestRecreatedTableRebindsColumns: a repeated SELECT text must bind
// against the table as it is now — after DROP and CREATE with the same
// column name at a different position, it returns the new row.
func TestRecreatedTableRebindsColumns(t *testing.T) {
	e := newTestEngine(t)
	e.MustExec("INSERT INTO cities VALUES (1, 'old', 10, NULL)")
	const q = "SELECT name FROM cities"
	if res := e.MustExec(q); res.Rows[0][0].Text != "old" {
		t.Fatalf("seed row = %v", res.Rows)
	}
	e.MustExec("DROP TABLE cities")
	e.MustExec("CREATE TABLE cities (name TEXT, id INTEGER)")
	e.MustExec("INSERT INTO cities VALUES ('new', 2)")
	res := e.MustExec(q)
	if len(res.Rows) != 1 || res.Rows[0][0].Text != "new" {
		t.Errorf("after recreate: rows = %v", res.Rows)
	}
}

// TestExplainFollowsIndexDDL: a repeated EXPLAIN text reflects every
// index change between executions — spatial CREATE INDEX,
// DropSpatialIndex and attribute CREATE INDEX.
func TestExplainFollowsIndexDDL(t *testing.T) {
	e := newTestEngine(t)
	loadGrid(t, e, 6)
	const q = "EXPLAIN SELECT id FROM landmarks WHERE ST_Intersects(geo, ST_MakeEnvelope(0,0,5,5))"
	access := func(q string) string { return e.MustExec(q).Rows[0][1].Text }
	if got := access(q); got != "seqscan" {
		t.Fatalf("pre-index access = %q", got)
	}
	e.MustExec("CREATE SPATIAL INDEX lidx ON landmarks (geo)")
	if got := access(q); got != "spatial-index" {
		t.Errorf("post-CREATE INDEX access = %q, want spatial-index", got)
	}
	if !e.DropSpatialIndex("landmarks", "geo") {
		t.Fatal("DropSpatialIndex reported no index")
	}
	if got := access(q); got != "seqscan" {
		t.Errorf("post-DropSpatialIndex access = %q, want seqscan", got)
	}

	e.MustExec("INSERT INTO cities VALUES (1, 'a', 10, NULL)")
	const cq = "EXPLAIN SELECT id FROM cities WHERE name = 'a'"
	if got := access(cq); got != "seqscan" {
		t.Fatalf("pre-index cities access = %q", got)
	}
	e.MustExec("CREATE INDEX cidx ON cities (name)")
	if got := access(cq); got != "btree-seek" {
		t.Errorf("post-CREATE INDEX cities access = %q, want btree-seek", got)
	}
}

// TestRepeatedWindowSeesWrites: a repeated window SELECT returns what
// the heap holds now — the new geometry after UPDATE, the right rows
// after VACUUM renumbers record ids, and no ghost rows after the table
// is dropped and recreated under the same name.
func TestRepeatedWindowSeesWrites(t *testing.T) {
	e := newTestEngine(t)
	loadGrid(t, e, 4) // cells at even coords in [0,8)
	const q = "SELECT id, ST_AsText(geo) FROM landmarks WHERE ST_Intersects(geo, ST_MakeEnvelope(0, 0, 2.5, 2.5)) ORDER BY id"
	ids := func() string {
		var out []int64
		for _, r := range e.MustExec(q).Rows {
			out = append(out, r[0].Int)
		}
		return fmt.Sprint(out)
	}
	if got := ids(); got != "[0 1 4 5]" {
		t.Fatalf("initial window = %s", got)
	}

	e.MustExec("UPDATE landmarks SET geo = ST_GeomFromText('POLYGON ((0 0, 0.5 0, 0.5 0.5, 0 0.5, 0 0))') WHERE id = 0")
	e.MustExec("UPDATE landmarks SET geo = ST_MakePoint(50, 50) WHERE id = 5")
	res := e.MustExec(q)
	if len(res.Rows) != 3 || res.Rows[0][1].Text != "POLYGON ((0 0, 0.5 0, 0.5 0.5, 0 0.5, 0 0))" {
		t.Fatalf("after UPDATE: rows = %v", res.Rows)
	}

	e.MustExec("DELETE FROM landmarks WHERE id < 4 AND id > 0")
	e.MustExec("VACUUM landmarks")
	if got := ids(); got != "[0 4]" {
		t.Errorf("after VACUUM: window = %s, want [0 4]", got)
	}

	e.MustExec("DROP TABLE landmarks")
	e.MustExec("CREATE TABLE landmarks (id INTEGER, name TEXT, geo GEOMETRY)")
	e.MustExec("INSERT INTO landmarks VALUES (7, 'x', ST_MakePoint(100, 100)), (8, 'y', ST_MakePoint(2, 2))")
	if got := ids(); got != "[8]" {
		t.Errorf("after DROP+CREATE+INSERT: window = %s, want [8]", got)
	}
}
