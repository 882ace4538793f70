package jackpine

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"jackpine/internal/sql"
	"jackpine/internal/storage"
	"jackpine/internal/wire"
)

// newLoadedEngine loads the shared small dataset into a fresh engine.
func newLoadedEngine(t *testing.T, p Profile) *Engine {
	t.Helper()
	eng := OpenEngine(p)
	if err := LoadDataset(eng, testDataset(t), true); err != nil {
		t.Fatal(err)
	}
	return eng
}

var sharedTestDS *Dataset

func testDataset(t *testing.T) *Dataset {
	t.Helper()
	if sharedTestDS == nil {
		sharedTestDS = GenerateDataset(ScaleSmall, 1)
	}
	return sharedTestDS
}

func TestPublicAPIEndToEnd(t *testing.T) {
	eng := newLoadedEngine(t, GaiaDB())
	ctx := NewQueryContext(testDataset(t))

	results, err := RunMicro(Connect(eng), MicroSuite(), ctx, Options{Warmup: 0, Runs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 27 {
		t.Fatalf("micro results = %d", len(results))
	}
	var sb strings.Builder
	WriteMicroTable(&sb, results)
	if !strings.Contains(sb.String(), "MT1") {
		t.Error("table rendering broken")
	}

	macro := RunMacroSuite(Connect(eng), ctx, Options{Warmup: 0, Runs: 1})
	if len(macro) != 7 {
		t.Fatalf("macro results = %d", len(macro))
	}
	for _, r := range macro {
		if r.Err != nil {
			t.Errorf("%s: %v", r.ID, r.Err)
		}
	}
}

// TestEnginesAgreeOnExactAnalysis verifies the correctness invariant the
// benchmark relies on: non-windowed analysis queries return identical
// values on every engine (the profiles differ in predicates and
// indexing, never in measurement functions).
func TestEnginesAgreeOnExactAnalysis(t *testing.T) {
	queries := []string{
		"SELECT SUM(ST_Area(geo)) FROM arealm",
		"SELECT SUM(ST_Length(geo)) FROM edges",
		"SELECT SUM(ST_Area(ST_Envelope(geo))) FROM areawater",
		"SELECT COUNT(*) FROM parcels",
		"SELECT SUM(ST_NumPoints(geo)) FROM areawater",
	}
	var baseline []storage.Value
	for i, p := range AllProfiles() {
		eng := newLoadedEngine(t, p)
		var got []storage.Value
		for _, q := range queries {
			res, err := eng.Exec(q)
			if err != nil {
				t.Fatalf("%s: %s: %v", p.Name, q, err)
			}
			got = append(got, res.Rows[0][0])
		}
		if i == 0 {
			baseline = got
			continue
		}
		for j := range queries {
			bf, _ := baseline[j].AsFloat()
			gf, _ := got[j].AsFloat()
			if math.Abs(bf-gf) > 1e-6*math.Max(1, math.Abs(bf)) {
				t.Errorf("%s disagrees on %q: %v vs %v", p.Name, queries[j], got[j], baseline[j])
			}
		}
	}
}

// TestIndexedMatchesUnindexed verifies the planner invariant: access
// path selection never changes results on an exact engine.
func TestIndexedMatchesUnindexed(t *testing.T) {
	ds := testDataset(t)
	indexed := newLoadedEngine(t, GaiaDB())
	plain := OpenEngine(GaiaDB())
	if err := LoadDataset(plain, ds, false); err != nil {
		t.Fatal(err)
	}
	ctx := NewQueryContext(ds)
	for _, q := range TopologicalSuite() {
		sqlText := q.SQL(ctx, 3)
		ri, err := indexed.Exec(sqlText)
		if err != nil {
			t.Fatalf("%s (indexed): %v", q.ID, err)
		}
		rp, err := plain.Exec(sqlText)
		if err != nil {
			t.Fatalf("%s (plain): %v", q.ID, err)
		}
		if ri.Rows[0][0].Int != rp.Rows[0][0].Int {
			t.Errorf("%s: indexed count %v != seqscan count %v (access %v vs %v)",
				q.ID, ri.Rows[0][0], rp.Rows[0][0], ri.Access, rp.Access)
		}
	}
}

// TestIntKeysBeyondFloatPrecision runs an equality on an integer just
// past 2^53, where neighbouring ints share one float64, on a scan and
// through a B-tree seek. Both access paths, and the brute-force oracle
// (refexec), must return the same one row: the seek compares the
// encoded int64 keys exactly, so the scan's residual comparison must
// too.
func TestIntKeysBeyondFloatPrecision(t *testing.T) {
	const q = "SELECT id, tag FROM big WHERE id = 9007199254740992"
	for _, indexed := range []bool{false, true} {
		eng := OpenEngine(GaiaDB())
		eng.MustExec("CREATE TABLE big (id INTEGER, tag TEXT)")
		eng.MustExec("INSERT INTO big VALUES (9007199254740993, 'odd'), (9007199254740992, 'even'), " +
			"(9007199254740991, 'below'), (1, 'one')")
		if indexed {
			eng.MustExec("CREATE INDEX big_id ON big (id)")
		}
		res, err := eng.Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		if d := oracleDiff(eng, q, res.Rows, err); d != "" {
			t.Errorf("indexed=%v: %s", indexed, d)
		}
		wantAccess := "big:seqscan"
		if indexed {
			wantAccess = "big:btree-seek"
		}
		if len(res.Access) != 1 || res.Access[0] != wantAccess {
			t.Errorf("indexed=%v: access %v, want %s", indexed, res.Access, wantAccess)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].Int != 9007199254740992 || res.Rows[0][1].Text != "even" {
			t.Errorf("indexed=%v: rows %v, want [[9007199254740992 even]]", indexed, res.Rows)
		}
		eng.Close()
	}
}

// TestNaNOrdersAfterNumbers stores a NaN beside two numbers and runs
// comparisons against numbers and against NaN on a scan, through a
// B-tree seek and range, and as a join key. Every path, and the
// brute-force oracle (refexec), must follow one rule, PostgreSQL's: NaN
// sorts after every number and equals only NaN.
func TestNaNOrdersAfterNumbers(t *testing.T) {
	const nan = "SQRT(-1.0)"
	checkFloatKeyPaths(t, "(1, 1.0), (3, "+nan+"), (2, 7.0)", []floatKeyCase{
		{"x = 1.0", "[1]"},
		{"x < 7.0", "[1]"},
		{"x > 1.0", "[2 3]"},
		{"x >= 1.0", "[1 2 3]"},
		{"x <= 7.0", "[1 2]"},
		{"x = " + nan, "[3]"},
		{"x < " + nan, "[1 2]"},
		{"x > " + nan, "[]"},
		{"x >= " + nan, "[3]"},
		{"x <= " + nan, "[1 2 3]"},
		{"SQRT(0.0 - x) = 3", "[]"},
	}, "[1 2 3]", "[1-1 2-2 3-3]")
}

// TestNegativeZeroEqualsZero stores 0.0 and -0.0 beside a number: on
// every path the two zeros are one value, as storage.Compare has them.
func TestNegativeZeroEqualsZero(t *testing.T) {
	checkFloatKeyPaths(t, "(1, 0.0), (2, -0.0), (3, 1.0)", []floatKeyCase{
		{"x = 0.0", "[1 2]"},
		{"x = -0.0", "[1 2]"},
		{"x < 0.0", "[]"},
		{"x <= -0.0", "[1 2]"},
		{"x > -0.0", "[3]"},
		{"x >= 0.0", "[1 2 3]"},
	}, "[1 2 3]", "[1-1 1-2 2-1 2-2 3-3]")
}

// floatKeyCase is a WHERE clause over table f and the ids it selects.
type floatKeyCase struct {
	where string
	want  string
}

// checkFloatKeyPaths loads rows into f (id INTEGER, x REAL) and requires
// every case, ORDER BY x (ties by id) and the self-join on x to return
// the same ids on a scan and through a B-tree on x, and the brute-force
// oracle (refexec) to admit them; unindexed, the plain join on x is a
// hash join.
func checkFloatKeyPaths(t *testing.T, rows string, cases []floatKeyCase, order, join string) {
	t.Helper()
	ids := func(res *sql.Result, cols int) string {
		var out []string
		for _, r := range res.Rows {
			s := strconv.FormatInt(r[0].Int, 10)
			if cols == 2 {
				s += "-" + strconv.FormatInt(r[1].Int, 10)
			}
			out = append(out, s)
		}
		return "[" + strings.Join(out, " ") + "]"
	}
	exec := func(eng *Engine, q string) *sql.Result {
		t.Helper()
		res, err := eng.Exec(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if d := oracleDiff(eng, q, res.Rows, err); d != "" {
			t.Errorf("%s: %s", q, d)
		}
		return res
	}
	for _, indexed := range []bool{false, true} {
		eng := OpenEngine(GaiaDB())
		eng.MustExec("CREATE TABLE f (id INTEGER, x REAL)")
		eng.MustExec("INSERT INTO f VALUES " + rows)
		if indexed {
			eng.MustExec("CREATE INDEX f_x ON f (x)")
		}
		for _, c := range cases {
			res := exec(eng, "SELECT id FROM f WHERE "+c.where+" ORDER BY id")
			if got := ids(res, 1); got != c.want {
				t.Errorf("indexed=%v %s: ids %s, want %s (access %v)",
					indexed, c.where, got, c.want, res.Access)
			}
		}
		res := exec(eng, "SELECT id FROM f ORDER BY x, id")
		if got := ids(res, 1); got != order {
			t.Errorf("indexed=%v ORDER BY x: ids %s, want %s", indexed, got, order)
		}
		for _, on := range []string{"b.x = a.x", "b.x + 0 = a.x + 0"} {
			res := exec(eng, "SELECT a.id, b.id FROM f a JOIN f b ON "+on+" ORDER BY a.id, b.id")
			if got := ids(res, 2); got != join {
				t.Errorf("indexed=%v ON %s: pairs %s, want %s (access %v)",
					indexed, on, got, join, res.Access)
			}
			if !indexed && on == "b.x = a.x" && res.Access[1] != "b:hash" {
				t.Errorf("ON %s: access %v, want a hash join", on, res.Access)
			}
		}
		eng.Close()
	}
}

// TestExactEnginesAgreeOnTopology verifies that the two exact-semantics
// profiles (R-tree vs grid index) return identical results for every
// topological micro query across several probe iterations — the index
// family must never change answers.
func TestExactEnginesAgreeOnTopology(t *testing.T) {
	gaia := newLoadedEngine(t, GaiaDB())
	commerce := newLoadedEngine(t, CommerceDB())
	ctx := NewQueryContext(testDataset(t))
	for _, q := range TopologicalSuite() {
		for iter := 0; iter < 3; iter++ {
			sqlText := q.SQL(ctx, iter)
			rg, errG := gaia.Exec(sqlText)
			rc, errC := commerce.Exec(sqlText)
			// Feature gaps differ per profile: only compare queries both
			// engines support.
			if errG != nil || errC != nil {
				continue
			}
			if rg.Rows[0][0].Int != rc.Rows[0][0].Int {
				t.Errorf("%s iter %d: gaiadb=%v commercedb=%v (access %v vs %v)",
					q.ID, iter, rg.Rows[0][0], rc.Rows[0][0], rg.Access, rc.Access)
			}
		}
	}
}

// TestRemoteMatchesLocal verifies the wire transport returns the same
// results as in-process execution.
func TestRemoteMatchesLocal(t *testing.T) {
	eng := newLoadedEngine(t, GaiaDB())
	srv := wire.NewServer(eng)
	srv.Logf = t.Logf
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	local, _ := Connect(eng).Connect()
	remote, err := ConnectRemote(addr, "remote-test").Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	defer remote.Close()

	queries := []string{
		"SELECT COUNT(*) FROM edges",
		"SELECT id, name FROM pointlm WHERE ST_Intersects(geo, ST_MakeEnvelope(0, 0, 600, 600)) ORDER BY id LIMIT 5",
		"SELECT SUM(ST_Area(geo)) FROM arealm",
	}
	for _, q := range queries {
		lr, err := local.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		rr, err := remote.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(lr.Rows) != len(rr.Rows) {
			t.Fatalf("%q: row counts differ %d vs %d", q, len(lr.Rows), len(rr.Rows))
		}
		for i := range lr.Rows {
			for j := range lr.Rows[i] {
				if lr.Rows[i][j].String() != rr.Rows[i][j].String() {
					t.Errorf("%q row %d col %d: %v vs %v", q, i, j, lr.Rows[i][j], rr.Rows[i][j])
				}
			}
		}
	}
}

// TestLoadDatasetConn loads through the generic driver path.
func TestLoadDatasetConn(t *testing.T) {
	eng := OpenEngine(CommerceDB())
	conn, err := Connect(eng).Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := LoadDatasetConn(conn, testDataset(t), true); err != nil {
		t.Fatal(err)
	}
	rs, err := conn.Query("SELECT COUNT(*) FROM parcels")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0][0].Int != int64(len(testDataset(t).Parcels)) {
		t.Errorf("parcel count = %v", rs.Rows[0][0])
	}
}

// TestProfilesExposeExpectedShape sanity-checks the facade constructors.
func TestProfilesExposeExpectedShape(t *testing.T) {
	ps := AllProfiles()
	if len(ps) != 3 {
		t.Fatalf("profiles = %d", len(ps))
	}
	if !MySpatial().MBRPredicates || GaiaDB().MBRPredicates || CommerceDB().MBRPredicates {
		t.Error("MBR flags wrong")
	}
	if GaiaDB().Name != "gaiadb" || MySpatial().Name != "myspatial" || CommerceDB().Name != "commercedb" {
		t.Error("profile names wrong")
	}
}
