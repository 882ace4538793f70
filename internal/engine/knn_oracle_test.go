package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"jackpine/internal/sql"
	"jackpine/internal/sql/refexec"
	"jackpine/internal/storage"
)

// knnOracleRows returns INSERT statements for n random rows of
// (id, name, g): points on an integer lattice (so distances tie), short
// lines and small polygons, some outside the 0..100 extent the first
// rows span; with dirty set, NULL and empty geometries too.
func knnOracleRows(seed int64, n int, dirty bool) []string {
	rnd := rand.New(rand.NewSource(seed))
	c := func(lo, span int) int { return lo + rnd.Intn(span) }
	var out []string
	for i := 0; i < n; i++ {
		lo, span := 0, 100
		if i >= n/2 {
			lo, span = -20, 140 // inserted after the index: grid overflow
		}
		x, y := c(lo, span), c(lo, span)
		var g string
		switch k := rnd.Intn(10); {
		case dirty && k == 0:
			g = "NULL"
		case dirty && k == 1:
			g = "ST_GeomFromText('POINT EMPTY')"
		case k < 6:
			g = fmt.Sprintf("ST_MakePoint(%d, %d)", x, y)
		case k < 8:
			g = fmt.Sprintf("ST_GeomFromText('LINESTRING(%d %d, %d %d, %d %d)')", x, y, x+c(-9, 19), y+c(-9, 19), x+c(-9, 19), y)
		default:
			w, h := c(1, 8), c(1, 8)
			g = fmt.Sprintf("ST_GeomFromText('POLYGON((%d %d, %d %d, %d %d, %d %d, %d %d))')", x, y, x+w, y, x+w, y+h, x, y+h, x, y)
		}
		out = append(out, fmt.Sprintf("INSERT INTO t VALUES (%d, '%c', %s)", i, "abc"[rnd.Intn(3)], g))
	}
	return out
}

// knnUnusableProbes are the probes no kNN source browses from, since
// they are not non-empty geometries: an empty geometry, NULL and a TEXT
// value.
var knnUnusableProbes = []string{"ST_GeomFromText('LINESTRING EMPTY')", "NULL", "'POINT(1 1)'"}

// knnOracleProbes are the probes the oracle ranks rows against: points
// (lattice and fractional), lines and polygons inside and outside the
// data, and the unusable probes.
func knnOracleProbes(seed int64) []string {
	rnd := rand.New(rand.NewSource(seed))
	f := func() float64 { return float64(rnd.Intn(1600))/10 - 30 }
	probes := slices.Clone(knnUnusableProbes)
	for i := 0; i < 8; i++ {
		x, y := f(), f()
		probes = append(probes,
			fmt.Sprintf("ST_MakePoint(%d, %d)", int(x), int(y)),
			fmt.Sprintf("ST_MakePoint(%g, %g)", x, y),
			fmt.Sprintf("ST_GeomFromText('LINESTRING(%g %g, %g %g)')", x, y, f(), f()),
			fmt.Sprintf("ST_GeomFromText('POLYGON((%g %g, %g %g, %g %g, %g %g))')", x, y, x+9, y, x+4, y+7, x, y))
	}
	return probes
}

// knnQuery is one kNN-shaped query and its sort form, which orders by
// ST_Distance(...) + 0 and so never matches the kNN shape, with the
// WHERE clause, the k = offset+limit and whether the probe is usable,
// which its plan depends on.
type knnQuery struct {
	KNN, Sorted, Where string
	K                  int
	Usable             bool
}

// knnOracleQueries builds every kNN-shaped query over the probes: no
// filter, filters no index drives, and equality and range filters an
// index on name or id drives, matching about a third of the rows, one
// row, none and a fifth.
func knnOracleQueries(probes []string) []knnQuery {
	filters := []string{"", "WHERE name = 'b' ", "WHERE id % 3 <> 0 ",
		"WHERE id = 17 ", "WHERE name = 'zz' ", "WHERE id BETWEEN 10 AND 60 "}
	windows := []struct {
		sql string
		k   int
	}{{"LIMIT 1", 1}, {"LIMIT 5", 5}, {"LIMIT 3 OFFSET 2", 5}, {"LIMIT 0", 0}, {"LIMIT 200 OFFSET 90", 290}}
	var qs []knnQuery
	for _, p := range probes {
		for _, f := range filters {
			for _, w := range windows {
				d := fmt.Sprintf("ST_Distance(g, %s)", p)
				base := fmt.Sprintf("SELECT id, %s FROM t %sORDER BY %s", d, f, d)
				qs = append(qs, knnQuery{KNN: base + " " + w.sql, Sorted: base + " + 0 " + w.sql, Where: f, K: w.k,
					Usable: !slices.Contains(knnUnusableProbes, p)})
			}
		}
	}
	return qs
}

// knnOracleTable creates table t of n oracle rows through exec, with a
// spatial index on g and, when indexed is set, B-tree indexes on name
// and id, all created halfway through the inserts so the second half
// goes through index maintenance.
func knnOracleTable(exec func(string), n int, dirty, indexed bool) {
	exec("CREATE TABLE t (id INTEGER, name TEXT, g GEOMETRY)")
	stmts := knnOracleRows(11, n, dirty)
	for i, s := range stmts {
		if i == len(stmts)/2 {
			exec("CREATE SPATIAL INDEX t_g ON t (g)")
			if indexed {
				exec("CREATE INDEX t_name ON t (name)")
				exec("CREATE INDEX t_id ON t (id)")
			}
		}
		exec(s)
	}
}

// knnPredictedPath is the plan the browse-or-seek rule gives a kNN
// query on engine e over n rows: the sort form's path when the table
// holds NULL or empty geometries or the probe is unusable, knn over a
// full scan, and over an index path matching m rows knn only when
// m >= ceil(sqrt(k*n)).
func knnPredictedPath(e *Engine, q knnQuery, n int, dirty bool) string {
	path := e.MustExec("EXPLAIN " + q.Sorted).Rows[0][1].String()
	switch {
	case dirty || !q.Usable:
		return path
	case path == "seqscan":
		return "knn"
	}
	m := e.MustExec("SELECT COUNT(*) FROM t " + q.Where).Rows[0][0].Int
	if float64(m) >= math.Ceil(math.Sqrt(float64(q.K*n))) {
		return "knn"
	}
	return path
}

// knnDisagreement compares a kNN result with its sort form's on error
// text, row count and the distance sequence (column 1); ties may list
// different rows. It returns "" when they agree.
func knnDisagreement(rows [][]string, err error, wantRows [][]string, wantErr error) string {
	if (err == nil) != (wantErr == nil) || err != nil && !strings.Contains(err.Error(), wantErr.Error()) {
		return fmt.Sprintf("error %v, sort form %v", err, wantErr)
	}
	if len(rows) != len(wantRows) {
		return fmt.Sprintf("%d rows, sort form %d", len(rows), len(wantRows))
	}
	for i := range rows {
		if rows[i][1] != wantRows[i][1] {
			return fmt.Sprintf("row %d at distance %s, sort form %s", i, rows[i][1], wantRows[i][1])
		}
	}
	return ""
}

// renderRows renders result rows as text.
func renderRows(rows [][]storage.Value) [][]string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		for _, v := range r {
			out[i] = append(out[i], v.String())
		}
	}
	return out
}

func resultRows(res *sql.Result) [][]string {
	if res == nil {
		return nil
	}
	return renderRows(res.Rows)
}

// TestKNNMatchesSort runs every kNN-shaped query against its sort form on
// both index kinds, over a table whose geometries are all indexed (the
// plan is knn) and one holding NULL and empty geometries (the plan
// declines), each with and without B-tree indexes on name and id (the
// plan browses or seeks by the rule), and requires the predicted plan,
// an executed access label equal to EXPLAIN's and the same rows,
// distances and errors. An unusable probe runs the sort form's plan,
// so its rows must match whole, ids and order included. The brute-force
// oracle (refexec) must admit every result and fail with the same
// error text.
func TestKNNMatchesSort(t *testing.T) {
	const n = 240
	qs := knnOracleQueries(knnOracleProbes(7))
	for _, prof := range []Profile{GaiaDB(), CommerceDB()} {
		for _, v := range knnOracleVariants {
			e := Open(prof, WithParallelism(2))
			knnOracleTable(func(s string) { e.MustExec(s) }, n, v.Dirty, v.Indexed)
			bad, badPlan := 0, 0
			for _, q := range qs {
				if want, got := knnPredictedPath(e, q, n, v.Dirty), e.MustExec("EXPLAIN " + q.KNN).Rows[0][1].String(); got != want {
					if badPlan++; badPlan <= 5 {
						t.Errorf("%s %+v: %s plans %s, want %s", prof.Name, v, q.KNN, got, want)
					}
				}
				res, err := e.Exec(q.KNN)
				want, wantErr := e.Exec(q.Sorted)
				d := knnDisagreement(resultRows(res), err, resultRows(want), wantErr)
				if d == "" && !q.Usable && fmt.Sprint(resultRows(res)) != fmt.Sprint(resultRows(want)) {
					d = "rows differ from the sort form's"
				}
				if d == "" {
					d = accessMismatch(e, q.KNN, res)
				}
				if d == "" {
					d = oracleDisagreement(e, q.KNN, res, err)
				}
				if d != "" {
					if bad++; bad <= 5 {
						t.Errorf("%s %+v: %s: %s", prof.Name, v, q.KNN, d)
					}
				}
			}
			if bad+badPlan > 0 {
				t.Errorf("%s %+v: of %d kNN queries, %d disagree with the sort form and %d plan otherwise than predicted",
					prof.Name, v, len(qs), bad, badPlan)
			}
		}
	}
}

// oracleDisagreement describes how a statement's result or error
// differs from what the brute-force oracle admits; it returns "" when
// they agree.
func oracleDisagreement(e *Engine, query string, res *sql.Result, err error) string {
	want, wantErr := refexec.Run(e, e.reg, query)
	switch {
	case err != nil || wantErr != nil:
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			return fmt.Sprintf("error %v, oracle %v", err, wantErr)
		}
	case want.Admits(res.Rows) != nil:
		return "oracle: " + want.Admits(res.Rows).Error()
	}
	return ""
}

// accessMismatch describes how an executed statement's access labels
// differ from its EXPLAIN's; it returns "" when they agree or the
// statement failed.
func accessMismatch(e *Engine, query string, res *sql.Result) string {
	if res == nil {
		return ""
	}
	plan := e.MustExec("EXPLAIN " + query).Rows
	for i, got := range res.Access {
		if want := plan[i][0].String() + ":" + plan[i][1].String(); got != want {
			return fmt.Sprintf("ran %s, EXPLAIN says %s", got, want)
		}
	}
	return ""
}

// knnOracleVariants are the oracle's tables: clean or holding NULL and
// empty geometries, with or without B-tree indexes on name and id.
var knnOracleVariants = []struct{ Dirty, Indexed bool }{
	{false, false}, {true, false}, {false, true}, {true, true},
}
