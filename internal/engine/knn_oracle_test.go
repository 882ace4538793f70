package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"jackpine/internal/sql"
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

// knnOracleProbes are the probes the oracle ranks rows against: points
// (lattice and fractional), lines and polygons inside and outside the
// data, an empty geometry, NULL and a TEXT value.
func knnOracleProbes(seed int64) []string {
	rnd := rand.New(rand.NewSource(seed))
	f := func() float64 { return float64(rnd.Intn(1600))/10 - 30 }
	probes := []string{"ST_GeomFromText('LINESTRING EMPTY')", "NULL", "'POINT(1 1)'"}
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

// knnOracleQueries pairs each kNN-shaped query with its sort form, which
// orders by ST_Distance(...) + 0 and so never matches the kNN shape.
func knnOracleQueries(probes []string) (knn, sorted []string) {
	filters := []string{"", "WHERE name = 'b' ", "WHERE id % 3 <> 0 "}
	windows := []string{"LIMIT 1", "LIMIT 5", "LIMIT 3 OFFSET 2", "LIMIT 0", "LIMIT 200 OFFSET 90"}
	for _, p := range probes {
		for _, f := range filters {
			for _, w := range windows {
				d := fmt.Sprintf("ST_Distance(g, %s)", p)
				base := fmt.Sprintf("SELECT id, %s FROM t %sORDER BY %s", d, f, d)
				knn = append(knn, base+" "+w)
				sorted = append(sorted, base+" + 0 "+w)
			}
		}
	}
	return knn, sorted
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
// declines to a full scan), and requires the same rows, distances and
// errors.
func TestKNNMatchesSort(t *testing.T) {
	knn, sorted := knnOracleQueries(knnOracleProbes(7))
	for _, prof := range []Profile{GaiaDB(), CommerceDB()} {
		for _, dirty := range []bool{false, true} {
			e := Open(prof, WithParallelism(2))
			e.MustExec("CREATE TABLE t (id INTEGER, name TEXT, g GEOMETRY)")
			stmts := knnOracleRows(11, 240, dirty)
			for i, s := range stmts {
				if i == len(stmts)/2 {
					e.MustExec("CREATE SPATIAL INDEX t_g ON t (g)")
				}
				e.MustExec(s)
			}
			wantPath := "knn"
			if dirty {
				wantPath = "seqscan"
			}
			if path := e.MustExec("EXPLAIN " + knn[len(knn)-1]).Rows[0][1].String(); path != wantPath {
				t.Errorf("%s (dirty=%v): the kNN form plans %s, want %s", prof.Name, dirty, path, wantPath)
			}
			bad := 0
			for i := range knn {
				res, err := e.Exec(knn[i])
				want, wantErr := e.Exec(sorted[i])
				if d := knnDisagreement(resultRows(res), err, resultRows(want), wantErr); d != "" {
					if bad++; bad <= 5 {
						t.Errorf("%s (dirty=%v): %s: %s", prof.Name, dirty, knn[i], d)
					}
				}
			}
			if bad > 0 {
				t.Errorf("%s (dirty=%v): %d of %d kNN queries disagree with the sort form", prof.Name, dirty, bad, len(knn))
			}
		}
	}
}
