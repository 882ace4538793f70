package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"jackpine/internal/sql"
)

// sharedStmtFixture holds 300 outer points o, 10 apart on the x axis,
// and 600 inner points i, two per outer point at distance 1, with
// spatial indexes on both.
func sharedStmtFixture(t *testing.T) *Engine {
	t.Helper()
	e := Open(GaiaDB())
	e.MustExec("CREATE TABLE o (id INTEGER, v INTEGER, g GEOMETRY)")
	e.MustExec("CREATE TABLE i (id INTEGER, w INTEGER, g GEOMETRY)")
	var o, i []string
	for k := 1; k <= 300; k++ {
		o = append(o, fmt.Sprintf("(%d, %d, ST_MakePoint(%d, 0))", k, k%7, 10*k))
		i = append(i, fmt.Sprintf("(%d, %d, ST_MakePoint(%d, 1))", 2*k, k%5, 10*k),
			fmt.Sprintf("(%d, %d, ST_MakePoint(%d, -1))", 2*k+1, k%3, 10*k))
	}
	e.MustExec("INSERT INTO o VALUES " + strings.Join(o, ", "))
	e.MustExec("INSERT INTO i VALUES " + strings.Join(i, ", "))
	e.MustExec("CREATE SPATIAL INDEX og ON o (g)")
	e.MustExec("CREATE SPATIAL INDEX ig ON i (g)")
	return e
}

// TestSharedParsedStatement parses each statement of a mix once and
// runs the same trees from 8 goroutines at once through ExecParsed,
// under each join strategy: every run must return the rows of a serial
// run. Execution binds into a private tree and only reads the parsed
// one, so under -race any write to the shared tree is a reported race.
func TestSharedParsedStatement(t *testing.T) {
	queries := []string{
		// A spatial join whose projection reads a hoisted outer
		// ST_Buffer slot: index nested loop or PBSM by strategy.
		"SELECT o.id, i.id, ST_Area(ST_Buffer(o.g, 2)) FROM o JOIN i ON ST_DWithin(i.g, o.g, 2) WHERE o.v < 4",
		// A prepared literal window over a batched scan.
		"SELECT id FROM i WHERE ST_Intersects(g, ST_GeomFromText('POLYGON ((5 -5, 1500 -5, 1500 0.5, 5 5, 5 -5))'))",
		// Compiled comparisons.
		"SELECT id, w FROM i WHERE w = 3 AND id > 100",
		// GROUP BY with aggregate expressions.
		"SELECT w, COUNT(*) * 2 + 1, SUM(id) - MAX(id) FROM i GROUP BY w ORDER BY w",
		// kNN.
		"SELECT id FROM i ORDER BY ST_Distance(g, ST_MakePoint(1234, 3)) LIMIT 5",
		"EXPLAIN SELECT o.id, i.id FROM o JOIN i ON ST_Intersects(i.g, ST_Buffer(o.g, 2)) WHERE o.v = 3",
	}
	stmts := make([]sql.Statement, len(queries))
	for k, q := range queries {
		var err error
		if stmts[k], err = sql.Parse(q); err != nil {
			t.Fatal(err)
		}
	}
	render := func(res *sql.Result) string { return fmt.Sprint(res.Columns, res.Access, res.Rows) }
	for strat, label := range map[sql.JoinStrategy]string{sql.JoinINL: "i:inl(", sql.JoinPBSM: "i:pbsm("} {
		e := sharedStmtFixture(t)
		e.SetJoinStrategy(strat)
		want := make([]string, len(stmts))
		for k, st := range stmts {
			res, err := e.ExecParsed(st)
			if err != nil {
				t.Fatalf("%s: %v", queries[k], err)
			}
			if len(res.Rows) == 0 {
				t.Fatalf("%s: no rows; the statement proves nothing", queries[k])
			}
			want[k] = render(res)
		}
		if !strings.Contains(want[0], label) {
			t.Fatalf("join plan under %v is not %q: %s", strat, label, want[0])
		}
		if explain := want[len(want)-1]; !strings.Contains(explain, "hoisted stage=o ST_BUFFER(o.g, 2)") {
			t.Fatalf("EXPLAIN shows no hoisted outer buffer: %s", explain)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for round := 0; round < 2; round++ {
					for k, st := range stmts {
						res, err := e.ExecParsed(st)
						if err != nil {
							t.Errorf("%v, %s: %v", strat, queries[k], err)
							return
						}
						if got := render(res); got != want[k] {
							t.Errorf("%v, %s: concurrent run differs from the serial run\nwant %s\ngot  %s",
								strat, queries[k], want[k], got)
						}
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestShapeCacheShared runs statements of a few shapes, each with 12
// literal draws, from 8 goroutines at once through Exec on a cold
// engine: the goroutines race to build each shape's template, then
// share it, every hit a path copy of it. Every run must return the rows
// of a serial run of a fresh parse; under -race any write to a shared
// template is a reported race.
func TestShapeCacheShared(t *testing.T) {
	shapes := []string{
		"SELECT o.id, i.id FROM o JOIN i ON ST_DWithin(i.g, o.g, %d) WHERE o.v < %d",
		"SELECT id FROM i WHERE ST_Intersects(g, ST_GeomFromText('POLYGON ((5 -5, %d -5, %d 0.5, 5 5, 5 -5))'))",
		"SELECT id, w FROM i WHERE w = %d AND id > -%d",
		"SELECT id FROM i ORDER BY ST_Distance(g, ST_MakePoint(%d, -%d.5)) LIMIT 5",
		"EXPLAIN SELECT id FROM o WHERE v = %d AND id < %d",
	}
	var queries []string
	for _, s := range shapes {
		for k := 1; k <= 12; k++ {
			queries = append(queries, fmt.Sprintf(s, 2+k%3, 100*k+7))
		}
	}
	render := func(res *sql.Result) string { return fmt.Sprint(res.Columns, res.Access, res.Rows) }
	ref := sharedStmtFixture(t)
	want := make([]string, len(queries))
	for k, q := range queries {
		st, err := sql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ref.ExecParsed(st)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want[k] = render(res)
	}
	e := sharedStmtFixture(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 2; round++ {
				for k, q := range queries {
					res, err := e.Exec(q)
					if err != nil {
						t.Errorf("%s: %v", q, err)
						return
					}
					if got := render(res); got != want[k] {
						t.Errorf("%s: a run through the shape cache differs from a fresh parse's\nwant %s\ngot  %s", q, want[k], got)
					}
				}
			}
		}()
	}
	wg.Wait()
}
