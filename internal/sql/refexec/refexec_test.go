package refexec_test

import (
	"fmt"
	"testing"

	"jackpine/internal/engine"
	"jackpine/internal/sql"
	"jackpine/internal/sql/refexec"
	"jackpine/internal/storage"
)

// TestAdmitsOnlyOpenChoices pins what the oracle leaves open and what it
// does not: over six rows whose sort key ties in pairs, any order within
// a tie and any tied row where a LIMIT cuts a tie pass, and so does any
// row of its group for a grouped row's plain column; a row from outside
// the tie, a wrong aggregate, a missing or an extra row fail. The
// oracle's own answers must match the engine's where the statement
// fixes them, errors included.
func TestAdmitsOnlyOpenChoices(t *testing.T) {
	e := engine.Open(engine.GaiaDB(), engine.WithParallelism(1))
	e.MustExec("CREATE TABLE t (id INTEGER, k INTEGER, g GEOMETRY)")
	e.MustExec("INSERT INTO t VALUES (1, 10, ST_MakePoint(0, 0)), (2, 20, ST_MakePoint(1, 0)), " +
		"(3, 10, ST_MakePoint(2, 0)), (4, 30, NULL), (5, 20, ST_MakePoint(4, 0)), (6, 30, ST_MakePoint(5, 0))")
	reg := sql.NewRegistry(sql.RegistryOptions{})
	ints := func(vals ...int64) [][]storage.Value {
		var rows [][]storage.Value
		for _, v := range vals {
			rows = append(rows, []storage.Value{storage.NewInt(v)})
		}
		return rows
	}
	grouped := func(k, id, n int64) []storage.Value {
		return []storage.Value{storage.NewInt(k), storage.NewInt(id), storage.NewInt(n)}
	}
	cases := []struct {
		query string
		rows  [][]storage.Value
		ok    bool
	}{
		{"SELECT id FROM t ORDER BY k", ints(1, 3, 2, 5, 4, 6), true},
		{"SELECT id FROM t ORDER BY k", ints(3, 1, 5, 2, 6, 4), true},
		{"SELECT id FROM t ORDER BY k", ints(1, 2, 3, 5, 4, 6), false},
		{"SELECT id FROM t ORDER BY k LIMIT 3", ints(3, 1, 5), true},
		{"SELECT id FROM t ORDER BY k LIMIT 3", ints(3, 1, 4), false},
		{"SELECT id FROM t ORDER BY k DESC LIMIT 1 OFFSET 1", ints(4), true},
		{"SELECT id FROM t ORDER BY k DESC LIMIT 1 OFFSET 1", ints(5), false},
		{"SELECT id FROM t WHERE k = 20", ints(5, 2), true},
		{"SELECT id FROM t WHERE k = 20", ints(5), false},
		{"SELECT id FROM t WHERE k = 20", ints(5, 2, 2), false},
		{"SELECT id FROM t LIMIT 2", ints(6, 4), true},
		{"SELECT k, id, COUNT(*) FROM t GROUP BY k", [][]storage.Value{grouped(30, 6, 2), grouped(10, 3, 2), grouped(20, 2, 2)}, true},
		{"SELECT k, id, COUNT(*) FROM t GROUP BY k", [][]storage.Value{grouped(30, 6, 2), grouped(10, 5, 2), grouped(20, 2, 2)}, false},
		{"SELECT k, id, COUNT(*) FROM t GROUP BY k", [][]storage.Value{grouped(30, 6, 1), grouped(10, 3, 2), grouped(20, 2, 2)}, false},
		{"SELECT COUNT(g), SUM(id), MIN(k), MAX(id) FROM t WHERE id > 1", [][]storage.Value{
			{storage.NewInt(4), storage.NewInt(20), storage.NewInt(10), storage.NewInt(6)}}, true},
	}
	for _, c := range cases {
		res, err := refexec.Run(e, reg, c.query)
		if err != nil {
			t.Fatalf("%s: %v", c.query, err)
		}
		if err := res.Admits(c.rows); (err == nil) != c.ok {
			t.Errorf("%s: Admits(%v) = %v, want ok %v", c.query, c.rows, err, c.ok)
		}
		if got := e.MustExec(c.query); res.Admits(got.Rows) != nil {
			t.Errorf("%s: the engine's rows %v are not admitted: %v", c.query, got.Rows, res.Admits(got.Rows))
		}
	}
	for _, q := range []string{
		"SELECT id FROM t WHERE k = 'x'",
		"SELECT SUM(g) FROM t",
		"SELECT id FROM nowhere",
		"SELECT k, COUNT(*) FROM t GROUP BY k ORDER BY id",
		"SELECT ST_Area(k) FROM t ORDER BY id LIMIT 1",
	} {
		_, err := refexec.Run(e, reg, q)
		_, want := e.Exec(q)
		if err == nil || fmt.Sprint(err) != fmt.Sprint(want) {
			t.Errorf("%s: oracle error %v, engine error %v", q, err, want)
		}
	}
}
