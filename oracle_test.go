package jackpine

import (
	"fmt"
	"sync"
	"testing"

	"jackpine/internal/sql"
	"jackpine/internal/sql/refexec"
	"jackpine/internal/storage"
)

// gaiaReg is the function registry of the GaiaDB profile, the one the
// rails run the brute-force oracle (refexec) with. Its ST_BUFFER
// remembers its last arguments and result: the oracle evaluates a join
// conjunct such as ST_Intersects(p.geo, ST_Buffer(w.geo, 40)) on every
// pair of rows, so the outer row's buffer, the rails' slowest kernel,
// repeats once per inner row.
var gaiaReg = func() *sql.Registry {
	reg, plain := sql.NewRegistry(sql.RegistryOptions{}), sql.NewRegistry(sql.RegistryOptions{})
	var mu sync.Mutex
	var lastKey string
	var last storage.Value
	var lastErr error
	reg.Register("ST_BUFFER", func(args []storage.Value) (storage.Value, error) {
		key := fmt.Sprintf("%q", args)
		mu.Lock()
		defer mu.Unlock()
		if key != lastKey {
			lastKey = key
			last, lastErr = plain.Call("ST_BUFFER", args)
		}
		return last, lastErr
	})
	return reg
}()

// oracleDiff compares a SELECT's rows or error on eng with the
// brute-force oracle over eng's tables: the same error text, or rows the
// oracle admits. It returns "" when they agree.
func oracleDiff(eng *Engine, query string, rows [][]storage.Value, err error) string {
	want, wantErr := refexec.Run(eng, gaiaReg, query)
	switch {
	case err != nil || wantErr != nil:
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			return fmt.Sprintf("error %v, oracle %v", err, wantErr)
		}
	default:
		if err := want.Admits(rows); err != nil {
			return "oracle: " + err.Error()
		}
	}
	return ""
}

// oracleExec runs one statement on eng, checks it against the oracle
// and returns its canonical result: rows or error text, or the affected
// count. A SELECT must agree with oracleDiff. An UPDATE or DELETE must
// affect as many rows as the oracle selects by its WHERE clause just
// before it runs, and fail as that selection fails, if it does.
func oracleExec(t *testing.T, eng *Engine, query string) string {
	t.Helper()
	stmt, err := sql.Parse(query)
	if err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	var table string
	var where sql.Expr
	switch s := stmt.(type) {
	case *sql.Update:
		table, where = s.Table, s.Where
	case *sql.Delete:
		table, where = s.Table, s.Where
	}
	var sel *refexec.Result
	var selErr error
	if table != "" {
		q := "SELECT * FROM " + table
		if where != nil {
			q += " WHERE " + where.String()
		}
		sel, selErr = refexec.Run(eng, gaiaReg, q)
	}
	res, err := eng.Exec(query)
	switch {
	case table == "":
		var rows [][]storage.Value
		if res != nil {
			rows = res.Rows
		}
		if d := oracleDiff(eng, query, rows, err); d != "" {
			t.Errorf("%s: %s", query, d)
		}
	case err != nil && selErr != nil && err.Error() != selErr.Error():
		t.Errorf("%s: error %v, the oracle's selection fails with %v", query, err, selErr)
	case err == nil && selErr != nil:
		t.Errorf("%s: succeeds, the oracle's selection fails with %v", query, selErr)
	case err == nil && res.Affected != len(sel.Rows):
		t.Errorf("%s: %d rows affected, the oracle selects %d", query, res.Affected, len(sel.Rows))
	}
	return execResult(res, err)
}

// execResult renders a statement's outcome canonically: its error text,
// its affected count or its rows.
func execResult(res *sql.Result, err error) string {
	switch {
	case err != nil:
		return "error: " + err.Error()
	case res.Columns == nil:
		return fmt.Sprintf("affected %d", res.Affected)
	}
	return canonRows(&ResultSet{Columns: res.Columns, Rows: res.Rows})
}

// oracleConn checks every query it passes on against the oracle over
// eng's tables.
type oracleConn struct {
	Conn
	eng *Engine
	t   *testing.T
}

func (c oracleConn) Query(q string) (*ResultSet, error) {
	rs, err := c.Conn.Query(q)
	var rows [][]storage.Value
	if rs != nil {
		rows = rs.Rows
	}
	if d := oracleDiff(c.eng, q, rows, err); d != "" {
		c.t.Errorf("%s: %s", q, d)
	}
	return rs, err
}
