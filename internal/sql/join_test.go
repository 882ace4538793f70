package sql_test

import (
	"fmt"
	"strings"
	"testing"

	"jackpine/internal/engine"
	"jackpine/internal/sql"
)

// innerCountingCatalog hands out the named inner table wrapped in a
// countingTable and every other table as it is, so the counts see only
// the inner side of a join.
type innerCountingCatalog struct {
	sql.Catalog
	inner string
	n     *accessCounts
}

func (c innerCountingCatalog) Table(name string) (sql.Table, bool) {
	t, ok := c.Catalog.Table(name)
	if ok && name == c.inner {
		return countingTable{t, c.n}, true
	}
	return t, ok
}

// TestJoinOpensOnFirstProbe: a hash or PBSM join stage builds its inner
// side on the first probe, so a statement whose outer side yields no
// rows never scans the inner table, serial or parallel; one whose outer
// side yields rows scans it once.
func TestJoinOpensOnFirstProbe(t *testing.T) {
	cases := []struct {
		name, join, label string
		strategy          sql.JoinStrategy
	}{
		{"hash", "i.oid = o.id", "i:hash", sql.JoinAuto},
		{"pbsm", "ST_Intersects(i.g, o.g)", "i:pbsm", sql.JoinPBSM},
	}
	for _, par := range []int{1, 2} {
		for _, c := range cases {
			var n accessCounts
			run := sql.NewRunner(innerCountingCatalog{engine.Open(engine.GaiaDB()), "i", &n},
				sql.NewRegistry(sql.RegistryOptions{}))
			run.SetParallelism(par)
			run.SetJoinStrategy(c.strategy)
			mustRun := func(q string) *sql.Result {
				t.Helper()
				res, err := run.Run(q)
				if err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				return res
			}
			mustRun("CREATE TABLE o (id INTEGER, v INTEGER, g GEOMETRY)")
			mustRun("CREATE TABLE i (id INTEGER, oid INTEGER, g GEOMETRY)")
			var o, i []string
			for k := 0; k < 300; k++ {
				o = append(o, fmt.Sprintf("(%d, %d, ST_MakePoint(%d, 0))", k, k%5, k))
				i = append(i, fmt.Sprintf("(%d, %d, ST_MakePoint(%d, 0))", k, k, k))
			}
			mustRun("INSERT INTO o VALUES " + strings.Join(o, ", "))
			mustRun("INSERT INTO i VALUES " + strings.Join(i, ", "))

			for _, want := range []struct {
				where       string
				rows, scans int
			}{{"o.v < 0", 0, 0}, {"o.v = 0", 60, 1}} {
				cfg := fmt.Sprintf("%s join, parallelism %d, WHERE %s", c.name, par, want.where)
				n.mu.Lock()
				n.scans = nil
				n.mu.Unlock()
				res := mustRun("SELECT o.id, i.id FROM o JOIN i ON " + c.join + " WHERE " + want.where)
				if !strings.HasPrefix(res.Access[1], c.label) {
					t.Fatalf("%s: access %v, want %s", cfg, res.Access, c.label)
				}
				if parallel := strings.Contains(res.Access[0], "parallel"); parallel != (par > 1) {
					t.Fatalf("%s: access %v", cfg, res.Access)
				}
				if len(res.Rows) != want.rows {
					t.Errorf("%s: %d rows, want %d", cfg, len(res.Rows), want.rows)
				}
				if got := len(n.scans); got != want.scans {
					t.Errorf("%s: %d scans of the inner table, want %d", cfg, got, want.scans)
				}
			}
		}
	}
}
