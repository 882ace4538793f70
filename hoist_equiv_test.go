package jackpine

import (
	"fmt"
	"math/big"
	"sort"
	"strings"
	"testing"

	"jackpine/internal/driver"
	"jackpine/internal/sql"
	"jackpine/internal/storage"
)

// bruteForce answers a SELECT the slow, obviously-right way: nested
// loops over full table scans in heap order, every WHERE and ON conjunct
// evaluated with plain sql.Eval on its freshly bound, unrewritten tree (as soon as the loop nest has bound its columns — without that
// the cross products below would take minutes), then a stable sort on
// the ORDER BY keys and a per-row projection, or a single-group
// COUNT/SUM fold with the executor's exact accumulator. No planner, no
// index, no slot: whatever stage-invariant hoisting does must be
// invisible against this.
func bruteForce(eng *Engine, reg *sql.Registry, query string) (string, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return "", err
	}
	sel := stmt.(*sql.Select)
	scope := sql.NewScope()
	var tables [][][]storage.Value
	var his []int
	refs := []*sql.TableRef{sel.From}
	for _, j := range sel.Joins {
		refs = append(refs, j.Table)
	}
	for _, ref := range refs {
		tbl, ok := eng.Table(ref.Table)
		if !ok {
			return "", fmt.Errorf("unknown table %s", ref.Table)
		}
		scope.AddTable(ref.Name(), tbl.Columns())
		his = append(his, scope.Len())
		var rows [][]storage.Value
		if err := tbl.ScanProject(sql.AllColumns(), func(_ sql.RowID, row []storage.Value) bool {
			rows = append(rows, append([]storage.Value(nil), row...))
			return true
		}); err != nil {
			return "", err
		}
		tables = append(tables, rows)
	}
	conjuncts := sql.Conjuncts(sel.Where)
	for _, j := range sel.Joins {
		conjuncts = append(conjuncts, sql.Conjuncts(j.On)...)
	}
	hasAgg := false
	exprs := make([]sql.Expr, len(sel.Exprs))
	for i, se := range sel.Exprs {
		if exprs[i], err = sql.Bind(se.Expr, scope, reg, true); err != nil {
			return "", err
		}
		hasAgg = hasAgg || sql.HasAggregate(se.Expr)
	}
	// level[i] lists the conjuncts whose last-bound column belongs to
	// table i.
	level := make([][]sql.Expr, len(tables))
	for _, c := range conjuncts {
		bound, err := sql.Bind(c, scope, reg, false)
		if err != nil {
			return "", err
		}
		max := 0
		sql.WalkExpr(c, func(x sql.Expr) {
			if col, ok := x.(*sql.ColumnRef); ok {
				if idx, err := scope.Resolve(strings.ToLower(col.Table), strings.ToLower(col.Column)); err == nil && idx > max {
					max = idx
				}
			}
		})
		at := 0
		for max >= his[at] {
			at++
		}
		level[at] = append(level[at], bound)
	}
	order := make([]sql.Expr, len(sel.OrderBy))
	for i, ok := range sel.OrderBy {
		if order[i], err = sql.Bind(ok.Expr, scope, reg, false); err != nil {
			return "", err
		}
	}

	var joined [][]storage.Value
	row := make([]storage.Value, scope.Len())
	var nest func(i int) error
	nest = func(i int) error {
		if i == len(tables) {
			joined = append(joined, append([]storage.Value(nil), row...))
			return nil
		}
	rows:
		for _, r := range tables[i] {
			copy(row[his[i]-len(r):], r)
			for _, c := range level[i] {
				v, err := sql.Eval(c, row, reg)
				if err != nil {
					return err
				}
				if v.IsNull() || (v.Type == storage.TypeBool && v.Int == 0) {
					continue rows
				}
			}
			if err := nest(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := nest(0); err != nil {
		return "", err
	}

	var out [][]storage.Value
	if hasAgg {
		var line []storage.Value
		for _, se := range sel.Exprs {
			fc := se.Expr.(*sql.FuncCall)
			if fc.Star {
				line = append(line, storage.NewInt(int64(len(joined))))
				continue
			}
			arg, err := sql.Bind(fc.Args[0], scope, reg, false)
			if err != nil {
				return "", err
			}
			sum := new(big.Float).SetPrec(2304) // the executor's sumPrec: exact for float64 terms
			n := 0
			for _, r := range joined {
				v, err := sql.Eval(arg, r, reg)
				if err != nil {
					return "", err
				}
				if f, ok := v.AsFloat(); ok {
					sum.Add(sum, new(big.Float).SetPrec(2304).SetFloat64(f))
					n++
				}
			}
			switch {
			case fc.Name == "COUNT":
				line = append(line, storage.NewInt(int64(n)))
			case n == 0:
				line = append(line, storage.Null())
			default:
				f, _ := sum.Float64()
				line = append(line, storage.NewFloat(f))
			}
		}
		out = append(out, line)
	} else {
		keys := make([][]storage.Value, len(joined))
		for i, r := range joined {
			for _, k := range order {
				v, err := sql.Eval(k, r, reg)
				if err != nil {
					return "", err
				}
				keys[i] = append(keys[i], v)
			}
		}
		idx := make([]int, len(joined))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			for k := range sel.OrderBy {
				if c, _ := storage.Compare(keys[idx[a]][k], keys[idx[b]][k]); c != 0 {
					return (c < 0) != sel.OrderBy[k].Desc
				}
			}
			return false
		})
		for _, i := range idx {
			var line []storage.Value
			for _, e := range exprs {
				v, err := sql.Eval(e, joined[i], reg)
				if err != nil {
					return "", err
				}
				line = append(line, v)
			}
			out = append(out, line)
		}
	}
	return canonRows(&ResultSet{Rows: out}), nil
}

// sortedLines canonicalizes a result whose statement fixes no order.
func sortedLines(s string) string {
	lines := strings.SplitAfter(s, "\n")
	sort.Strings(lines)
	return strings.Join(lines, "")
}

// TestHoistEquivalence is the rail for stage-invariant hoisting: every
// shape in which an expression over an outer table can be consumed
// downstream — probe window, join filter, projection, sort key,
// aggregate argument, a middle stage feeding a third table — plus the
// NULL and error edges, under serial and parallel plans, batch on and
// off, forced index-nested-loop and forced PBSM. Each configuration
// must return byte-identical rows, order and error text; statements
// with ORDER BY must also match the brute-force order, the others its
// rows as a multiset (their order is the access path's, which brute
// force does not model).
func TestHoistEquivalence(t *testing.T) {
	ds := GenerateDataset(ScaleSmall, 1)
	// One engine per batch setting; each sweeps parallelism and strategy.
	engs := map[bool]*Engine{false: OpenEngine(GaiaDB(), WithBatchExec(false)), true: OpenEngine(GaiaDB())}
	conns := map[bool]driver.Conn{}
	for batch, eng := range engs {
		if err := LoadDataset(eng, ds, true); err != nil {
			t.Fatal(err)
		}
		// A water body without a geometry, and one whose name parses as
		// WKT while every other name makes ST_GeomFromText fail.
		eng.MustExec("INSERT INTO areawater VALUES (900001, 'nowhere', 'pond', NULL)")
		eng.MustExec("INSERT INTO areawater VALUES (900002, 'POINT (1 1)', 'pond', ST_MakePoint(1, 1))")
		conn, err := Connect(eng).Connect()
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conns[batch] = conn
	}
	ctx := NewQueryContext(ds)
	wid := ctx.RandomWaterID("MS4", 0)
	reg := sql.NewRegistry(sql.RegistryOptions{})

	cases := []struct {
		name, sql string
		fails     bool
	}{
		{"flood 1", fmt.Sprintf("SELECT p.id, ST_Area(ST_Intersection(p.geo, ST_Buffer(w.geo, 40))) "+
			"FROM areawater w JOIN parcels p ON ST_Intersects(p.geo, ST_Buffer(w.geo, 40)) WHERE w.id = %d", wid), false},
		{"flood 2", fmt.Sprintf("SELECT COUNT(*), SUM(ST_Area(p.geo)) FROM areawater w "+
			"JOIN parcels p ON ST_Intersects(p.geo, ST_Buffer(w.geo, 40)) WHERE w.id = %d", wid), false},
		{"toxic spill", "SELECT e.id, e.name FROM areawater w JOIN edges e " +
			"ON ST_Intersects(e.geo, ST_Buffer(w.geo, 60)) WHERE w.id = 1 AND e.class = 'motorway'", false},
		{"projection only", "SELECT a.id, ST_Area(ST_Buffer(w.geo, 5)), ST_NumPoints(ST_Buffer(w.geo, 5)) " +
			"FROM areawater w JOIN arealm a ON ST_Intersects(a.geo, w.geo)", false},
		// Three water bodies; the parcel id cut is only there to keep brute
		// force (one buffer per pair) affordable.
		{"order by key", fmt.Sprintf("SELECT w.id, p.id FROM areawater w JOIN parcels p "+
			"ON ST_Intersects(p.geo, ST_Buffer(w.geo, 40)) WHERE w.id BETWEEN %d AND %d AND p.id %% 4 = 0 "+
			"ORDER BY ST_Area(ST_Buffer(w.geo, 40)) DESC, w.id, p.id", wid-1, wid+1), false},
		{"aggregate argument", fmt.Sprintf("SELECT COUNT(*), SUM(ST_Area(ST_Buffer(w.geo, 40))), "+
			"SUM(ST_Area(ST_Intersection(p.geo, ST_Buffer(w.geo, 40)))) FROM areawater w "+
			"JOIN parcels p ON ST_Intersects(p.geo, ST_Buffer(w.geo, 40)) "+
			"WHERE w.id BETWEEN %d AND %d AND p.id %% 4 = 0", wid-1, wid+1), false},
		{"three tables", fmt.Sprintf("SELECT p.id, l.id, ST_AsText(ST_Centroid(p.geo)), ST_Area(ST_Buffer(w.geo, 40)) "+
			"FROM areawater w JOIN parcels p ON ST_Intersects(p.geo, ST_Buffer(w.geo, 40)) "+
			"JOIN pointlm l ON ST_DWithin(l.geo, ST_Centroid(p.geo), 150) WHERE w.id = %d", wid), false},
		{"null outer geometry", "SELECT w.id, p.id, ST_Area(ST_Buffer(w.geo, 40)) FROM areawater w " +
			"JOIN parcels p ON ST_Intersects(p.geo, ST_Buffer(w.geo, 40)) WHERE w.id >= 900001", false},
		{"null outer projection", "SELECT w.id, p.id, ST_Area(ST_Buffer(w.geo, 40)) FROM areawater w " +
			"JOIN parcels p ON p.id = w.id - 900000 WHERE w.id >= 900001", false},
		// The projection errors for every water body but 900002; with no
		// parcel to join it must never be evaluated, with one it must
		// fail exactly as plain evaluation does.
		{"erroring outer, empty inner", "SELECT p.id, ST_AsText(ST_GeomFromText(w.name)) FROM areawater w " +
			"JOIN parcels p ON p.id = w.id + 800000", false},
		{"erroring outer, one survivor", "SELECT p.id, ST_AsText(ST_GeomFromText(w.name)) FROM areawater w " +
			"JOIN parcels p ON p.id = w.id - 900000 WHERE w.id = 900002", false},
		{"erroring outer", "SELECT p.id, ST_AsText(ST_GeomFromText(w.name)) FROM areawater w " +
			"JOIN parcels p ON p.id = w.id", true},
	}
	for _, c := range cases {
		want, wantErr := bruteForce(engs[false], reg, c.sql)
		if (wantErr != nil) != c.fails {
			t.Fatalf("%s: brute force: rows %q, err %v", c.name, want, wantErr)
		}
		if !c.fails && want == "" && !strings.Contains(c.name, "empty inner") {
			t.Fatalf("%s: brute force finds no rows; the case proves nothing", c.name)
		}
		ordered := strings.Contains(c.sql, "ORDER BY")
		// The serial row-path run of each strategy is the byte-for-byte
		// reference: INL emits inner rows in index order, PBSM in heap order.
		first := map[JoinStrategy]string{}
		for _, cfg := range []struct {
			par   int
			batch bool
			strat JoinStrategy
		}{
			{1, false, JoinINL}, {1, true, JoinINL}, {8, false, JoinINL}, {8, true, JoinINL},
			{1, false, JoinPBSM}, {1, true, JoinPBSM}, {8, false, JoinPBSM}, {8, true, JoinPBSM},
		} {
			eng := engs[cfg.batch]
			eng.SetParallelism(cfg.par)
			eng.SetJoinStrategy(cfg.strat)
			rs, err := conns[cfg.batch].Query(c.sql)
			got := ""
			switch {
			case err != nil && wantErr != nil:
				got = "error: " + err.Error()
				if err.Error() != wantErr.Error() {
					t.Errorf("%s %+v: error %q, brute force fails with %q", c.name, cfg, err, wantErr)
				}
			case err != nil || wantErr != nil:
				t.Fatalf("%s %+v: err %v, brute force err %v", c.name, cfg, err, wantErr)
			default:
				got = canonRows(rs)
				cmp, ref := got, want
				if !ordered {
					cmp, ref = sortedLines(got), sortedLines(want)
				}
				if cmp != ref {
					t.Errorf("%s %+v diverges from brute force\nwant:\n%s\ngot:\n%s", c.name, cfg, ref, cmp)
				}
			}
			if ref, seen := first[cfg.strat]; !seen {
				first[cfg.strat] = got
			} else if got != ref {
				t.Errorf("%s %+v is not byte-identical to the strategy's serial row-path run\nwant:\n%s\ngot:\n%s",
					c.name, cfg, ref, got)
			}
		}
	}
}
