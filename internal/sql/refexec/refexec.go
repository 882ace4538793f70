// Package refexec is the brute-force reference executor the
// equivalence rails compare the engine against. It answers a SELECT the
// slow, obviously-right way: nested loops over full table scans in heap
// order, every WHERE and ON conjunct evaluated with plain sql.Eval on
// its freshly bound tree as soon as the loop nest has bound its columns
// (without that, the cross products of the rails would take minutes),
// then grouping and aggregation, a stable sort on the ORDER BY keys,
// OFFSET and LIMIT, and a per-row projection. Each table is read by one
// unfiltered, all-column Table.ScanBatch, whose decoding internal/engine
// checks against storage.DecodeTuple. No planner, no index, no pushed-
// down filter, no filter cascade, no prepared geometry, no stage slot,
// no parallelism.
//
// A statement may leave part of its answer open: the order of rows
// without ORDER BY or with equal keys, which of those rows a LIMIT or
// OFFSET cuts, and which row of its group a grouped row's plain columns
// come from. The engine fixes these by its access path's order, the
// oracle by heap order, so Result.Admits accepts any answer that differs
// from the oracle's only there.
package refexec

import (
	"fmt"
	"math"
	"math/big"
	"slices"
	"sort"
	"strings"

	"jackpine/internal/geom"
	"jackpine/internal/overlay"
	"jackpine/internal/sql"
	"jackpine/internal/storage"
)

// Tables resolves table names; an engine or any sql.Catalog does.
type Tables interface {
	Table(name string) (sql.Table, bool)
}

// Result is the oracle's answer to one SELECT.
type Result struct {
	// Rows is the oracle's own answer: heap order, groups in first-seen
	// order, ties in arrival order.
	Rows [][]storage.Value

	items  []item // every candidate output row, in order, before OFFSET and LIMIT
	lo, hi int    // the window of items the statement returns
}

// item is one candidate output row: its sort keys, the run of rows
// whose order the statement leaves open, and every rendering it may
// take.
type item struct {
	src, keys, out []storage.Value // src: the joined row of an ungrouped statement
	run            int
	alts           []string
}

// Run answers one SELECT over the tables with the registry's function
// semantics. Errors are those a row-at-a-time evaluation raises first.
func Run(tabs Tables, reg *sql.Registry, query string) (*Result, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sql.Select)
	if !ok {
		return nil, fmt.Errorf("refexec: %T is not a SELECT", stmt)
	}
	refs, conjuncts := []*sql.TableRef{sel.From}, sql.Conjuncts(sel.Where)
	for _, j := range sel.Joins {
		refs, conjuncts = append(refs, j.Table), append(conjuncts, sql.Conjuncts(j.On)...)
	}
	scope := sql.NewScope()
	var tables []sql.Table
	var his []int // his[i]: the scope offset past table i
	for _, ref := range refs {
		tbl, ok := tabs.Table(ref.Table)
		if !ok {
			return nil, fmt.Errorf("sql: unknown table %q", ref.Table)
		}
		scope.AddTable(ref.Name(), tbl.Columns())
		tables, his = append(tables, tbl), append(his, scope.Len())
	}
	width := scope.Len()

	// Bind in the engine's order, so a statement with several binding
	// errors reports the same one. The i-th aggregate call bound against
	// the scope reads its result at position width+i.
	exprs := make([]sql.Expr, len(sel.Exprs))
	var aggs []*sql.FuncCall
	for i, se := range sel.Exprs {
		if se.Star {
			continue
		}
		if exprs[i], err = sql.Bind(se.Expr, scope, reg, true); err != nil {
			return nil, err
		}
		sql.WalkExpr(se.Expr, func(x sql.Expr) {
			if fc, ok := x.(*sql.FuncCall); ok && sql.IsAggregateCall(fc) {
				aggs = append(aggs, fc)
			}
		})
	}
	hasAgg := len(sel.GroupBy) > 0 || len(aggs) > 0
	// level[i] lists the conjuncts whose last-bound column belongs to
	// table i.
	level := make([][]sql.Expr, len(tables))
	for _, c := range conjuncts {
		bound, err := sql.Bind(c, scope, reg, false)
		if err != nil {
			return nil, err
		}
		at := 0
		for !sql.RefsInRange(bound, 0, his[at]) {
			at++
		}
		level[at] = append(level[at], bound)
	}
	var group, order []sql.Expr
	for _, g := range sel.GroupBy {
		b, err := sql.Bind(g, scope, reg, false)
		if err != nil {
			return nil, err
		}
		group = append(group, b)
	}
	for _, k := range sel.OrderBy {
		if hasAgg {
			break // grouped ORDER BY keys name output columns
		}
		b, err := sql.Bind(k.Expr, scope, reg, false)
		if err != nil {
			return nil, err
		}
		order = append(order, b)
	}

	// The join, one table at a time: every surviving prefix in order,
	// crossed with every row of the next table in heap order.
	joined := [][]storage.Value{nil}
	for i, tbl := range tables {
		var rows, next [][]storage.Value
		if err := tbl.ScanBatch(0, 1, sql.AllColumns(), func(b *storage.ColBatch) (bool, error) {
			for _, s := range b.Sel {
				rows = append(rows, slices.Clone(b.Row(s)))
			}
			return true, nil
		}); err != nil {
			return nil, err
		}
		row := make([]storage.Value, his[i])
		for _, prefix := range joined {
			copy(row, prefix)
		cross:
			for _, r := range rows {
				copy(row[len(prefix):], r)
				for _, c := range level[i] {
					v, err := sql.Eval(c, row, reg)
					if err != nil {
						return nil, err
					}
					if v.IsNull() || (v.Type == storage.TypeBool && v.Int == 0) {
						continue cross
					}
				}
				next = append(next, slices.Clone(row))
			}
		}
		joined = next
	}

	project := func(row []storage.Value) ([]storage.Value, error) {
		var out []storage.Value
		for i, e := range exprs {
			if sel.Exprs[i].Star {
				out = append(out, row[:width]...)
				continue
			}
			v, err := sql.Eval(e, row, reg)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		return out, nil
	}
	res := &Result{}
	if hasAgg {
		if res.items, err = aggregate(sel, scope, reg, joined, group, aggs, project); err != nil {
			return nil, err
		}
	} else {
		for _, r := range joined {
			it := item{src: r}
			for _, k := range order {
				v, err := sql.Eval(k, r, reg)
				if err != nil {
					return nil, err
				}
				it.keys = append(it.keys, v)
			}
			res.items = append(res.items, it)
		}
	}

	// Order, then split into runs of equal keys: a statement without
	// ORDER BY is one run.
	less := func(a, b *item) bool {
		for k, o := range sel.OrderBy {
			if c, _ := storage.Compare(a.keys[k], b.keys[k]); c != 0 {
				return (c < 0) != o.Desc
			}
		}
		return false
	}
	sort.SliceStable(res.items, func(a, b int) bool { return less(&res.items[a], &res.items[b]) })
	for i := 1; i < len(res.items); i++ {
		res.items[i].run = res.items[i-1].run
		if less(&res.items[i-1], &res.items[i]) {
			res.items[i].run++
		}
	}
	n := len(res.items)
	res.lo, res.hi = min(sel.Offset, n), n
	if sel.Limit >= 0 {
		res.hi = min(res.lo+sel.Limit, n)
	}
	// Project the windowed rows, failing as they fail, and every other
	// row of the runs they belong to as alternatives, which an error
	// only drops.
	for i := range res.items {
		it := &res.items[i]
		if hasAgg || res.lo == res.hi || it.run < res.items[res.lo].run || it.run > res.items[res.hi-1].run {
			continue
		}
		out, err := project(it.src)
		if err != nil && i >= res.lo && i < res.hi {
			return nil, err
		} else if err == nil {
			it.out, it.alts = out, []string{render(out)}
		}
	}
	for _, it := range res.items[res.lo:res.hi] {
		res.Rows = append(res.Rows, it.out)
	}
	return res, nil
}

// aggregate folds the joined rows into groups, in first-seen order, and
// returns one item per group: its output over its first row, with the
// outputs over its other rows as alternatives, and, under ORDER BY, the
// output columns the keys name.
func aggregate(sel *sql.Select, scope *sql.Scope, reg *sql.Registry, joined [][]storage.Value,
	group []sql.Expr, aggs []*sql.FuncCall, project func([]storage.Value) ([]storage.Value, error)) ([]item, error) {

	var keys []string
	groups := map[string][][]storage.Value{}
	for _, r := range joined {
		var kv []storage.Value
		for _, g := range group {
			v, err := sql.Eval(g, r, reg)
			if err != nil {
				return nil, err
			}
			kv = append(kv, v)
		}
		k := string(storage.EncodeTuple(kv))
		if groups[k] == nil {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], r)
	}
	if len(group) == 0 && len(keys) == 0 {
		keys = []string{""} // a global aggregate over no row: one empty group
	}
	var items []item
	for _, k := range keys {
		rows := groups[k]
		vals := make([]storage.Value, len(aggs))
		for i, fc := range aggs {
			var err error
			if vals[i], err = fold(fc, scope, reg, rows); err != nil {
				return nil, err
			}
		}
		if len(rows) == 0 {
			rows = [][]storage.Value{make([]storage.Value, scope.Len())} // a stand-in row of NULLs
		}
		var it item
		for j, r := range rows {
			out, err := project(append(append([]storage.Value(nil), r...), vals...))
			if err != nil && j == 0 {
				return nil, err
			} else if j == 0 {
				it.out = out
			}
			if s := render(out); err == nil && (len(it.alts) == 0 || it.alts[len(it.alts)-1] != s) {
				it.alts = append(it.alts, s)
			}
		}
		items = append(items, it)
	}
	names := sql.OutputNames(sel, scope)
	for _, ok := range sel.OrderBy {
		idx := slices.IndexFunc(names, func(name string) bool {
			return name == strings.ToLower(ok.Expr.String())
		})
		if lit, isLit := ok.Expr.(*sql.Literal); isLit && lit.Value.Type == storage.TypeInt {
			idx = int(lit.Value.Int) - 1
		}
		if idx < 0 || idx >= len(names) {
			return nil, fmt.Errorf("sql: ORDER BY %s must name an output column when grouping", ok.Expr)
		}
		for i := range items {
			items[i].keys = append(items[i].keys, items[i].out[idx])
		}
	}
	return items, nil
}

// fold computes one aggregate call over a group's rows: COUNT, SUM,
// MIN, MAX or ST_UNION. SUM adds finite terms exactly and non-finite
// ones apart, so the result does not depend on the order of the rows.
func fold(fc *sql.FuncCall, scope *sql.Scope, reg *sql.Registry, rows [][]storage.Value) (storage.Value, error) {
	var arg sql.Expr
	var err error
	if !fc.Star {
		if arg, err = sql.Bind(fc.Args[0], scope, reg, false); err != nil {
			return storage.Null(), err
		}
	}
	n, sumInt, intOnly := int64(0), int64(0), true
	sum, bad := new(big.Float).SetPrec(2304), 0.0
	var best storage.Value
	var geoms []geom.Geometry
	for _, r := range rows {
		v := storage.NewInt(0) // COUNT(*) counts every row
		if !fc.Star {
			if v, err = sql.Eval(arg, r, reg); err != nil {
				return storage.Null(), err
			}
		}
		if v.IsNull() {
			continue
		}
		n++
		switch f, isNum := v.AsFloat(); fc.Name {
		case "SUM":
			if !isNum {
				return storage.Null(), fmt.Errorf("sql: %s over %s", fc.Name, v.Type)
			}
			if math.IsInf(f, 0) || math.IsNaN(f) {
				bad += f
			} else {
				sum.Add(sum, new(big.Float).SetPrec(2304).SetFloat64(f))
			}
			sumInt, intOnly = sumInt+v.Int, intOnly && v.Type == storage.TypeInt
		case "MIN", "MAX":
			if c, _ := storage.Compare(v, best); n == 1 || c != 0 && (c < 0) == (fc.Name == "MIN") {
				best = v
			}
		case "ST_UNION":
			if v.Type != storage.TypeGeom {
				return storage.Null(), fmt.Errorf("sql: %s over %s", fc.Name, v.Type)
			}
			geoms = append(geoms, v.Geom)
		}
	}
	f, _ := sum.Float64()
	switch {
	case fc.Name == "COUNT":
		return storage.NewInt(n), nil
	case n == 0:
		return storage.Null(), nil
	case fc.Name == "SUM" && intOnly:
		return storage.NewInt(sumInt), nil
	case fc.Name == "SUM":
		return storage.NewFloat(f + bad), nil
	case fc.Name == "ST_UNION":
		return storage.NewGeom(overlay.UnionAll(geoms)), nil
	}
	return best, nil
}

// Admits reports whether rows answer the statement: they are the
// oracle's rows except where the statement leaves the answer open.
// Rows of one run of equal ORDER BY keys, or of a statement without
// ORDER BY, may come in any order, and where OFFSET or LIMIT cuts a
// run, any of its rows may fill the cut; a grouped row may take its
// plain columns from any row of its group.
func (r *Result) Admits(rows [][]storage.Value) error {
	if len(rows) != r.hi-r.lo {
		return fmt.Errorf("%d rows, the oracle %d", len(rows), r.hi-r.lo)
	}
	free := map[string][]int{} // per run and rendering, the items that may take it
	for i, it := range r.items {
		for _, a := range it.alts {
			k := fmt.Sprint(it.run, a)
			free[k] = append(free[k], i)
		}
	}
	used := make([]bool, len(r.items))
	for i, row := range rows {
		k := fmt.Sprint(r.items[r.lo+i].run, render(row))
		c := free[k]
		for len(c) > 0 && used[c[0]] {
			c = c[1:]
		}
		if len(c) == 0 {
			return fmt.Errorf("row %d %s is not admitted; the oracle's is %s", i, render(row), render(r.Rows[i]))
		}
		used[c[0]], free[k] = true, c[1:]
	}
	return nil
}

// render is a row's text, as Admits matches it.
func render(row []storage.Value) string { return fmt.Sprintf("%q", row) }
