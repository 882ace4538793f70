package cluster

import (
	"context"
	"fmt"
	"slices"

	"jackpine/internal/engine"
	"jackpine/internal/geom"
	"jackpine/internal/sql"
	"jackpine/internal/storage"
)

// gatherBatch bounds the rows per INSERT when loading fragments into
// a transient engine.
const gatherBatch = 1024

// gather answers a query no fast path covers (joins, GROUP BY, mixed
// projections, aggregate shapes the partial merge cannot express) by
// materialising each referenced table's fragment in a fresh local
// engine with the cluster's profile, built for this statement alone,
// and running the original query there. Fragments are fetched through
// the plain scatter path — in global _seq order, so the transient
// heaps reproduce a single engine's insertion order — reduced three
// ways before any row moves:
//
//  1. per-binding pushdown: each conjunct of WHERE and the join ON
//     clauses that reads a single binding's columns is pushed into
//     that binding's fragment filter (self-joins OR their bindings'
//     filters together, qualifiers stripped);
//  2. spatial semijoin: a spatial join conjunct pred(B.geo, exprA)
//     confines B's useful rows to the envelope of exprA over A's own
//     fragment, so the router first asks A's shards for that extent
//     (one tiny aggregate scatter) and pushes the resulting
//     ST_INTERSECTS window into B's filter;
//  3. single-shard forward: when every partitioned binding's fragment
//     prunes to the same single shard, the original statement runs
//     there verbatim — no transient engine at all (star projections
//     excepted: the shard's SELECT * exposes the physical _seq column
//     at a position the router cannot strip without reshaping rows).
func (cn *Conn) gather(ctx context.Context, b *boundSelect, orig string) (*res, error) {
	n := len(b.refs)
	hasStar := false
	for _, se := range b.sel.Exprs {
		hasStar = hasStar || se.Star
	}

	// Per-binding pushed conjuncts, as parsed (qualifiers intact:
	// stripping happens at render time). The semijoin windows are
	// computed against this base pushdown, so the outcome does not
	// depend on binding order.
	pushed := make([][]sql.Expr, n)
	for i := range b.refs {
		pushed[i], _ = b.pushed(i)
	}
	semi := make([][]geom.Rect, n)
	for i, info := range b.infos {
		if n > 1 && info.partitioned() {
			var err error
			if semi[i], err = cn.semijoin(ctx, b, pushed, i); err != nil {
				return nil, err
			}
		}
	}

	// Per-binding shard targets, pruned by the pushed window and the
	// semijoin windows, and their union across partitioned bindings for
	// the single-shard forward.
	targets := make([][]int, n)
	eligible := make([]bool, n)
	unionSet := make(map[int]bool)
	anyPart := false
	anyEligible := false
	for i, info := range b.infos {
		if !info.partitioned() {
			continue
		}
		anyPart = true
		win, ok := b.window(i, cn.c.reg)
		for _, w := range semi[i] {
			if !w.IsEmpty() {
				pushed[i] = append(pushed[i], &sql.FuncCall{Name: "ST_INTERSECTS", Args: []sql.Expr{
					&sql.ColumnRef{Column: info.cols[info.geomCol].Name}, envelopeLiteral(w),
				}})
			}
			if ok {
				w = w.Intersect(win)
			}
			win, ok = w, true
		}
		targets[i], eligible[i] = cn.pruneTargets(info, win, ok)
		for _, s := range targets[i] {
			unionSet[s] = true
		}
		anyEligible = anyEligible || eligible[i]
	}
	if anyPart && len(unionSet) == 1 && !hasStar {
		shard := 0
		for s := range unionSet {
			shard = s
		}
		cn.c.countScatter(1, cn.shards()-1, anyEligible)
		cn.c.countFastPath()
		return cn.forward(ctx, orig, shard, false, 0)
	}

	// One fragment per distinct table: later bindings of a table share
	// the first one's fetch (fetchFragment unions their branches).
	var infos []*tableInfo
	var frags [][][]storage.Value
	fetched := make(map[string]bool, n)
	for i, ref := range b.refs {
		if fetched[ref.Table] {
			continue
		}
		fetched[ref.Table] = true
		rows, err := cn.fetchFragment(ctx, b, pushed, targets, eligible, i)
		if err != nil {
			return nil, err
		}
		infos = append(infos, b.infos[i])
		frags = append(frags, rows)
	}
	eng, err := cn.transientEngine(infos, frags, false)
	if err != nil {
		return nil, err
	}
	cn.c.countGatherBuild()
	result, err := eng.Exec(orig)
	if err != nil {
		return nil, err
	}
	return &res{cols: result.Columns, rows: result.Rows, affected: result.Affected}, nil
}

// transientEngine opens a fresh engine with the router's profile and
// join strategy and fills it for one statement: table i is created
// with its benchmark-visible columns (plus a trailing _shard column
// when tagged, for the join-pushdown complement), loaded with rows[i]
// in order, and — when partitioned — spatially indexed on its
// geometry column, so the statement keeps the access paths (index
// nested loop, kNN, PBSM costing) a single engine would use. Nothing
// outlives the statement: the caller drops the engine with its pages.
func (cn *Conn) transientEngine(infos []*tableInfo, rows [][][]storage.Value, tagged bool) (*engine.Engine, error) {
	eng := engine.Open(cn.c.prof, engine.WithJoinStrategy(cn.c.joinStrat))
	for i, info := range infos {
		cols := info.cols
		if tagged {
			cols = append(append([]sql.Column(nil), info.cols...),
				sql.Column{Name: ShardColumn, Type: storage.TypeInt})
		}
		if _, err := eng.ExecParsed(&sql.CreateTable{Name: info.name, Columns: cols}); err != nil {
			return nil, fmt.Errorf("cluster: transient schema for %s: %w", info.name, err)
		}
		if err := loadFragment(eng, info, rows[i]); err != nil {
			return nil, err
		}
		if !info.partitioned() {
			continue
		}
		idx := &sql.CreateIndex{
			Name:    "__transient_" + info.name + "_sidx",
			Table:   info.name,
			Columns: []string{info.cols[info.geomCol].Name},
			Spatial: true,
		}
		if _, err := eng.ExecParsed(idx); err != nil {
			return nil, fmt.Errorf("cluster: transient index for %s: %w", info.name, err)
		}
	}
	return eng, nil
}

// semijoin returns the windows the spatial join conjuncts
// pred(B.geo, exprA) (sql.JoinProbe) confine binding i = B's
// partitioning column to: a row of B that joins lies within d of some
// exprA value (d = 0 but for ST_DWithin), so inside ST_EXTENT(exprA)
// over A's fragment grown by d. The extent is fetched with a recursive
// routed aggregate — the partial-merge path, one value per shard. A
// NULL extent yields the empty window: no A row can satisfy the
// conjunct, so B's fragment is provably empty.
func (cn *Conn) semijoin(ctx context.Context, b *boundSelect, pushed [][]sql.Expr, i int) ([]geom.Rect, error) {
	geo := b.lo[i] + b.infos[i].geomCol
	var wins []geom.Rect
	for _, c := range b.bconds {
		for j := range b.refs {
			if j == i {
				continue
			}
			lo, hi := b.span(j)
			probe, d, ok := sql.JoinProbe(c, geo, lo, hi, cn.c.reg)
			if !ok || d < 0 {
				continue
			}
			env, err := cn.fragmentExtent(ctx, b.refs[j], pushed[j], probe)
			if err != nil {
				return nil, err
			}
			if env.IsEmpty() {
				return []geom.Rect{env}, nil
			}
			wins = append(wins, env.Expand(d))
		}
	}
	return wins, nil
}

// fragmentExtent asks binding ref's shards for ST_EXTENT(expr) over its
// pushed fragment: the empty rectangle when no row contributes.
func (cn *Conn) fragmentExtent(ctx context.Context, ref *sql.TableRef, pushed []sql.Expr, expr sql.Expr) (geom.Rect, error) {
	sel := &sql.Select{
		Exprs: []sql.SelectExpr{{Expr: &sql.FuncCall{
			Name: "ST_EXTENT",
			Args: []sql.Expr{expr},
		}}},
		From:  &sql.TableRef{Table: ref.Table, Alias: ref.Alias},
		Where: andAll(pushed),
		Limit: -1,
	}
	r, err := cn.routeSelect(ctx, sel, renderSelect(sel))
	if err != nil {
		return geom.Rect{}, err
	}
	if len(r.rows) != 1 || len(r.rows[0]) != 1 {
		return geom.Rect{}, fmt.Errorf("cluster: semijoin extent returned %d rows", len(r.rows))
	}
	if v := r.rows[0][0]; v.Type == storage.TypeGeom && v.Geom != nil {
		return v.Geom.Envelope(), nil
	}
	return geom.EmptyRect(), nil
}

// envelopeLiteral builds an ST_MAKEENVELOPE call for a rectangle.
func envelopeLiteral(r geom.Rect) sql.Expr {
	coord := func(f float64) sql.Expr {
		return &sql.Literal{Value: storage.NewFloat(f)}
	}
	return &sql.FuncCall{
		Name: "ST_MAKEENVELOPE",
		Args: []sql.Expr{coord(r.MinX), coord(r.MinY), coord(r.MaxX), coord(r.MaxY)},
	}
}

// fetchFragment retrieves table refs[i]'s rows: the union of every
// branch (binding of the same table) that some shard may answer, each
// filtered by its pushed conjuncts with qualifiers stripped, scattered
// only to the union of the branches' pruned shard targets. Replicated
// tables read from shard 0.
func (cn *Conn) fetchFragment(ctx context.Context, b *boundSelect, pushed [][]sql.Expr, targets [][]int, eligible []bool, i int) ([][]storage.Value, error) {
	table, info := b.refs[i].Table, b.infos[i]
	var branches []sql.Expr
	full := false
	all := true
	unionSet := make(map[int]bool)
	allEligible := true
	for j, r := range b.refs {
		if r.Table != table || info.partitioned() && len(targets[j]) == 0 {
			continue
		}
		all = false
		if len(pushed[j]) == 0 {
			full = true
		} else {
			parts := make([]sql.Expr, len(pushed[j]))
			for k, c := range pushed[j] {
				parts[k] = stripBinding(c, r.Name())
			}
			branches = append(branches, andAll(parts))
		}
		for _, s := range targets[j] {
			unionSet[s] = true
		}
		if !eligible[j] {
			allEligible = false
		}
	}
	if all {
		// Every branch is pruned away: nothing to fetch.
		cn.c.countScatter(0, cn.shards(), true)
		return nil, nil
	}
	fragSel := &sql.Select{
		Exprs: []sql.SelectExpr{{Star: true}},
		From:  &sql.TableRef{Table: table},
		Limit: -1,
	}
	if !full {
		fragSel.Where = orAll(branches)
	}
	if !info.partitioned() {
		r, err := cn.single(ctx, 0, renderSelect(fragSel))
		if err != nil {
			return nil, err
		}
		return r.rows, nil
	}
	frag := make([]int, 0, len(unionSet))
	for s := range unionSet {
		frag = append(frag, s)
	}
	slices.Sort(frag)
	if full {
		// A branch with no filter needs the whole table.
		frag = frag[:0]
		for s := 0; s < cn.shards(); s++ {
			frag = append(frag, s)
		}
		allEligible = false
	}
	r, err := cn.plainScan(ctx, fragSel, info, nil, true, frag, allEligible)
	if err != nil {
		return nil, err
	}
	return r.rows, nil
}

// stripBinding returns the expression with the binding's qualifiers
// removed, so it can run against a bare FROM of the fragment table. It
// copies the nodes on changed paths and never writes e, which may be
// the client's parsed statement.
func stripBinding(e sql.Expr, binding string) sql.Expr {
	strip := func(x sql.Expr) sql.Expr { return stripBinding(x, binding) }
	switch x := e.(type) {
	case *sql.ColumnRef:
		if x.Table == binding {
			return &sql.ColumnRef{Column: x.Column}
		}
	case *sql.BinaryExpr:
		if l, r := strip(x.Left), strip(x.Right); l != x.Left || r != x.Right {
			return &sql.BinaryExpr{Op: x.Op, Left: l, Right: r}
		}
	case *sql.UnaryExpr:
		if y := strip(x.Expr); y != x.Expr {
			return &sql.UnaryExpr{Op: x.Op, Expr: y}
		}
	case *sql.IsNull:
		if y := strip(x.Expr); y != x.Expr {
			return &sql.IsNull{Expr: y, Negate: x.Negate}
		}
	case *sql.Between:
		if y, lo, hi := strip(x.Expr), strip(x.Lo), strip(x.Hi); y != x.Expr || lo != x.Lo || hi != x.Hi {
			return &sql.Between{Expr: y, Lo: lo, Hi: hi}
		}
	case *sql.FuncCall:
		args := make([]sql.Expr, len(x.Args))
		changed := false
		for i, a := range x.Args {
			args[i] = strip(a)
			changed = changed || args[i] != a
		}
		if changed {
			return &sql.FuncCall{Name: x.Name, Args: args, Star: x.Star}
		}
	}
	return e
}

// orAll disjoins expressions (nil for an empty list).
func orAll(exprs []sql.Expr) sql.Expr {
	var out sql.Expr
	for _, e := range exprs {
		if out == nil {
			out = e
		} else {
			out = &sql.BinaryExpr{Op: "OR", Left: out, Right: e}
		}
	}
	return out
}

// loadFragment inserts fetched rows into a transient engine, preserving
// their fetch order (global _seq order for a gather).
func loadFragment(eng *engine.Engine, info *tableInfo, rows [][]storage.Value) error {
	for start := 0; start < len(rows); start += gatherBatch {
		end := start + gatherBatch
		if end > len(rows) {
			end = len(rows)
		}
		ins := &sql.Insert{Table: info.name, Rows: make([][]sql.Expr, 0, end-start)}
		for _, row := range rows[start:end] {
			exprs := make([]sql.Expr, len(row))
			for i, v := range row {
				exprs[i] = &sql.Literal{Value: v}
			}
			ins.Rows = append(ins.Rows, exprs)
		}
		if _, err := eng.ExecParsed(ins); err != nil {
			return fmt.Errorf("cluster: gather load for %s: %w", info.name, err)
		}
	}
	return nil
}
