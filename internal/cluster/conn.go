package cluster

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"jackpine/internal/driver"
	"jackpine/internal/geom"
	"jackpine/internal/sql"
	"jackpine/internal/storage"
)

// Conn is one cluster session: a scatter-gather router over one open
// session per shard. It implements driver.Conn.
type Conn struct {
	c    *Cluster
	sess []driver.Conn

	mu     sync.Mutex
	closed bool
}

// res is an internal routed-statement result.
type res struct {
	cols     []string
	rows     [][]storage.Value
	affected int
}

func (r *res) resultSet() *driver.ResultSet {
	return &driver.ResultSet{Columns: r.cols, Rows: r.rows}
}

// Exec implements driver.Conn.
func (cn *Conn) Exec(query string) (int, error) {
	r, err := cn.route(query)
	if err != nil {
		return 0, err
	}
	return r.affected, nil
}

// Query implements driver.Conn.
func (cn *Conn) Query(query string) (*driver.ResultSet, error) {
	r, err := cn.route(query)
	if err != nil {
		return nil, err
	}
	return r.resultSet(), nil
}

// Close implements driver.Conn, closing every shard session.
func (cn *Conn) Close() error {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	if cn.closed {
		return nil
	}
	cn.closed = true
	var first error
	for _, s := range cn.sess {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ShardStats exposes the cluster's scatter/prune counters; the
// benchmark core detects this method by interface assertion.
func (cn *Conn) ShardStats() driver.ShardStats { return cn.c.ShardStats() }

func (cn *Conn) guard() error {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	if cn.closed {
		return fmt.Errorf("cluster: connection is closed")
	}
	return nil
}

// shards is the cluster size.
func (cn *Conn) shards() int { return len(cn.sess) }

// route parses and dispatches one statement.
func (cn *Conn) route(query string) (*res, error) {
	if err := cn.guard(); err != nil {
		return nil, err
	}
	stmt, err := cn.c.shapes.Parse(query)
	if err != nil {
		return nil, err
	}
	// The routing root context: per-shard requests derive cancelable
	// children from it so merges can abandon shards early (kNN bound
	// pruning, cancel-all after the first shard error).
	ctx := context.Background()
	switch t := stmt.(type) {
	case *sql.Select:
		return cn.routeSelect(ctx, t, query)
	case *sql.Explain:
		return cn.routeExplain(t)
	case *sql.Insert:
		return cn.routeInsert(ctx, t, query)
	case *sql.Update:
		return cn.routeUpdate(ctx, t, query)
	case *sql.Delete:
		return cn.routeDelete(ctx, t, query)
	case *sql.CreateTable:
		return cn.routeCreateTable(t)
	case *sql.DropTable:
		r, err := cn.broadcastSame(query)
		if err == nil {
			cn.c.mu.Lock()
			delete(cn.c.tables, t.Table)
			cn.c.mu.Unlock()
		}
		return r, err
	case *sql.CreateIndex, *sql.Vacuum:
		return cn.broadcastSame(query)
	}
	return nil, fmt.Errorf("cluster: unroutable statement %T", stmt)
}

// --- fan-out helpers -----------------------------------------------------

// queryShard runs a read on one shard, through QueryContext when the
// session can be canceled.
func (cn *Conn) queryShard(ctx context.Context, shard int, query string) (*driver.ResultSet, error) {
	s := cn.sess[shard]
	if cc, ok := s.(driver.ContextConn); ok {
		return cc.QueryContext(ctx, query)
	}
	return s.Query(query)
}

// broadcastExec runs the same statement on every shard concurrently and
// returns per-shard affected counts.
func (cn *Conn) broadcastExec(query string) ([]int, error) {
	affected := make([]int, cn.shards())
	errs := make([]error, cn.shards())
	var wg sync.WaitGroup
	for i, s := range cn.sess {
		wg.Add(1)
		go func(i int, s driver.Conn) {
			defer wg.Done()
			affected[i], errs[i] = s.Exec(query)
		}(i, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return affected, nil
}

// broadcastSame broadcasts a statement whose per-shard effect is
// identical (DDL, VACUUM); shard 0's affected count is reported.
func (cn *Conn) broadcastSame(query string) (*res, error) {
	affected, err := cn.broadcastExec(query)
	if err != nil {
		return nil, err
	}
	return &res{affected: affected[0]}, nil
}

// single routes a statement verbatim to one shard (replicated and
// unknown tables; the shard engine supplies any error text).
func (cn *Conn) single(ctx context.Context, shard int, query string) (*res, error) {
	rs, err := cn.queryShard(ctx, shard, query)
	if err != nil {
		return nil, err
	}
	return &res{cols: rs.Columns, rows: rs.Rows}, nil
}

// --- SELECT routing ------------------------------------------------------

// routeSelect dispatches a SELECT down the routing decision tree:
// fast path (single owning shard, statement forwarded verbatim), then
// the shape-specific scatter paths, then the gather fallback. A SELECT
// that touches a partitioned table is bound once, before any shard is
// asked, so one that does not bind fails with the engine's error.
func (cn *Conn) routeSelect(ctx context.Context, t *sql.Select, orig string) (*res, error) {
	b, err := cn.c.bindSelect(t)
	switch {
	case err != nil:
		return nil, err
	case b == nil:
		// An unknown table: the shard engine supplies the error text.
		return cn.single(ctx, 0, orig)
	case !slices.ContainsFunc(b.infos, (*tableInfo).partitioned):
		// Replicated tables only: any one shard holds the full data.
		return cn.single(ctx, 0, orig)
	case len(b.refs) > 1:
		if r, ok, err := cn.joinPushdown(ctx, b); ok || err != nil {
			return r, err
		}
		return cn.gather(ctx, b, orig)
	}

	info := b.infos[0]
	win, ok := b.window(0, cn.c.reg)
	targets, eligible := cn.pruneTargets(info, win, ok)

	starOnly := len(t.Exprs) == 1 && t.Exprs[0].Star
	mixedStar := false
	for _, se := range t.Exprs {
		if se.Star && !starOnly {
			mixedStar = true
		}
	}

	// Single-shard fast path: every row the query can touch lives on
	// one shard, whose local heap order is _seq order — forwarding the
	// original statement verbatim is byte-equivalent to the full
	// scatter/merge, for every shape (aggregates, ORDER BY, LIMIT).
	// Star-only projections are forwarded too, stripping the shard's
	// trailing physical _seq column; star mixed with expressions would
	// bury _seq mid-row and keeps the gather path.
	if len(targets) == 1 && !mixedStar {
		cn.c.countScatter(1, cn.shards()-1, eligible)
		cn.c.countFastPath()
		return cn.forward(ctx, orig, targets[0], starOnly, len(info.cols))
	}

	names := sql.OutputNames(t, b.scope)
	if b.hasAgg {
		if r, ok, err := cn.aggScan(ctx, b, names, targets, eligible); ok || err != nil {
			return r, err
		}
		return cn.gather(ctx, b, orig)
	}
	if mixedStar {
		// Star mixed with expressions: column bookkeeping is not worth
		// a fast path.
		return cn.gather(ctx, b, orig)
	}
	if len(t.OrderBy) > 0 {
		if starOnly {
			return cn.gather(ctx, b, orig)
		}
		// The kNN shape the shards' planner upgrades to an index scan,
		// on the partitioning column.
		col, probe, knn := sql.KNNShape(t, b.order)
		knn = knn && col == info.geomCol
		if knn {
			if r, ok, err := cn.knnScan(ctx, t, info, probe, names, targets); ok || err != nil {
				return r, err
			}
		}
		return cn.orderedScan(ctx, t, knn, names, targets, eligible)
	}
	return cn.plainScan(ctx, t, info, names, starOnly, targets, eligible)
}

// boundSelect is a SELECT bound once, as the engine binds it, against
// the catalog columns of its FROM and JOIN bindings: pruning, the kNN
// shape, the join pushdown, the gather's reductions, the aggregate
// merge and the output names all run the engine's own code over this
// tree. Shard SQL is still rendered from the parse tree: conds[k] is
// the parsed conjunct bconds[k] was bound from.
type boundSelect struct {
	sel    *sql.Select
	refs   []*sql.TableRef
	infos  []*tableInfo
	lo     []int // binding i's first scope offset
	scope  *sql.Scope
	exprs  []sql.Expr // the select list, nil at a star
	conds  []sql.Expr // the WHERE and ON conjuncts, as parsed
	bconds []sql.Expr // the same conjuncts, bound
	order  []sql.Expr // the ORDER BY keys, bound only without aggregates
	hasAgg bool
}

// bindSelect binds t against its bindings' catalog columns in the
// engine's order: select list, WHERE, each ON, GROUP BY, then a
// non-aggregate ORDER BY. b is nil, and nothing is bound, when a table
// is unknown to the router.
func (c *Cluster) bindSelect(t *sql.Select) (b *boundSelect, err error) {
	b = &boundSelect{sel: t, scope: sql.NewScope(), hasAgg: len(t.GroupBy) > 0}
	b.refs = append(b.refs, t.From)
	conds := []sql.Expr{t.Where}
	for _, j := range t.Joins {
		b.refs = append(b.refs, j.Table)
		conds = append(conds, j.On)
	}
	for _, r := range b.refs {
		info := c.lookup(r.Table)
		if info == nil {
			return nil, nil
		}
		b.infos = append(b.infos, info)
		b.lo = append(b.lo, b.scope.Len())
		b.scope.AddTable(r.Name(), info.cols)
	}
	b.exprs = make([]sql.Expr, len(t.Exprs))
	for i, se := range t.Exprs {
		if se.Star {
			continue
		}
		if b.exprs[i], err = sql.Bind(se.Expr, b.scope, c.reg, true); err != nil {
			return nil, err
		}
		b.hasAgg = b.hasAgg || sql.HasAggregate(b.exprs[i])
	}
	for _, cond := range conds {
		bc, err := sql.Bind(cond, b.scope, c.reg, false)
		if err != nil {
			return nil, err
		}
		b.conds = append(b.conds, sql.Conjuncts(cond)...)
		b.bconds = append(b.bconds, sql.Conjuncts(bc)...)
	}
	for _, g := range t.GroupBy {
		if _, err := sql.Bind(g, b.scope, c.reg, false); err != nil {
			return nil, err
		}
	}
	if !b.hasAgg {
		b.order = make([]sql.Expr, len(t.OrderBy))
		for i, k := range t.OrderBy {
			if b.order[i], err = sql.Bind(k.Expr, b.scope, c.reg, false); err != nil {
				return nil, err
			}
		}
	}
	return b, nil
}

// span is binding i's scope offsets [lo, hi).
func (b *boundSelect) span(i int) (lo, hi int) {
	return b.lo[i], b.lo[i] + len(b.infos[i].cols)
}

// pushed returns the conjuncts that read binding i's columns only (or
// none), as parsed and as bound: inner-join semantics let each filter
// the binding's fragment.
func (b *boundSelect) pushed(i int) (conds, bconds []sql.Expr) {
	lo, hi := b.span(i)
	for k, c := range b.bconds {
		if sql.RefsInRange(c, lo, hi) {
			conds = append(conds, b.conds[k])
			bconds = append(bconds, c)
		}
	}
	return conds, bconds
}

// window returns the constant spatial window (sql.SpatialWindow) the
// conjuncts pushed to binding i confine its partitioning column to; ok
// is false when there is none.
func (b *boundSelect) window(i int, reg *sql.Registry) (geom.Rect, bool) {
	_, own := b.pushed(i)
	return sql.SpatialWindow(andAll(own), b.lo[i]+b.infos[i].geomCol, reg)
}

// forward sends the original statement to one shard unchanged. For
// star-only projections the shard's result carries the physical _seq
// column last; it is stripped here.
func (cn *Conn) forward(ctx context.Context, orig string, shard int, starOnly bool, visibleCols int) (*res, error) {
	rs, err := cn.queryShard(ctx, shard, orig)
	if err != nil {
		return nil, err
	}
	cols, rows := rs.Columns, rs.Rows
	if starOnly && len(cols) == visibleCols+1 {
		cols = cols[:visibleCols]
		out := make([][]storage.Value, len(rows))
		for i, r := range rows {
			out[i] = r[:visibleCols]
		}
		rows = out
	}
	return &res{cols: cols, rows: rows}, nil
}

// pruneTargets selects the shards whose data MBR can intersect win,
// the window a partitioned table's rows are confined to. ok reports
// whether there is a window at all: a windowless scan targets every
// shard, and is not counted against the prune rate (eligible).
func (cn *Conn) pruneTargets(info *tableInfo, win geom.Rect, ok bool) (targets []int, eligible bool) {
	cn.c.mu.Lock()
	defer cn.c.mu.Unlock()
	for i, m := range info.mbr {
		if !ok || m.Intersects(win) {
			targets = append(targets, i)
		}
	}
	return targets, ok
}

// seqRef builds an unresolved reference to the hidden sequence column.
func seqRef() *sql.ColumnRef { return &sql.ColumnRef{Column: SeqColumn} }

// plainScan fans an unordered scan out with _seq appended and
// stream-merges in _seq order, reproducing a single engine's heap-scan
// order. names are the result's column names, computed without
// consulting a shard (pruning may leave none).
func (cn *Conn) plainScan(ctx context.Context, t *sql.Select, info *tableInfo, names []string, starOnly bool, targets []int, eligible bool) (*res, error) {
	cn.c.countScatter(len(targets), cn.shards()-len(targets), eligible)

	cl := sql.CloneStatement(t).(*sql.Select)
	if !starOnly {
		// A star-only shard query already ends with the physical _seq
		// column; anything else selects it explicitly.
		cl.Exprs = append(cl.Exprs, sql.SelectExpr{Expr: seqRef()})
	}
	if cl.Limit >= 0 {
		cl.Limit += cl.Offset
		cl.Offset = 0
	}
	seqIdx := len(cl.Exprs) - 1
	if starOnly {
		seqIdx = len(info.cols)
	}
	sr := cn.startScatter(ctx, sameStmt(renderSelect(cl), targets))
	rows, err := collectMerged(sr, cl.Limit, seqLess(seqIdx))
	if err != nil {
		return nil, err
	}
	rows = sql.Window(rows, t.Offset, t.Limit)
	out := make([][]storage.Value, len(rows))
	for i, r := range rows {
		out[i] = r[:seqIdx]
	}
	return &res{cols: names, rows: out}, nil
}

// orderedScan fans a sorted scan out with the sort keys and _seq
// appended as extra columns, pushes LIMIT+OFFSET to the shards, and
// stream-merges the fragments by (keys, _seq) as they arrive.
func (cn *Conn) orderedScan(ctx context.Context, t *sql.Select, knn bool, names []string, targets []int, eligible bool) (*res, error) {
	cn.c.countScatter(len(targets), cn.shards()-len(targets), eligible)

	cl, keyStart, seqIdx := orderedRewrite(t, knn)
	sr := cn.startScatter(ctx, sameStmt(renderSelect(cl), targets))
	rows, err := collectMerged(sr, cl.Limit, keyLess(orderSpecs(t), keyStart, seqIdx))
	if err != nil {
		return nil, err
	}
	rows = sql.Window(rows, t.Offset, t.Limit)
	out := make([][]storage.Value, len(rows))
	for i, r := range rows {
		out[i] = r[:keyStart]
	}
	return &res{cols: names, rows: out}, nil
}

// orderedRewrite clones a sorted scan for the shards: sort keys and
// _seq appended to the projection, LIMIT+OFFSET pushed down, and _seq
// added as the final sort key for deterministic shard-side
// tie-breaking — except for kNN shapes, whose ORDER BY must stay
// untouched so each shard's planner can use its kNN index source (a
// shard then cuts ties in its plan's arrival order, as one engine does).
func orderedRewrite(t *sql.Select, knn bool) (cl *sql.Select, keyStart, seqIdx int) {
	cl = sql.CloneStatement(t).(*sql.Select)
	keyStart = len(cl.Exprs)
	for _, k := range t.OrderBy {
		cl.Exprs = append(cl.Exprs, sql.SelectExpr{Expr: k.Expr})
	}
	cl.Exprs = append(cl.Exprs, sql.SelectExpr{Expr: seqRef()})
	if !knn {
		// Deterministic shard-side tie-breaking: with LIMIT pushdown,
		// ties cut at the boundary must be the globally _seq-smallest
		// ones, or the global merge could drop a row the single engine
		// would keep.
		cl.OrderBy = append(cl.OrderBy, sql.OrderKey{Expr: seqRef()})
	}
	if cl.Limit >= 0 {
		cl.Limit += cl.Offset
		cl.Offset = 0
	}
	return cl, keyStart, keyStart + len(t.OrderBy)
}

// orderSpecs extracts the ORDER BY directions.
func orderSpecs(t *sql.Select) []keySpec {
	specs := make([]keySpec, len(t.OrderBy))
	for i, k := range t.OrderBy {
		specs[i] = keySpec{desc: k.Desc}
	}
	return specs
}

// knnScan answers a kNN-shaped query in two phases: the shard nearest
// the probe first, then only the shards whose data MBR can beat the
// k-th distance found so far. The distance key of any row is at least
// the distance from the shard's data MBR to the probe envelope, so a
// shard with mindist > bound cannot contribute — unless it holds rows
// with a NULL geometry, whose NULL key sorts before every distance;
// those shards are never bound-pruned. ok is false when the probe is
// not a usable constant (the plain ordered scatter handles it).
func (cn *Conn) knnScan(ctx context.Context, t *sql.Select, info *tableInfo, probe sql.Expr, names []string, targets []int) (*res, bool, error) {
	probeEnv, ok := sql.KNNProbe(probe, cn.c.reg)
	if !ok {
		return nil, false, nil
	}
	want := t.Limit + t.Offset
	if want == 0 || len(targets) == 0 {
		cn.c.countScatter(0, cn.shards(), true)
		return &res{cols: names}, true, nil
	}

	// Per-shard lower bound on any row's distance key; -1 marks shards
	// holding NULL-geometry rows, which no bound may prune.
	cn.c.mu.Lock()
	mindist := make(map[int]float64, len(targets))
	for _, s := range targets {
		if info.nullGeom[s] > 0 {
			mindist[s] = -1
		} else {
			mindist[s] = info.mbr[s].Distance(probeEnv)
		}
	}
	cn.c.mu.Unlock()
	ordered := append([]int(nil), targets...)
	sort.SliceStable(ordered, func(i, j int) bool {
		di, dj := mindist[ordered[i]], mindist[ordered[j]]
		if di != dj {
			return di < dj
		}
		return ordered[i] < ordered[j]
	})

	cl, keyStart, seqIdx := orderedRewrite(t, true)
	text := renderSelect(cl)
	less := keyLess(orderSpecs(t), keyStart, seqIdx)

	// Phase 1: the most promising shard alone, hoping it already holds
	// the full top-k.
	rs, err := cn.queryShard(ctx, ordered[0], text)
	if err != nil {
		return nil, true, err
	}
	merged := rs.Rows
	bound := knnBound(merged, want, keyStart)

	// Phase 2: only shards the bound cannot exclude.
	var phase2 []int
	for _, s := range ordered[1:] {
		if mindist[s] < 0 || mindist[s] <= bound {
			phase2 = append(phase2, s)
		}
	}
	sent := 1 + len(phase2)
	cn.c.countScatter(sent, cn.shards()-sent, true)
	if sent == 1 && cn.shards() > 1 {
		cn.c.countFastPath()
	}
	if len(phase2) > 0 {
		sr := cn.startScatter(ctx, sameStmt(text, phase2))
		err := sr.drain(func(f fragment) {
			merged = mergeRows(merged, f.rows, less)
			if len(merged) > want {
				merged = merged[:want]
			}
			if b := knnBound(merged, want, keyStart); b < bound {
				// A tighter bound abandons the shards it now excludes
				// (those that already answered are unaffected).
				bound = b
				for _, s := range phase2 {
					if mindist[s] >= 0 && mindist[s] > bound {
						sr.cancelShard(s)
					}
				}
			}
		})
		if err != nil {
			return nil, true, err
		}
	}
	if len(merged) > want {
		merged = merged[:want]
	}
	rows := sql.Window(merged, t.Offset, t.Limit)
	out := make([][]storage.Value, len(rows))
	for i, r := range rows {
		out[i] = r[:keyStart]
	}
	return &res{cols: names, rows: out}, true, nil
}

// knnBound is the current k-th distance: +Inf while fewer than want
// rows are known, -Inf when the k-th key is NULL (only NULL keys sort
// before it, and those all live on never-pruned shards).
func knnBound(merged [][]storage.Value, want, keyIdx int) float64 {
	if len(merged) < want {
		return math.Inf(1)
	}
	if f, ok := merged[want-1][keyIdx].AsFloat(); ok {
		return f
	}
	return math.Inf(-1)
}

// --- aggregate fast path -------------------------------------------------

// aggScan handles global aggregates (no GROUP BY) whose projection
// references columns only inside aggregate arguments: each shard
// computes partial states (sql.PartialItems) and the router merges and
// finalizes once, reproducing the single engine's results bit for bit.
// ok is false when the query shape needs the gather path instead.
func (cn *Conn) aggScan(ctx context.Context, b *boundSelect, names []string, targets []int, eligible bool) (*res, bool, error) {
	t := b.sel
	if len(t.GroupBy) > 0 || len(t.OrderBy) > 0 || t.Limit >= 0 || t.Offset > 0 {
		return nil, false, nil
	}
	items, ok := sql.PartialItems(b.exprs)
	if !ok {
		return nil, false, nil
	}
	shardSel := &sql.Select{
		Exprs: items,
		From:  &sql.TableRef{Table: t.From.Table, Alias: t.From.Alias},
		Where: t.Where,
		Limit: -1,
	}
	cn.c.countScatter(len(targets), cn.shards()-len(targets), eligible)
	sr := cn.startScatter(ctx, sameStmt(renderSelect(shardSel), targets))
	byShard, err := collectByShard(sr)
	if err != nil {
		return nil, true, err
	}
	row, err := cn.c.mergePartials(b.exprs, byShard, targets)
	if err != nil {
		return nil, true, err
	}
	return &res{cols: names, rows: [][]storage.Value{row}}, true, nil
}

// mergePartials finalizes a global aggregate's bound select list from
// the partial rows the shards returned, visiting them in shard order
// (MIN/MAX ties resolve to the earlier shard, matching the executor's
// parallel merge — which is why the collection is keyed by shard, not
// by arrival).
func (c *Cluster) mergePartials(exprs []sql.Expr, byShard map[int][][]storage.Value, shards []int) ([]storage.Value, error) {
	rows := make([][]storage.Value, len(shards))
	for i, s := range shards {
		if len(byShard[s]) != 1 {
			return nil, fmt.Errorf("cluster: shard %d returned %d aggregate rows", s, len(byShard[s]))
		}
		rows[i] = byShard[s][0]
	}
	return sql.MergePartials(exprs, rows, c.reg)
}

// --- DML routing ---------------------------------------------------------

func (cn *Conn) routeInsert(ctx context.Context, t *sql.Insert, orig string) (*res, error) {
	info := cn.c.lookup(t.Table)
	if info == nil {
		return cn.single(ctx, 0, orig)
	}
	if !info.partitioned() {
		affected, err := cn.broadcastExec(orig)
		if err != nil {
			return nil, err
		}
		return &res{affected: affected[0]}, nil
	}
	for _, row := range t.Rows {
		if len(row) != len(info.cols) {
			return nil, fmt.Errorf("cluster: INSERT into %s has %d values for %d columns",
				t.Table, len(row), len(info.cols))
		}
	}
	first := cn.c.allocSeq(info, len(t.Rows))
	perShard := make([][][]sql.Expr, cn.shards())
	envs := make([]geom.Rect, cn.shards())
	nulls := make([]int64, cn.shards())
	for i := range envs {
		envs[i] = geom.EmptyRect()
	}
	for i, row := range t.Rows {
		shard := 0
		g, ok := sql.ConstantGeometry(row[info.geomCol], cn.c.reg)
		if ok {
			shard = cn.c.part.Assign(g)
			envs[shard] = envs[shard].Union(g.Envelope())
		} else {
			// Possibly-NULL geometry: the row lands on shard 0, which
			// the kNN bound must then never prune (NULL keys sort
			// first). Over-counting here only costs pruning.
			nulls[0]++
		}
		withSeq := make([]sql.Expr, 0, len(row)+1)
		withSeq = append(withSeq, row...)
		withSeq = append(withSeq, &sql.Literal{Value: storage.NewInt(first + int64(i))})
		perShard[shard] = append(perShard[shard], withSeq)
	}

	errs := make([]error, cn.shards())
	var wg sync.WaitGroup
	for s, rows := range perShard {
		if len(rows) == 0 {
			continue
		}
		wg.Add(1)
		go func(s int, text string) {
			defer wg.Done()
			_, errs[s] = cn.sess[s].Exec(text)
		}(s, renderInsert(t.Table, rows))
	}
	wg.Wait()
	// Note every shard that was sent rows, failed or not: engine INSERT
	// is not atomic, so a failing shard may still hold the rows before
	// the bad one. Over-estimating the MBR and counts is sound; missing
	// stored rows would let pruning drop them.
	for s := range perShard {
		if len(perShard[s]) > 0 {
			cn.c.noteInsert(info, s, envs[s], int64(len(perShard[s])), nulls[s])
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &res{affected: len(t.Rows)}, nil
}

func (cn *Conn) routeUpdate(ctx context.Context, t *sql.Update, orig string) (*res, error) {
	info := cn.c.lookup(t.Table)
	if info == nil {
		return cn.single(ctx, 0, orig)
	}
	if info.partitioned() {
		geoName := info.cols[info.geomCol].Name
		for _, a := range t.Set {
			if a.Column == geoName {
				return nil, fmt.Errorf("cluster: UPDATE of partitioning geometry column %s is not supported", geoName)
			}
		}
	}
	affected, err := cn.broadcastExec(orig)
	if err != nil {
		return nil, err
	}
	return &res{affected: sumOrFirst(affected, info.partitioned())}, nil
}

func (cn *Conn) routeDelete(ctx context.Context, t *sql.Delete, orig string) (*res, error) {
	info := cn.c.lookup(t.Table)
	if info == nil {
		return cn.single(ctx, 0, orig)
	}
	affected, err := cn.broadcastExec(orig)
	if err != nil {
		return nil, err
	}
	if info.partitioned() {
		cn.c.mu.Lock()
		for s, n := range affected {
			info.rows[s] -= int64(n)
			// MBRs are not shrunk: a stale over-estimate only costs
			// pruning opportunities, never correctness.
			if info.rows[s] < 0 {
				info.rows[s] = 0
			}
		}
		cn.c.mu.Unlock()
	}
	return &res{affected: sumOrFirst(affected, info.partitioned())}, nil
}

// sumOrFirst totals per-shard affected counts for partitioned tables
// (rows are disjoint) and reports one shard's count for replicated
// tables (every shard did the same work).
func sumOrFirst(affected []int, partitioned bool) int {
	if !partitioned {
		return affected[0]
	}
	total := 0
	for _, n := range affected {
		total += n
	}
	return total
}

// --- DDL routing ---------------------------------------------------------

func (cn *Conn) routeCreateTable(t *sql.CreateTable) (*res, error) {
	info := &tableInfo{
		name:    t.Name,
		cols:    append([]sql.Column(nil), t.Columns...),
		geomCol: -1,
	}
	for i, col := range t.Columns {
		if col.Type == storage.TypeGeom {
			info.geomCol = i
			break
		}
	}
	if _, err := cn.broadcastExec(shardDDL(info)); err != nil {
		return nil, err
	}
	cn.c.mu.Lock()
	cn.c.registerLocked(t)
	cn.c.mu.Unlock()
	return &res{}, nil
}

// --- EXPLAIN -------------------------------------------------------------

// routeExplain reports a synthetic router-level plan in the same
// column shape as the engine's EXPLAIN: each binding pruned by the
// conjuncts the gather pushes to it.
func (cn *Conn) routeExplain(t *sql.Explain) (*res, error) {
	b, err := cn.c.bindSelect(t.Query)
	switch {
	case err != nil:
		return nil, err
	case b == nil:
		return cn.single(context.Background(), 0, "EXPLAIN "+renderSelect(t.Query))
	}
	out := &res{cols: []string{"table", "access", "rows"}}
	for i, r := range b.refs {
		info := b.infos[i]
		access := "replicated(shard 0)"
		total := int64(0)
		if info.partitioned() {
			win, ok := b.window(i, cn.c.reg)
			targets, _ := cn.pruneTargets(info, win, ok)
			if len(targets) == 1 {
				access = fmt.Sprintf("fastpath(shard %d of %d)", targets[0], cn.shards())
			} else {
				access = fmt.Sprintf("scatter(%d of %d shards)", len(targets), cn.shards())
			}
			cn.c.mu.Lock()
			for _, n := range info.rows {
				total += n
			}
			cn.c.mu.Unlock()
		}
		out.rows = append(out.rows, []storage.Value{
			storage.NewText(r.Name()),
			storage.NewText(access),
			storage.NewInt(total),
		})
	}
	return out, nil
}
