package sql

import (
	"container/heap"
	"fmt"
	"math"
	"math/big"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"jackpine/internal/geom"
	"jackpine/internal/index/btree"
	"jackpine/internal/overlay"
	"jackpine/internal/storage"
)

// Result is the outcome of executing a statement.
type Result struct {
	// Columns names the output columns (queries only).
	Columns []string
	// Rows holds the materialized result rows (queries only).
	Rows [][]storage.Value
	// Affected counts modified rows (DML) or is 0 for DDL.
	Affected int
	// Access describes the chosen access paths per table binding, for
	// inspection by tests and the benchmark reporter.
	Access []string
}

// Runner binds a catalog and function registry into a statement executor.
type Runner struct {
	cat  Catalog
	reg  *Registry
	par  int  // worker pool size for parallel-eligible queries (>= 1)
	prep bool // prepare constant sides of topological predicates

	// Batch activity counters (equivalence tests assert the intended
	// path actually ran): batches processed and rows entering the batch
	// filter cascade.
	batchBatches atomic.Int64
	batchRows    atomic.Int64

	// Spatial-join strategy knob and activity counters.
	joinStrategy JoinStrategy
	joinINL      atomic.Int64
	joinPBSM     atomic.Int64
	pbsmCells    atomic.Int64
	pbsmDedup    atomic.Int64
	pbsmHits     atomic.Int64

	// pbsmCache retains built sweep states across statements, keyed by
	// join shape and validated against table data versions on every
	// acquisition. Guarded by pbsmMu.
	pbsmMu    sync.Mutex
	pbsmCache map[pbsmKey]*pbsmState
}

// NewRunner creates an executor over the catalog using the registry's
// function semantics. Parallelism defaults to GOMAXPROCS; topological
// constant-side preparation is on.
func NewRunner(cat Catalog, reg *Registry) *Runner {
	r := &Runner{cat: cat, reg: reg, prep: true}
	r.SetParallelism(0)
	return r
}

// SetTopoPrep toggles prepared-geometry evaluation of topological
// predicates (the constant query window in filters, the outer row of
// index-nested-loop spatial joins). On by default; the off position
// exists for equivalence testing and measurement. Not safe to call
// concurrently with running queries.
func (r *Runner) SetTopoPrep(enabled bool) { r.prep = enabled }

// BatchStats returns the cumulative batch activity: batches processed
// and rows that entered the batch filter cascade.
func (r *Runner) BatchStats() (batches, rows int64) {
	return r.batchBatches.Load(), r.batchRows.Load()
}

// ResetBatchStats zeroes the batch activity counters.
func (r *Runner) ResetBatchStats() {
	r.batchBatches.Store(0)
	r.batchRows.Store(0)
}

// Registry returns the function registry (engine feature inspection).
func (r *Runner) Registry() *Registry { return r.reg }

// SetParallelism sets the worker pool size used by parallel-eligible
// query plans. n <= 0 resets to runtime.GOMAXPROCS(0); 1 forces serial
// execution. Not safe to call concurrently with running queries.
func (r *Runner) SetParallelism(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	r.par = n
}

// Parallelism reports the configured worker pool size.
func (r *Runner) Parallelism() int { return r.par }

// Run parses and executes one SQL statement.
func (r *Runner) Run(query string) (*Result, error) {
	stmt, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return r.Execute(stmt)
}

// Execute runs a parsed statement.
func (r *Runner) Execute(stmt Statement) (*Result, error) {
	switch t := stmt.(type) {
	case *CreateTable:
		if err := r.cat.CreateTable(t.Name, t.Columns); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *CreateIndex:
		if err := r.cat.CreateIndex(t.Name, t.Table, t.Columns, t.Spatial); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *Insert:
		return r.execInsert(t)
	case *Select:
		return r.execSelect(t, false, nil)
	case *Explain:
		return r.execSelect(t.Query, true, nil)
	case *Vacuum:
		if err := r.cat.Vacuum(t.Table); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *DropTable:
		if err := r.cat.DropTable(t.Table, t.IfExists); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *Update:
		return r.execUpdate(t)
	case *Delete:
		return r.execDelete(t)
	}
	return nil, fmt.Errorf("sql: unsupported statement %T", stmt)
}

func (r *Runner) table(name string) (Table, error) {
	tbl, ok := r.cat.Table(name)
	if !ok {
		return nil, fmt.Errorf("sql: unknown table %q", name)
	}
	return tbl, nil
}

// --- INSERT -------------------------------------------------------------

func (r *Runner) execInsert(ins *Insert) (*Result, error) {
	tbl, err := r.table(ins.Table)
	if err != nil {
		return nil, err
	}
	cols := tbl.Columns()
	n := 0
	for _, rowExprs := range ins.Rows {
		if len(rowExprs) != len(cols) {
			return nil, fmt.Errorf("sql: INSERT into %s needs %d values, got %d",
				ins.Table, len(cols), len(rowExprs))
		}
		row := make([]storage.Value, len(cols))
		for i, e := range rowExprs {
			v, err := evalConst(e, r.reg)
			if err != nil {
				return nil, err
			}
			cv, err := coerce(v, cols[i])
			if err != nil {
				return nil, err
			}
			row[i] = cv
		}
		if _, err := tbl.Insert(row); err != nil {
			return nil, err
		}
		n++
	}
	return &Result{Affected: n}, nil
}

// coerce adapts a value to a column type where a lossless conversion
// exists.
func coerce(v storage.Value, col Column) (storage.Value, error) {
	if v.IsNull() || v.Type == col.Type {
		return v, nil
	}
	switch {
	case col.Type == storage.TypeFloat && v.Type == storage.TypeInt:
		return storage.NewFloat(float64(v.Int)), nil
	case col.Type == storage.TypeInt && v.Type == storage.TypeFloat && v.Float == float64(int64(v.Float)):
		return storage.NewInt(int64(v.Float)), nil
	case col.Type == storage.TypeGeom && v.Type == storage.TypeText:
		g, err := geom.ParseWKT(v.Text)
		if err != nil {
			return storage.Null(), fmt.Errorf("sql: column %s: %w", col.Name, err)
		}
		return storage.NewGeom(g), nil
	}
	return storage.Null(), fmt.Errorf("sql: cannot store %s in %s column %s", v.Type, col.Type, col.Name)
}

// --- SELECT -------------------------------------------------------------

// emitFn receives rows; returning false stops production. The row is
// borrowed: it is valid only for the duration of the call, because its
// producer refills the same scratch tuple for the next row. A consumer
// may read it, or pass it on to another emitFn, but must not write it;
// a sink that keeps a row copies it.
type emitFn func(row []storage.Value) (bool, error)

// OutputNames names a SELECT's result columns over its scope: a star
// expands to every scope column, an aliased item takes its alias, any
// other item its expression text in lower case.
func OutputNames(sel *Select, scope *Scope) []string {
	var names []string
	for _, se := range sel.Exprs {
		switch {
		case se.Star:
			for i := 0; i < scope.Len(); i++ {
				names = append(names, scope.Column(i).Name)
			}
		case se.Alias != "":
			names = append(names, se.Alias)
		default:
			names = append(names, strings.ToLower(se.Expr.String()))
		}
	}
	return names
}

// execSelect plans and runs a SELECT. With rowIDs non-nil it is a DML
// row selection instead: *rowIDs receives, in heap order, the ids of
// the rows the statement would return, and nothing is projected.
func (r *Runner) execSelect(sel *Select, explainOnly bool, rowIDs *[]RowID) (*Result, error) {
	// Build the scope over FROM + JOIN tables.
	scope := NewScope()
	var tables []boundTable
	addTable := func(ref *TableRef) error {
		tbl, err := r.table(ref.Table)
		if err != nil {
			return err
		}
		lo := scope.Len()
		scope.AddTable(ref.Name(), tbl.Columns())
		tables = append(tables, boundTable{tbl: tbl, binding: ref.Name(), lo: lo, hi: scope.Len()})
		return nil
	}
	if sel.From == nil {
		return nil, fmt.Errorf("sql: SELECT requires FROM")
	}
	if err := addTable(sel.From); err != nil {
		return nil, err
	}
	for _, j := range sel.Joins {
		if err := addTable(j.Table); err != nil {
			return nil, err
		}
	}

	// Bind into this execution's private tree (bind.go); sel is only
	// read. exprs is the bound select list (nil at a star), order the
	// bound ORDER BY keys of a non-aggregate plan (grouped ORDER BY keys
	// name output columns and stay unbound).
	hasAgg := len(sel.GroupBy) > 0
	exprs := make([]Expr, len(sel.Exprs))
	for i, se := range sel.Exprs {
		if se.Star {
			continue
		}
		e, err := Bind(se.Expr, scope, r.reg, true)
		if err != nil {
			return nil, err
		}
		exprs[i] = e
		hasAgg = hasAgg || HasAggregate(e)
	}
	var conjuncts []Expr
	conds := []Expr{sel.Where}
	for _, j := range sel.Joins {
		conds = append(conds, j.On)
	}
	for _, c := range conds {
		b, err := Bind(c, scope, r.reg, false)
		if err != nil {
			return nil, err
		}
		conjuncts = append(conjuncts, splitConjuncts(b)...)
	}
	group, err := bindAll(scope, r.reg, false, sel.GroupBy...)
	if err != nil {
		return nil, err
	}
	var order []Expr
	if !hasAgg {
		order = make([]Expr, len(sel.OrderBy))
		for i, k := range sel.OrderBy {
			if order[i], err = Bind(k.Expr, scope, r.reg, false); err != nil {
				return nil, err
			}
		}
	}

	// Stage slots: replace every call-bearing subtree owned by an earlier
	// stage than its consumer (see hoist.go). A conjunct is consumed at
	// the earliest stage binding all of its references, the sinks at the
	// last stage. Rows are scope-wide plus one position per aggregate
	// call, where the aggregator writes each group's results; stage
	// cells follow.
	h := hoister{reg: r.reg, tables: tables, width: scope.Len() + scope.aggs}
	h.hoistSinks(exprs, order)
	filterStage := func(c Expr) int {
		if s := stageOf(tables, maxRef(c)); s > 0 {
			return s
		}
		return 0
	}
	for i, c := range conjuncts {
		conjuncts[i] = h.hoist(c, filterStage(c), "filter")
	}

	// Prepare the constant side of topological predicates once per
	// execution (the literal query window of the micro queries), before
	// any worker fan-out.
	r.prepareCalls(conjuncts)
	r.prepareCalls(exprs)

	// Choose access paths: each conjunct is attached to the earliest
	// pipeline stage at which all of its references are available.
	stageFilters := make([][]Expr, len(tables))
	paths := make([]accessPath, len(tables))
	for i, bt := range tables {
		paths[i] = pickAccess(bt.tbl, bt.lo, bt.hi, scope, conjuncts, r.reg)
	}
	// kNN upgrade for the single-table pattern, over a full scan or an
	// attribute path the browse beats.
	if !hasAgg && len(tables) == 1 {
		if p, ok := tryKNN(sel, order, tables[0].tbl, scope, r.reg); ok && r.browseBeats(paths[0], sel, tables[0].tbl) {
			paths[0] = p
		}
	}
	for _, c := range conjuncts {
		stage := filterStage(c)
		stageFilters[stage] = append(stageFilters[stage], c)
	}
	// Spatial-predicate joins over exactly two tables may swap the
	// per-outer-row index probe for a partitioned sweep (PBSM). Mutates
	// paths[1] and, in fast-refine mode, stageFilters[1] — so it must
	// run before the prep-spec and batch classification below.
	if len(tables) == 2 {
		r.planPBSM(scope, conjuncts, stageFilters, paths,
			tables[0].tbl, tables[1].tbl, tables[1].lo, tables[1].hi)
	}
	for i := range paths {
		probe, expand := paths[i].windowExprs()
		markUse(probe, "window")
		markUse(expand, "window")
	}
	// Stage filters compile once per plan (filter.go): comparisons into
	// comparators, and, in join stages, residual spatial predicates whose
	// one side is fixed by the outer row, so each probe prepares the
	// outer geometry once instead of re-decomposing it per inner row.
	stagePlans := make([]*filterPlan, len(tables))
	for i, bt := range tables {
		stagePlans[i] = r.compileFilters(stageFilters[i], bt.lo)
	}

	// Column pruning: mark every scope column the plan references so
	// scans and fetches can skip decoding the rest. ORDER BY only reads
	// scope columns on the non-aggregate path (grouped ORDER BY keys
	// name output columns).
	need := make([]bool, scope.Len())
	allCols := false
	for _, se := range sel.Exprs {
		allCols = allCols || se.Star
	}
	sinks := slices.Concat(exprs, group, order)
	markColumns(need, sinks...)
	markColumns(need, conjuncts...)
	if !allCols {
		for i, bt := range tables {
			paths[i].need = need[bt.lo:bt.hi]
		}
	}

	// How many workers run stage 0, and ephemeral classification:
	// stage-0 geometry columns that only this stage's filters read may be
	// decoded into recycled arena memory, since emitted survivor rows
	// NULL them before anything downstream could observe the value. A
	// parallel stage 0 runs its join stages inside each worker, and shard
	// results merge deterministically in shard order.
	bareLimit := sel.Limit >= 0 && !hasAgg && len(sel.OrderBy) == 0
	workers := r.stage0Workers(tables[0].tbl, paths[0].kind, bareLimit)
	if !allCols {
		needElse := make([]bool, scope.Len())
		markColumns(needElse, sinks...)
		for i := 1; i < len(tables); i++ {
			markColumns(needElse, stageFilters[i]...)
			// A PBSM fast-refine conjunct was stripped from the stage
			// filters but its outer geometry is still read by the probe;
			// it must not be classified ephemeral.
			if spec := paths[i].pbsm; spec != nil && spec.refineFC != nil {
				markColumns(needElse, spec.refineFC)
			}
		}
		var eph []bool
		for i := 0; i < tables[0].hi; i++ {
			if need[i] && !needElse[i] && scope.Column(i).Type == storage.TypeGeom {
				if eph == nil {
					eph = make([]bool, tables[0].hi)
				}
				eph[i] = true
			}
		}
		paths[0].ephemeral = eph
	}

	// Pipeline: scan stage 0, then probe each join stage's operator,
	// applying stage filters.
	// Rows are scope-wide, plus one position per aggregate call, plus,
	// when any stage owns slots, one hidden cell position per non-final
	// stage, plus, for a DML row selection, one last hidden position that
	// stage 0 fills with the row id, or, when a PBSM state supplies stage
	// 0's rows, one that carries each row's index into the state.
	width := h.width
	cells := h.cells
	if cells != nil {
		width += len(tables) - 1
	}
	if rowIDs != nil {
		paths[0].idPos = width
		width++
	}
	// A PBSM stage over an unfiltered full scan of stage 0 holds the
	// outer rows in its state, and stage 0 reads them there: that scan
	// decodes every outer row anyway. A filtered scan keeps streaming and
	// decodes only what its filters need until a row survives
	// (batchPlan.eager): a decoded copy of the whole outer layer would
	// cost memory and decoding for every row it drops. A bare LIMIT
	// scan, which stops early, keeps scanning the heap too.
	fromState := !bareLimit && len(tables) == 2 && paths[1].kind == accessPBSM &&
		paths[0].kind == accessFullScan && len(stageFilters[0]) == 0
	if fromState {
		paths[1].pbsm.outerAt, paths[1].pbsm.outerNeed = width, paths[0].need
		width++
	}
	joins := make([]*joinOp, len(tables))
	for i := 1; i < len(tables); i++ {
		joins[i] = r.newJoinOp(tables[i].tbl, paths[i], tables[i].lo)
	}
	var src *joinOp
	if fromState {
		src = joins[1]
	}
	// filterRows applies a join stage's residual filters, through one
	// worker's evaluator, to each of its rows and hands the survivors to
	// out.
	filterRows := func(fx *filterExec, out emitFn) emitFn {
		if len(fx.plan.filters) == 0 {
			return out
		}
		return func(row []storage.Value) (bool, error) {
			keep, err := fx.keep(row)
			fx.flush()
			if err != nil || !keep {
				return err == nil, err
			}
			return out(row)
		}
	}
	// joinStage drives each outer row through join stage >= 1 into
	// emitRow. Its reader owns the tuple the outer prefix is copied into
	// once per probe and each candidate's inner columns once per
	// candidate, and the scratch its reads go through; fx is the stage's
	// filter evaluator, whose per-probe state each outer row resets.
	joinStage := func(stage int, fx *filterExec, emitRow emitFn) emitFn {
		rd := joins[stage].reader(width, emitRow)
		return func(prefix []storage.Value) (bool, error) {
			copy(rd.full, prefix)
			if cells != nil && cells[stage-1] > 0 {
				// The outer row enters its join stage: give it the cell every
				// tuple derived from it will share.
				rd.full[h.width+stage-1] = storage.Value{
					Geom: &stageCell{slots: make([]slotVal, cells[stage-1])}}
			}
			fx.newProbe()
			return rd.read()
		}
	}
	// pipeline builds one worker's join stages over its sink, once per
	// shard, and returns their entry past stage 0's filters, which the
	// batch cascade applies.
	pipeline := func(sink emitFn) emitFn {
		forward := sink
		for stage := len(tables) - 1; stage > 0; stage-- {
			fx := stagePlans[stage].exec()
			forward = joinStage(stage, fx, filterRows(fx, forward))
		}
		return forward
	}

	// Sinks: aggregation, ordering, limit, projection.
	res := &Result{}
	labels := make([]string, len(tables))
	labels[0] = paths[0].kind.String()
	if workers > 1 {
		labels[0] = fmt.Sprintf("parallel %s (%d workers)", labels[0], workers)
	}
	for i := 1; i < len(tables); i++ {
		labels[i] = joins[i].label
	}
	for i, bt := range tables {
		res.Access = append(res.Access, bt.binding+":"+labels[i])
	}
	if explainOnly {
		res.Columns = []string{"table", "access", "rows"}
		for i, bt := range tables {
			res.Rows = append(res.Rows, []storage.Value{
				storage.NewText(bt.binding),
				storage.NewText(labels[i]),
				storage.NewInt(int64(bt.tbl.RowCount())),
			})
		}
		res.Rows = append(res.Rows, h.explainRows()...)
		// Stage 0 tests its column-versus-literal comparisons on every
		// stored tuple it reads before copying it.
		for _, f := range stagePlans[0].filters {
			if _, ok := f.cmp.pushdown(tables[0].hi); ok {
				res.Rows = append(res.Rows, []storage.Value{
					storage.NewText("prefilter"),
					storage.NewText(fmt.Sprintf("stage=%s %s", tables[0].binding, f.expr)),
					storage.NewInt(int64(tables[0].tbl.RowCount())),
				})
			}
		}
		return res, nil
	}
	// A join statement counts once, under its first join stage's strategy.
	if len(tables) > 1 && joins[1].stat != nil {
		joins[1].stat.Add(1)
	}

	// Collected before stage 0 is built, so an invalid select list fails
	// ahead of any window evaluation, as it always has on serial plans.
	var aggs []*aggRef
	if hasAgg {
		if aggs, err = collectAggregates(sel, exprs); err != nil {
			return nil, err
		}
	}
	// The ORDER BY sink of a non-aggregate plan; a kNN source stops at its
	// k-th distance.
	var sorted *orderSink
	if !hasAgg && len(sel.OrderBy) > 0 {
		sorted = newOrderSink(sel)
		paths[0].knnBound = sorted.bound
	}
	// Stage 0: serial plans are the one-worker case of the same source.
	runShard, err := r.stage0Source(tables[0].tbl, &paths[0], stagePlans[0],
		width, workers, src, pipeline)
	if err != nil {
		return nil, err
	}
	if rowIDs != nil {
		parts := make([][]RowID, workers)
		if err := runShards(workers, runShard, func(w int) emitFn {
			return func(row []storage.Value) (bool, error) {
				parts[w] = append(parts[w], RowID(row[paths[0].idPos].Int))
				return true, nil
			}
		}); err != nil {
			return nil, err
		}
		// Index-driven plans yield index order; heap order is ascending
		// RowID (a heap's pages are allocated in increasing id order).
		*rowIDs = slices.Concat(parts...)
		slices.Sort(*rowIDs)
		return res, nil
	}

	res.Columns = OutputNames(sel, scope)

	project := func(row []storage.Value) ([]storage.Value, error) {
		out := make([]storage.Value, 0, len(res.Columns))
		for i, e := range exprs {
			if sel.Exprs[i].Star {
				out = append(out, row[:scope.Len()]...)
				continue
			}
			v, err := Eval(e, row, r.reg)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		return out, nil
	}

	// For non-aggregate parallel plans the shards are gathered up front
	// (these sinks materialize anyway) and replayed as one shard in shard
	// order, so every sink below streams shard 0 as a serial plan does.
	if workers > 1 && !hasAgg {
		if runShard, err = gatherShards(workers, runShard); err != nil {
			return nil, err
		}
	}

	switch {
	case hasAgg:
		rows, err := r.aggregateShards(group, exprs, aggs, width, workers, runShard)
		if err != nil {
			return nil, err
		}
		if len(sel.OrderBy) > 0 {
			rows, err = sortAggregateRows(sel, res.Columns, rows)
			if err != nil {
				return nil, err
			}
		} else {
			rows = Window(rows, sel.Offset, sel.Limit)
		}
		res.Rows = rows
	case sorted != nil:
		// Materialize with sort keys, order, then project.
		keys := make([]storage.Value, len(order))
		err := runShard(0, func(row []storage.Value) (bool, error) {
			for i, k := range order {
				v, err := Eval(k, row, r.reg)
				if err != nil {
					return false, err
				}
				keys[i] = v
			}
			sorted.add(keys, row)
			return true, nil
		})
		if err != nil {
			return nil, err
		}
		for _, row := range sorted.result() {
			out, err := project(row)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, out)
		}
	default:
		limit := sel.Limit
		offset := sel.Offset
		skipped := 0
		err := runShard(0, func(row []storage.Value) (bool, error) {
			if limit >= 0 && len(res.Rows) >= limit {
				return false, nil
			}
			if skipped < offset {
				skipped++
				return true, nil
			}
			out, err := project(row)
			if err != nil {
				return false, err
			}
			res.Rows = append(res.Rows, out)
			return limit < 0 || len(res.Rows) < limit, nil
		})
		if err != nil {
			return nil, err
		}
	}
	if res.Rows == nil {
		res.Rows = [][]storage.Value{}
	}
	return res, nil
}

// markColumns sets mask[i] for every scope column the bound exprs
// reference.
func markColumns(mask []bool, exprs ...Expr) {
	for _, e := range exprs {
		walkExpr(e, func(x Expr) {
			if c, ok := x.(*colRef); ok && c.idx < len(mask) {
				mask[c.idx] = true
			}
		})
	}
}

// sortAggregateRows orders grouped output rows and applies OFFSET and
// LIMIT. After aggregation, ORDER BY keys must name output columns: by
// alias or column name, by 1-based ordinal, or by textually matching a
// select expression.
func sortAggregateRows(sel *Select, outCols []string, rows [][]storage.Value) ([][]storage.Value, error) {
	keyIdx := make([]int, len(sel.OrderBy))
	for i, ok := range sel.OrderBy {
		idx := -1
		switch t := ok.Expr.(type) {
		case *Literal:
			if t.Value.Type == storage.TypeInt && t.Value.Int >= 1 && int(t.Value.Int) <= len(outCols) {
				idx = int(t.Value.Int) - 1
			}
		case *ColumnRef:
			for j, name := range outCols {
				if name == strings.ToLower(t.Column) {
					idx = j
					break
				}
			}
		}
		if idx < 0 {
			want := strings.ToLower(ok.Expr.String())
			for j, name := range outCols {
				if name == want {
					idx = j
					break
				}
			}
			// Fall back to matching the un-aliased select expressions.
			for j, se := range sel.Exprs {
				if !se.Star && se.Expr != nil && strings.ToLower(se.Expr.String()) == want {
					idx = j
					break
				}
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("sql: ORDER BY %s must name an output column when grouping", ok.Expr)
		}
		keyIdx[i] = idx
	}
	s := newOrderSink(sel)
	keys := make([]storage.Value, len(keyIdx))
	for _, row := range rows {
		for k, idx := range keyIdx {
			keys[k] = row[idx]
		}
		s.add(keys, row)
	}
	return s.result(), nil
}

// orderSink is the one ORDER BY sink: it orders rows by their keys under
// the ORDER BY directions, ties by arrival, which is the order a stable
// sort of every row gives. With a LIMIT it keeps only the first
// offset+limit rows, in a heap whose root is the last of them.
type orderSink struct {
	sel  *Select
	keep int // rows kept: offset+limit, or -1 for all
	rows []keyedRow
	seq  int
}

// keyedRow is a row kept by the sink, with its keys and arrival number.
type keyedRow struct {
	row, keys []storage.Value
	seq       int
}

func newOrderSink(sel *Select) *orderSink {
	s := &orderSink{sel: sel, keep: -1}
	if sel.Limit >= 0 {
		s.keep = sel.Offset + sel.Limit
	}
	return s
}

// compare orders two rows by their keys under the ORDER BY directions,
// then by arrival.
func (s *orderSink) compare(a, b *keyedRow) int {
	for k, o := range s.sel.OrderBy {
		if c, _ := storage.Compare(a.keys[k], b.keys[k]); c != 0 {
			if o.Desc {
				return -c
			}
			return c
		}
	}
	return a.seq - b.seq
}

// The heap of a LIMIT sink puts the last row kept at the root.
func (s *orderSink) Len() int           { return len(s.rows) }
func (s *orderSink) Less(i, j int) bool { return s.compare(&s.rows[i], &s.rows[j]) > 0 }
func (s *orderSink) Swap(i, j int)      { s.rows[i], s.rows[j] = s.rows[j], s.rows[i] }
func (s *orderSink) Push(x any)         { s.rows = append(s.rows, x.(keyedRow)) }
func (s *orderSink) Pop() any           { r := s.rows[len(s.rows)-1]; s.rows = s.rows[:len(s.rows)-1]; return r }

// add offers one row with its keys, both borrowed; the sink copies them
// if it keeps the row.
func (s *orderSink) add(keys, row []storage.Value) {
	s.seq++
	kr := keyedRow{keys: keys, seq: s.seq}
	switch {
	case s.keep < 0 || len(s.rows) < s.keep:
		kr.row, kr.keys = slices.Clone(row), slices.Clone(keys)
		if s.rows = append(s.rows, kr); len(s.rows) == s.keep {
			heap.Init(s)
		}
	case s.keep > 0 && s.compare(&kr, &s.rows[0]) < 0:
		// The row displaces the last one kept.
		top := &s.rows[0]
		copy(top.keys, keys)
		top.row = append(top.row[:0], row...)
		top.seq = kr.seq
		heap.Fix(s, 0)
	}
}

// bound is the first key of the last row the result can hold, as a
// float: -Inf when the sink keeps no row or that key is NULL, which only
// NULL can precede, and +Inf while the sink keeps any row offered or the
// key is NaN or not a number.
func (s *orderSink) bound() float64 {
	switch {
	case s.keep < 0 || len(s.rows) < s.keep:
		return math.Inf(1)
	case s.keep == 0 || s.rows[0].keys[0].IsNull():
		return math.Inf(-1)
	}
	if f, ok := s.rows[0].keys[0].AsFloat(); ok && !math.IsNaN(f) {
		return f
	}
	return math.Inf(1)
}

// result returns the ordered rows within OFFSET and LIMIT.
func (s *orderSink) result() [][]storage.Value {
	slices.SortFunc(s.rows, func(a, b keyedRow) int { return s.compare(&a, &b) })
	out := make([][]storage.Value, len(s.rows))
	for i := range s.rows {
		out[i] = s.rows[i].row
	}
	return Window(out, s.sel.Offset, s.sel.Limit)
}

// Window applies OFFSET and LIMIT (limit < 0: none) to ordered rows.
func Window(rows [][]storage.Value, offset, limit int) [][]storage.Value {
	rows = rows[min(offset, len(rows)):]
	if limit >= 0 && limit < len(rows) {
		rows = rows[:limit]
	}
	return rows
}

// idProbe is an index path's probe evaluated against one outer row
// (nil for stage 0): the window a spatial-window path searches, the key
// a B-tree seek looks up, or the key range a B-tree range walks. Stage 0
// evaluates its probe once; a worker's join stage evaluates one per
// outer row into the same idProbe, reusing its key buffers.
type idProbe struct {
	path   *accessPath
	window geom.Rect
	lo, hi []byte // the seek key, or the range's bounds
	hiInc  bool
}

// eval evaluates path's probe against row. It is false when no row can
// match: an empty window, or a NULL or unrepresentable key.
func (p *idProbe) eval(path *accessPath, row []storage.Value, reg *Registry) (bool, error) {
	p.path = path
	if path.kind == accessSpatialWindow {
		w, err := path.evalWindow(row, reg)
		p.window = w
		return err == nil && !w.IsEmpty(), err
	}
	// The equality probes build the key, or the prefix a range extends;
	// a NULL or unrepresentable probe matches nothing.
	key := p.lo[:0]
	for i, e := range path.eqExprs {
		v, err := Eval(e, row, reg)
		if err != nil {
			return false, err
		}
		k, ok := appendKeyComponent(key, v, path.eqTypes[i])
		if !ok {
			return false, nil
		}
		key = k
	}
	p.lo = key
	if path.kind == accessAttrSeek {
		return true, nil
	}
	// A range past the equality prefix: its bounds on the next column,
	// each dropped when it cannot be encoded, the upper one honoured
	// only on the index's last column.
	var lo, hi storage.Value
	var err error
	if path.rangeLo != nil {
		if lo, err = Eval(path.rangeLo, row, reg); err != nil {
			return false, err
		}
	}
	if path.rangeHi != nil && path.rangeLast {
		if hi, err = Eval(path.rangeHi, row, reg); err != nil {
			return false, err
		}
	}
	if k, ok := appendKeyComponent(append(p.hi[:0], key...), hi, path.rangeType); ok {
		p.hi, p.hiInc = k, true
	} else {
		p.hi, p.hiInc = btree.PrefixSuccessor(key), false
	}
	if k, ok := appendKeyComponent(key, lo, path.rangeType); ok {
		p.lo = k
	}
	return true, nil
}

// search feeds fn the row ids the evaluated probe finds, in index
// order, until fn returns false.
func (p *idProbe) search(fn func(RowID) bool) {
	switch path := p.path; path.kind {
	case accessSpatialWindow:
		path.spatial.Search(p.window, fn)
	case accessAttrSeek:
		path.attr.Seek(p.lo, fn)
	default:
		lo := p.lo
		if len(lo) == 0 {
			lo = nil
		}
		path.attr.Range(lo, p.hi, true, p.hiInc, fn)
	}
}

// appendKeyComponent appends one probe value in the index key encoding
// of the column type (matching the engine's index maintenance encoding).
func appendKeyComponent(dst []byte, v storage.Value, colType storage.ValueType) ([]byte, bool) {
	if v.IsNull() {
		return nil, false
	}
	switch colType {
	case storage.TypeInt, storage.TypeBool:
		switch v.Type {
		case storage.TypeInt, storage.TypeBool:
			return btree.AppendInt(dst, v.Int), true
		case storage.TypeFloat:
			if v.Float == float64(int64(v.Float)) {
				return btree.AppendInt(dst, int64(v.Float)), true
			}
		}
	case storage.TypeFloat:
		if f, ok := v.AsFloat(); ok {
			return btree.AppendFloat(dst, f), true
		}
	case storage.TypeText:
		if v.Type == storage.TypeText {
			return btree.AppendText(dst, v.Text), true
		}
	}
	return nil, false
}

// --- aggregation ---------------------------------------------------------

type aggState struct {
	count   int64
	sum     *big.Float // exact SUM/AVG accumulator, lazily allocated
	sumBad  float64    // non-finite inputs, kept outside the exact sum
	hasBad  bool
	sumInt  int64
	intOnly bool
	min     storage.Value
	max     storage.Value
	seen    bool
	geoms   []geom.Geometry // ST_UNION accumulator
	extent  geom.Rect       // ST_EXTENT accumulator
}

// newAggStates returns n fresh states. Every state starts on the
// integer SUM path, so merging a state that saw no rows — a worker's or
// a shard's empty group — never turns an integer SUM into a float.
func newAggStates(n int) []aggState {
	states := make([]aggState, n)
	for i := range states {
		states[i].intOnly = true
	}
	return states
}

// sumPrec makes big.Float addition of float64 terms exact: the full
// double exponent range (~2098 bits) plus headroom for carries, so the
// sum is independent of accumulation order and serial and parallel
// plans produce bit-identical SUM/AVG results.
const sumPrec = 2304

// addSum folds one finite or non-finite term into the accumulator.
func (st *aggState) addSum(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		st.sumBad += f
		st.hasBad = true
		return
	}
	if st.sum == nil {
		st.sum = new(big.Float).SetPrec(sumPrec)
	}
	st.sum.Add(st.sum, new(big.Float).SetPrec(sumPrec).SetFloat64(f))
}

// sumFloat rounds the exact accumulator to float64.
func (st *aggState) sumFloat() float64 {
	var f float64
	if st.sum != nil {
		f, _ = st.sum.Float64()
	}
	if st.hasBad {
		f += st.sumBad
	}
	return f
}

// collectAggregates gathers the aggregate calls of the bound select
// list.
func collectAggregates(sel *Select, exprs []Expr) ([]*aggRef, error) {
	var aggs []*aggRef
	for i, e := range exprs {
		if sel.Exprs[i].Star {
			return nil, fmt.Errorf("sql: SELECT * cannot be combined with aggregates")
		}
		walkExpr(e, func(x Expr) {
			if a, ok := x.(*aggRef); ok {
				aggs = append(aggs, a)
			}
		})
	}
	return aggs, nil
}

// aggGroup holds one group's representative row and aggregate states.
type aggGroup struct {
	firstRow []storage.Value
	states   []aggState
}

// aggregator folds rows into grouped aggregate states. Each worker of a
// parallel plan owns one; partials merge in shard order, which keeps
// group order and tie-breaks identical to a serial run. group, exprs
// and aggs are the bound GROUP BY keys, select list and its aggregate
// calls.
type aggregator struct {
	reg    *Registry
	group  []Expr
	exprs  []Expr
	aggs   []*aggRef
	groups map[string]*aggGroup
	order  []string // group keys in first-seen order
}

func newAggregator(reg *Registry, group, exprs []Expr, aggs []*aggRef) *aggregator {
	return &aggregator{reg: reg, group: group, exprs: exprs, aggs: aggs, groups: make(map[string]*aggGroup)}
}

// add is the aggregation sink (an emitFn).
func (a *aggregator) add(row []storage.Value) (bool, error) {
	var keyVals []storage.Value
	for _, g := range a.group {
		v, err := Eval(g, row, a.reg)
		if err != nil {
			return false, err
		}
		keyVals = append(keyVals, v)
	}
	key := string(storage.EncodeTuple(keyVals))
	grp, ok := a.groups[key]
	if !ok {
		grp = &aggGroup{
			firstRow: append([]storage.Value(nil), row...),
			states:   newAggStates(len(a.aggs)),
		}
		a.groups[key] = grp
		a.order = append(a.order, key)
	}
	for i, ag := range a.aggs {
		if err := accumulate(&grp.states[i], ag, row, a.reg); err != nil {
			return false, err
		}
	}
	return true, nil
}

// merge folds src (a later shard) into a. Groups unseen by a keep their
// src state; shared groups merge state-wise with a (the earlier shard)
// winning ties, matching serial first-seen semantics.
func (a *aggregator) merge(src *aggregator) {
	for _, key := range src.order {
		sg := src.groups[key]
		dg, ok := a.groups[key]
		if !ok {
			a.groups[key] = sg
			a.order = append(a.order, key)
			continue
		}
		for i := range dg.states {
			mergeState(&dg.states[i], &sg.states[i])
		}
	}
}

// mergeState folds a later shard's partial state into dst.
func mergeState(dst, src *aggState) {
	dst.count += src.count
	if src.sum != nil {
		if dst.sum == nil {
			dst.sum = src.sum
		} else {
			dst.sum.Add(dst.sum, src.sum)
		}
	}
	if src.hasBad {
		dst.sumBad += src.sumBad
		dst.hasBad = true
	}
	dst.sumInt += src.sumInt
	dst.intOnly = dst.intOnly && src.intOnly
	if src.seen {
		if !dst.seen {
			dst.min = src.min
			dst.max = src.max
			dst.extent = src.extent
		} else {
			if c, _ := storage.Compare(src.min, dst.min); c < 0 {
				dst.min = src.min
			}
			if c, _ := storage.Compare(src.max, dst.max); c > 0 {
				dst.max = src.max
			}
			dst.extent = dst.extent.Union(src.extent)
		}
	}
	dst.seen = dst.seen || src.seen
	dst.geoms = append(dst.geoms, src.geoms...)
}

// rows finalizes every group (in first-seen order) into output rows:
// each aggregate's result is written into the group's first row at the
// position Bind gave the call, and the bound select list is evaluated
// over that row.
func (a *aggregator) rows(width int) ([][]storage.Value, error) {
	// A global aggregate over zero rows still yields one output row.
	if len(a.group) == 0 && len(a.groups) == 0 {
		a.groups[""] = &aggGroup{firstRow: make([]storage.Value, width), states: newAggStates(len(a.aggs))}
		a.order = append(a.order, "")
	}
	var out [][]storage.Value
	for _, key := range a.order {
		grp := a.groups[key]
		for i, ag := range a.aggs {
			grp.firstRow[ag.pos] = finalize(&grp.states[i], ag.src.Name)
		}
		row := make([]storage.Value, len(a.exprs))
		for i, e := range a.exprs {
			v, err := Eval(e, grp.firstRow, a.reg)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		out = append(out, row)
	}
	return out, nil
}

func accumulate(st *aggState, ag *aggRef, row []storage.Value, reg *Registry) error {
	if ag.arg == nil { // COUNT(*)
		st.count++
		return nil
	}
	v, err := Eval(ag.arg, row, reg)
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil
	}
	st.count++
	switch name := ag.src.Name; name {
	case "ST_UNION":
		if v.Type != storage.TypeGeom {
			return fmt.Errorf("sql: ST_UNION over %s", v.Type)
		}
		st.geoms = append(st.geoms, v.Geom)
	case "ST_EXTENT":
		if v.Type != storage.TypeGeom {
			return fmt.Errorf("sql: ST_EXTENT over %s", v.Type)
		}
		if !st.seen {
			st.extent = geom.EmptyRect()
		}
		st.extent = st.extent.Union(v.Geom.Envelope())
	case "SUM", "AVG", PartialSumName:
		f, ok := v.AsFloat()
		if !ok {
			return fmt.Errorf("sql: %s over %s", name, v.Type)
		}
		st.addSum(f)
		if v.Type == storage.TypeInt {
			st.sumInt += v.Int
		} else {
			st.intOnly = false
		}
	case "MIN":
		if !st.seen {
			st.min = v
		} else if c, _ := storage.Compare(v, st.min); c < 0 {
			st.min = v
		}
	case "MAX":
		if !st.seen {
			st.max = v
		} else if c, _ := storage.Compare(v, st.max); c > 0 {
			st.max = v
		}
	}
	st.seen = true
	return nil
}

func finalize(st *aggState, name string) storage.Value {
	switch name {
	case "COUNT":
		return storage.NewInt(st.count)
	case "SUM":
		if st.count == 0 {
			return storage.Null()
		}
		if st.intOnly {
			return storage.NewInt(st.sumInt)
		}
		return storage.NewFloat(st.sumFloat())
	case "AVG":
		if st.count == 0 {
			return storage.Null()
		}
		return storage.NewFloat(st.sumFloat() / float64(st.count))
	case "MIN":
		if !st.seen {
			return storage.Null()
		}
		return st.min
	case "MAX":
		if !st.seen {
			return storage.Null()
		}
		return st.max
	case "ST_UNION":
		if len(st.geoms) == 0 {
			return storage.Null()
		}
		return storage.NewGeom(overlay.UnionAll(st.geoms))
	case "ST_EXTENT":
		if !st.seen {
			return storage.Null()
		}
		return storage.NewGeom(st.extent.ToPolygon())
	case PartialSumName:
		// Distributed partial aggregation: ship the exact mergeable
		// state instead of a rounded scalar (see MergePartials).
		return storage.NewText(encodePartialSum(st))
	}
	return storage.Null()
}

// --- UPDATE / DELETE ------------------------------------------------------

// matchRows collects, in heap order, the ids of the rows a single-table
// DML statement targets: exactly the rows SELECT * FROM table WHERE
// where returns, selected by the same planner and stage-0 driver. All
// ids are collected before the caller writes anything, so a statement
// never sees the rows it has already rewritten.
func (r *Runner) matchRows(table string, where Expr) ([]RowID, error) {
	var ids []RowID
	sel := &Select{From: &TableRef{Table: table}, Where: where, Limit: -1}
	if _, err := r.execSelect(sel, false, &ids); err != nil {
		return nil, err
	}
	return ids, nil
}

func (r *Runner) execUpdate(upd *Update) (*Result, error) {
	tbl, err := r.table(upd.Table)
	if err != nil {
		return nil, err
	}
	cols := tbl.Columns()
	scope := NewScope()
	scope.AddTable(upd.Table, cols)
	type setOp struct {
		idx int
		e   Expr
	}
	var sets []setOp
	for _, a := range upd.Set {
		idx := ColumnIndexByName(cols, a.Column)
		if idx < 0 {
			return nil, fmt.Errorf("sql: unknown column %q in UPDATE", a.Column)
		}
		e, err := Bind(a.Expr, scope, r.reg, false)
		if err != nil {
			return nil, err
		}
		sets = append(sets, setOp{idx: idx, e: e})
	}
	ids, err := r.matchRows(upd.Table, upd.Where)
	if err != nil {
		return nil, err
	}
	// Every new row is computed before the first write, so an evaluation
	// error leaves the table — and a durable engine's log — untouched.
	newRows := make([][]storage.Value, 0, len(ids))
	b := storage.GetColBatch()
	defer storage.PutColBatch(b)
	for lo := 0; lo < len(ids); lo += storage.BatchSize {
		if err := tbl.FetchBatch(ids[lo:min(lo+storage.BatchSize, len(ids))], AllColumns(), b); err != nil {
			return nil, err
		}
		for _, slot := range b.Sel {
			row := b.Row(slot)
			newRow := slices.Clone(row)
			for _, s := range sets {
				v, err := Eval(s.e, row, r.reg)
				if err != nil {
					return nil, err
				}
				if newRow[s.idx], err = coerce(v, cols[s.idx]); err != nil {
					return nil, err
				}
			}
			newRows = append(newRows, newRow)
		}
	}
	for i, id := range ids {
		if _, err := tbl.Update(id, newRows[i]); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: len(ids)}, nil
}

func (r *Runner) execDelete(del *Delete) (*Result, error) {
	tbl, err := r.table(del.Table)
	if err != nil {
		return nil, err
	}
	ids, err := r.matchRows(del.Table, del.Where)
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		if err := tbl.Delete(id); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: len(ids)}, nil
}
