package sql

import (
	"fmt"

	"jackpine/internal/geom"
	"jackpine/internal/storage"
)

// Batch-at-a-time stage-0 execution. Eligible plans replace the
// tuple-at-a-time scan of the driving table with column batches
// (storage.ColBatch): a full scan tests each tuple on its page against
// the MBR window and the filters' column-versus-literal comparisons and
// copies only the survivors into the batch; the table then decodes only
// the columns the stage's residual filters read, and hands the batch
// here, where those filters run column-major over the selection vector.
// The filters are nodes of the execution's bound tree (bind.go), read
// and never written here: a call carries its resolved FuncImpl and, for
// a topological predicate with a constant side, its prepared state, so
// compiled comparisons and prepared predicates each evaluate a whole
// batch's candidates in one kernel loop, and other calls run without a
// registry lookup. Late materialization: each surviving row is then
// copied into the shard's one full-width scratch tuple, since batch
// memory is recycled, the rest of its needed columns decode into that
// tuple, and it is emitted, borrowed, into the join/aggregate/sort
// pipeline.
//
// The batch path is byte-equivalent to the row path on success. Four
// narrow divergences are accepted and documented in DESIGN.md: a batch
// validates all of its tuples and envelopes before materializing any,
// so corrupt data can surface a different (but same-shaped) error than
// the strictly row-ordered scan; when several filters would each error
// on different rows, the column-major cascade can surface a different
// conjunct's error than row-major short-circuiting; a corrupt column
// the filters do not read is never decoded on a row they drop; and a
// row a pushed-down comparison drops before copying never reaches the
// other filters, so an error one of them would raise on it is lost.

// batchFilter is one stage-0 residual filter, pre-classified so the
// batch loop dispatches without re-inspecting the tree per row.
type batchFilter struct {
	expr Expr
	// fc is set when the filter is a top-level call: its arguments
	// evaluate into a reused buffer instead of a fresh slice per row.
	fc *callExpr
	// pc is set when fc additionally carries a prepared constant side:
	// the whole batch's candidates go through one prepared-kernel call.
	pc *preparedCall
	// cmp is set when the filter is a compiled comparison.
	cmp *comparator
}

// batchPlan is the shared, read-only batch state of one query: built
// once after planning, read concurrently by every shard.
type batchPlan struct {
	r       *Runner
	table   string // stage-0 table name, for decode errors
	filters []batchFilter
	width   int // scope width of emitted rows
	// eager marks the columns the filters read: the Projection.Need of
	// every batch this plan scans or fetches.
	eager []bool
	// prefilter holds the filters' column-versus-literal comparisons:
	// the Projection.Compares a full scan tests on each tuple before
	// copying it. The cascade still runs every comparator on survivors.
	prefilter []storage.ColCompare
	// deferred lists the needed columns the filters do not read; they
	// decode onto the heap for survivors only.
	deferred []int
	// ephCols lists stage-0 columns that only this stage's filters
	// read; emitted survivor rows NULL them so arena-decoded geometries
	// never escape the batch.
	ephCols []int
	idPos   int // the stage-0 path's idPos
}

// batchExec is the per-shard scratch of the batch filter cascade. All
// slices are reused across batches; nothing here is shared.
type batchExec struct {
	plan  *batchPlan
	row   []storage.Value // the scratch tuple every survivor is emitted in
	sel2  []int           // survivor accumulator (compacted in place)
	slots []int           // slots feeding a prepared kernel call
	geoms []geom.Geometry
	outs  []bool
	args  []storage.Value // argument buffer for plain calls
}

// newBatchPlan classifies the stage-0 filters (their constant subtrees
// are already plan-time slots, cmps their compiled comparators) of the
// stage-0 path over tbl, collects the comparisons a scan can test before
// copying, and splits the path's needed columns into the eager ones the
// filters read and the deferred rest.
func (r *Runner) newBatchPlan(tbl Table, filters []Expr, cmps []*comparator, width int, path *accessPath) *batchPlan {
	p := &batchPlan{r: r, table: tbl.Name(), width: width, idPos: path.idPos}
	nCols := len(tbl.Columns())
	p.eager = make([]bool, nCols)
	for i, f := range filters {
		markColumns(p.eager, f)
		bf := batchFilter{expr: f, cmp: cmps[i]}
		if cc, ok := bf.cmp.pushdown(nCols); ok {
			p.prefilter = append(p.prefilter, cc)
		}
		if fc, ok := bf.expr.(*callExpr); ok {
			bf.fc = fc
			bf.pc = fc.prep
		}
		p.filters = append(p.filters, bf)
	}
	for c := 0; c < nCols; c++ {
		if !p.eager[c] && (path.need == nil || path.need[c]) {
			p.deferred = append(p.deferred, c)
		}
	}
	for i, e := range path.ephemeral {
		if e {
			p.ephCols = append(p.ephCols, i)
		}
	}
	return p
}

// newExec returns a shard's batch scratch.
func (p *batchPlan) newExec() *batchExec {
	return &batchExec{plan: p, row: make([]storage.Value, p.width)}
}

// run applies the filter cascade to one batch and emits the survivors
// into the pipeline past stage 0's filters.
func (ex *batchExec) run(b *storage.ColBatch, emit emitFn) (bool, error) {
	p := ex.plan
	p.r.batchBatches.Add(1)
	p.r.batchRows.Add(int64(len(b.Sel)))
	sel := b.Sel
	for i := range p.filters {
		if len(sel) == 0 {
			return true, nil
		}
		f := &p.filters[i]
		var err error
		switch {
		case f.cmp != nil:
			sel, err = ex.runCompare(b, f.cmp, sel)
		case f.pc != nil:
			sel, err = ex.runPrepared(b, f.fc, f.pc, sel)
		case f.fc != nil:
			sel, err = ex.runPlainCall(b, f.fc, sel)
		default:
			sel, err = ex.runGeneric(b, f.expr, sel)
		}
		if err != nil {
			return false, err
		}
	}
	full := ex.row
	for _, s := range sel {
		copy(full, b.Row(s))
		for _, c := range p.ephCols {
			full[c] = storage.Value{}
		}
		for _, c := range p.deferred {
			v, err := b.Col(s, c)
			if err != nil {
				return false, fmt.Errorf("sql: table %s at %s: %w", p.table, RowID(b.ID(s)).Unpack(), err)
			}
			full[c] = v
		}
		setRowID(full, p.idPos, RowID(b.ID(s)))
		cont, err := emit(full)
		if err != nil || !cont {
			return cont, err
		}
	}
	return true, nil
}

// runCompare runs a compiled comparison over the selection.
func (ex *batchExec) runCompare(b *storage.ColBatch, c *comparator, sel []int) ([]int, error) {
	out := ex.sel2[:0]
	for _, s := range sel {
		keep, err := c.keep(b.Row(s))
		if err != nil {
			return nil, err
		}
		if keep {
			out = append(out, s)
		}
	}
	ex.sel2 = out
	return out, nil
}

// runPrepared evaluates one prepared topological filter over the
// selection: the variable operand is evaluated per survivor (same NULL
// and type-error semantics as preparedCall.eval), non-NULL geometries
// feed one batch kernel call, and prepHits advances by the number of
// evaluated candidates — identical totals to the per-row fast path.
func (ex *batchExec) runPrepared(b *storage.ColBatch, fc *callExpr, pc *preparedCall, sel []int) ([]int, error) {
	reg := ex.plan.r.reg
	varIdx := 1 - pc.constIdx
	arg := fc.args[varIdx]
	ex.slots = ex.slots[:0]
	ex.geoms = ex.geoms[:0]
	for _, s := range sel {
		v, err := Eval(arg, b.Row(s), reg)
		if err != nil {
			return nil, err
		}
		if v.IsNull() {
			continue // NULL predicate result: row dropped
		}
		if v.Type != storage.TypeGeom {
			fn := "predicate"
			if pc.relate {
				fn = "ST_RELATE"
			}
			return nil, fmt.Errorf("sql: %s: argument %d is %s, want GEOMETRY", fn, varIdx+1, v.Type)
		}
		if v.Geom == nil {
			continue
		}
		ex.slots = append(ex.slots, s)
		ex.geoms = append(ex.geoms, v.Geom)
	}
	if cap(ex.outs) < len(ex.geoms) {
		ex.outs = make([]bool, len(ex.geoms))
	}
	outs := ex.outs[:len(ex.geoms)]
	switch {
	case pc.relate && pc.constIdx == 0:
		pc.p.RelatePatternBatch(ex.geoms, pc.pattern, outs)
	case pc.relate:
		pc.p.RelatePatternBatchReversed(ex.geoms, pc.pattern, outs)
	case pc.constIdx == 0:
		pc.p.EvalBatch(pc.pred, ex.geoms, outs)
	default:
		pc.p.EvalBatchReversed(pc.pred, ex.geoms, outs)
	}
	reg.prepHits.Add(int64(len(ex.geoms)))
	out := ex.sel2[:0]
	for i, s := range ex.slots {
		if outs[i] {
			out = append(out, s)
		}
	}
	ex.sel2 = out
	return out, nil
}

// runPlainCall evaluates a top-level unprepared call with a reused
// argument buffer (Value has value semantics and registry functions do
// not retain the slice), removing the per-row args allocation of Eval.
func (ex *batchExec) runPlainCall(b *storage.ColBatch, fc *callExpr, sel []int) ([]int, error) {
	reg := ex.plan.r.reg
	if cap(ex.args) < len(fc.args) {
		ex.args = make([]storage.Value, len(fc.args))
	}
	args := ex.args[:len(fc.args)]
	out := ex.sel2[:0]
	for _, s := range sel {
		row := b.Row(s)
		for i, a := range fc.args {
			v, err := Eval(a, row, reg)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		v, err := fc.fn(args)
		if err != nil {
			return nil, err
		}
		if v.IsNull() || !truthy(v) {
			continue
		}
		out = append(out, s)
	}
	ex.sel2 = out
	return out, nil
}

// runGeneric evaluates any other filter shape row by row over the
// selection. Compaction is in place: the write index never passes the
// read index, so out may alias sel.
func (ex *batchExec) runGeneric(b *storage.ColBatch, f Expr, sel []int) ([]int, error) {
	reg := ex.plan.r.reg
	out := ex.sel2[:0]
	for _, s := range sel {
		v, err := Eval(f, b.Row(s), reg)
		if err != nil {
			return nil, err
		}
		if v.IsNull() || !truthy(v) {
			continue
		}
		out = append(out, s)
	}
	ex.sel2 = out
	return out, nil
}

// batchRefine fetches spatial-window candidates in batch-sized chunks
// (preserving index search order) and runs the filter cascade on each.
func batchRefine(tbl Table, path accessPath, ex *batchExec,
	cands []RowID, emit emitFn) error {

	if len(cands) == 0 {
		return nil
	}
	proj := Projection{Need: ex.plan.eager, MBRCol: -1, Ephemeral: path.ephemeral}
	b := storage.GetColBatch()
	defer storage.PutColBatch(b)
	for lo := 0; lo < len(cands); lo += storage.BatchSize {
		hi := min(lo+storage.BatchSize, len(cands))
		if err := tbl.FetchBatch(cands[lo:hi], proj, b); err != nil {
			return err
		}
		if cont, err := ex.run(b, emit); err != nil || !cont {
			return err
		}
	}
	return nil
}
