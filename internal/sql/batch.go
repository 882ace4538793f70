package sql

import (
	"fmt"

	"jackpine/internal/geom"
	"jackpine/internal/storage"
)

// batchSize is the number of row slots per column batch. Large enough
// to amortize per-batch overhead, small enough that a batch's arena and
// row backing stay cache-resident.
const batchSize = 256

// batchFallbackMin is the minimum spatial-window candidate count worth
// batching. Below it the fixed per-query batch cost (pool checkout,
// column reset, envelope fill) exceeds the cascade savings — point
// probes like "polygons containing this point" fetch a couple of rows
// and regress under batching — so stage0Source picks the row fetch loop
// for the candidates its one index search returned.
const batchFallbackMin = 8

// Batch-at-a-time stage-0 execution. Eligible plans replace the
// tuple-at-a-time scan of the driving table with column batches
// (storage.ColBatch): the table fills a batch, prefilters it against
// the MBR window with one pass over flat envelope arrays, and hands the
// survivors here, where the stage's residual filters run column-major
// over the selection vector. Prepared topological predicates evaluate a
// whole batch's candidates through one kernel call; surviving rows are
// then emitted — as fresh full-width copies, since batch memory is
// recycled — into the unchanged join/aggregate/sort pipeline.
//
// The batch path is byte-equivalent to the row path on success. Two
// narrow divergences are accepted and documented in DESIGN.md: a batch
// validates all of its tuples and envelopes before materializing any,
// so corrupt data can surface a different (but same-shaped) error than
// the strictly row-ordered scan; and when several filters would each
// error on different rows, the column-major cascade can surface a
// different conjunct's error than row-major short-circuiting.

// nextFn forwards one full-width row that passed stage's filters into
// the rest of the pipeline (the next join stage, or the sink after the
// last).
type nextFn func(stage int, row []storage.Value, emit emitFn) (bool, error)

// batchFilter is one stage-0 residual filter, pre-classified so the
// batch loop dispatches without re-inspecting the tree per row.
type batchFilter struct {
	expr Expr
	// fc is set when the filter is a top-level non-aggregate call: its
	// arguments evaluate into a reused buffer instead of a fresh slice
	// per row.
	fc *FuncCall
	// pc is set when fc additionally carries a prepared constant side:
	// the whole batch's candidates go through one prepared-kernel call.
	pc *preparedCall
}

// batchPlan is the shared, read-only batch state of one query: built
// once after planning, read concurrently by every shard.
type batchPlan struct {
	r       *Runner
	filters []batchFilter
	width   int // scope width of emitted rows
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
	sel2  []int // survivor accumulator (compacted in place)
	slots []int // slots feeding a prepared kernel call
	geoms []geom.Geometry
	outs  []bool
	args  []storage.Value // argument buffer for plain calls
}

// newBatchPlan classifies the stage-0 filters (their constant subtrees
// are already plan-time slots) of the stage-0 path.
func (r *Runner) newBatchPlan(filters []Expr, width int, path *accessPath) *batchPlan {
	p := &batchPlan{r: r, width: width, idPos: path.idPos}
	for _, f := range filters {
		bf := batchFilter{expr: f}
		if fc, ok := bf.expr.(*FuncCall); ok && !IsAggregateCall(fc) {
			bf.fc = fc
			bf.pc = fc.prep
		}
		p.filters = append(p.filters, bf)
	}
	for i, e := range path.ephemeral {
		if e {
			p.ephCols = append(p.ephCols, i)
		}
	}
	return p
}

// batchEligible reports whether the stage-0 scan of this plan runs
// batched: the knob is on, the table supports batch access, and the
// plan has no early-exit shape (kNN and bare LIMIT stream row-at-a-time
// where stopping mid-batch would waste the overshoot).
func (r *Runner) batchEligible(sel *Select, tbl Table, kind accessKind, hasAgg, knn bool) (BatchTable, bool) {
	if !r.batch || knn {
		return nil, false
	}
	if kind != accessFullScan && kind != accessSpatialWindow {
		return nil, false
	}
	if sel.Limit >= 0 && !hasAgg && len(sel.OrderBy) == 0 {
		return nil, false
	}
	bt, ok := tbl.(BatchTable)
	return bt, ok
}

// run applies the filter cascade to one batch and emits the survivors.
func (ex *batchExec) run(b *storage.ColBatch, next nextFn, emit emitFn) (bool, error) {
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
	for _, s := range sel {
		full := make([]storage.Value, p.width) //lint:allow batchalloc survivor rows escape the recycled batch
		copy(full, b.Row(s))
		for _, c := range p.ephCols {
			full[c] = storage.Value{}
		}
		setRowID(full, p.idPos, RowID(b.ID(s)))
		cont, err := next(0, full, emit)
		if err != nil || !cont {
			return cont, err
		}
	}
	return true, nil
}

// runPrepared evaluates one prepared topological filter over the
// selection: the variable operand is evaluated per survivor (same NULL
// and type-error semantics as preparedCall.eval), non-NULL geometries
// feed one batch kernel call, and prepHits advances by the number of
// evaluated candidates — identical totals to the per-row fast path.
func (ex *batchExec) runPrepared(b *storage.ColBatch, fc *FuncCall, pc *preparedCall, sel []int) ([]int, error) {
	reg := ex.plan.r.reg
	varIdx := 1 - pc.constIdx
	arg := fc.Args[varIdx]
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
func (ex *batchExec) runPlainCall(b *storage.ColBatch, fc *FuncCall, sel []int) ([]int, error) {
	reg := ex.plan.r.reg
	if cap(ex.args) < len(fc.Args) {
		ex.args = make([]storage.Value, len(fc.Args))
	}
	args := ex.args[:len(fc.Args)]
	out := ex.sel2[:0]
	for _, s := range sel {
		row := b.Row(s)
		for i, a := range fc.Args {
			v, err := Eval(a, row, reg)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		v, err := reg.Call(fc.Name, args)
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
func batchRefine(tbl BatchTable, path accessPath, ex *batchExec,
	cands []RowID, next nextFn, emit emitFn) error {

	if len(cands) == 0 {
		return nil
	}
	proj := Projection{Need: path.need, MBRCol: -1, Ephemeral: path.ephemeral}
	b := storage.GetColBatch()
	defer storage.PutColBatch(b)
	for lo := 0; lo < len(cands); lo += batchSize {
		hi := min(lo+batchSize, len(cands))
		if err := tbl.FetchBatch(cands[lo:hi], proj, b); err != nil {
			return err
		}
		if cont, err := ex.run(b, next, emit); err != nil || !cont {
			return err
		}
	}
	return nil
}
