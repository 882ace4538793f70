package sql

import (
	"fmt"
	"sync"

	"jackpine/internal/storage"
)

// Batch-at-a-time stage-0 execution, the one stage-0 flow of every
// plan. Stage 0 reads the driving table in column batches
// (storage.ColBatch): a full scan fills them from the heap, an index
// path fetches the ids its probe yields, in index order (idFetcher). Each
// stored tuple is tested against the MBR window and the filters'
// column-versus-literal comparisons where it lies, and only survivors
// are copied into the batch; the table then decodes only the columns
// the stage's residual filters read, and hands the batch here, where
// those filters run column-major over the selection vector: each filter
// in turn compacts the selection through the worker's filterExec
// (filter.go). The filters are nodes of the execution's bound tree
// (bind.go), read and never written here. Late materialization: each
// surviving row is then copied into the shard's one full-width scratch
// tuple, since batch memory is recycled, the rest of its needed columns
// decode into that tuple, and it is emitted, borrowed, into the
// join/aggregate/sort pipeline.
//
// On success the cascade returns exactly the rows of a row-at-a-time
// evaluation of the filters (internal/sql/refexec is that reference),
// in the access path's order. Four narrow error divergences from such
// an evaluation are accepted and documented in DESIGN.md: a batch
// validates all of its tuples and envelopes before materializing any,
// so corrupt data can surface a different (but same-shaped) error than
// a strictly row-ordered scan; when several filters would each error on
// different rows, the column-major cascade can surface a different
// conjunct's error than row-major short-circuiting; a corrupt column
// the filters do not read is never decoded on a row they drop; and a
// row a pushed-down comparison drops before copying never reaches the
// other filters, so an error one of them would raise on it is lost.

// batchPlan is the shared, read-only batch state of one query: built
// once after planning, read concurrently by every shard.
type batchPlan struct {
	r       *Runner
	table   string // stage-0 table name, for decode errors
	filters *filterPlan
	width   int // scope width of emitted rows
	// eager marks the columns the filters read: the Projection.Need of
	// every batch this plan scans or fetches.
	eager []bool
	// prefilter holds the filters' column-versus-literal comparisons:
	// the Projection.Compares every scan and fetch tests on each tuple
	// before copying it. The cascade still runs every comparator on
	// survivors.
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
	plan *batchPlan
	fx   *filterExec
	row  []storage.Value // the scratch tuple every survivor is emitted in
	sel  []int           // survivor accumulator (compacted in place)
}

// newBatchPlan takes the compiled stage-0 filters of the stage-0 path
// over tbl, collects the comparisons a scan can test before copying,
// and splits the path's needed columns into the eager ones the filters
// read and the deferred rest.
func (r *Runner) newBatchPlan(tbl Table, filters *filterPlan, width int, path *accessPath) *batchPlan {
	p := &batchPlan{r: r, table: tbl.Name(), filters: filters, width: width, idPos: path.idPos}
	nCols := len(tbl.Columns())
	p.eager = make([]bool, nCols)
	for _, f := range filters.filters {
		markColumns(p.eager, f.expr)
		if cc, ok := f.cmp.pushdown(nCols); ok {
			p.prefilter = append(p.prefilter, cc)
		}
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
	return &batchExec{plan: p, fx: p.filters.exec(), row: make([]storage.Value, p.width)}
}

// run applies the filter cascade to one batch and emits the survivors
// into the pipeline past stage 0's filters.
func (ex *batchExec) run(b *storage.ColBatch, emit emitFn) (bool, error) {
	p := ex.plan
	p.r.batchBatches.Add(1)
	p.r.batchRows.Add(int64(len(b.Sel)))
	sel, err := ex.cascade(b)
	ex.fx.flush()
	if err != nil {
		return false, err
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
		if p.idPos > 0 { // a DML row selection collects ids
			full[p.idPos] = storage.NewInt(b.ID(s))
		}
		cont, err := emit(full)
		if err != nil || !cont {
			return cont, err
		}
	}
	return true, nil
}

// cascade runs each filter in turn over the whole selection and
// returns the survivors. Compaction is in place: the write index never
// passes the read index.
func (ex *batchExec) cascade(b *storage.ColBatch) ([]int, error) {
	sel := b.Sel
	for i := range ex.plan.filters.filters {
		out := ex.sel[:0]
		for _, s := range sel {
			keep, err := ex.fx.keepAt(i, b.Row(s))
			if err != nil {
				return nil, err
			}
			if keep {
				out = append(out, s)
			}
		}
		sel, ex.sel = out, out
	}
	return sel, nil
}

// idFetcher fetches the row ids an index probe yields, in its order, in
// chunks of up to size, into a batch borrowed from the shared pool for
// the read, and hands each fetched chunk to each; it stops the probe as
// soon as each stops or fails. The ids collect in a buffer borrowed from
// idBufs for the read; readIDs slices its chunks from a candidate list
// instead. A stage-0 shard and a worker's join stage each own one and
// reuse it, bound probe callback (add) included, from read to read, so
// a read allocates nothing.
type idFetcher struct {
	tbl  Table
	proj Projection
	each func(*storage.ColBatch) (bool, error)
	add  func(RowID) bool // f.collect, bound once
	size int
	ids  []RowID           // the buffer of the read in progress
	b    *storage.ColBatch // the batch of the read in progress
	cont bool
	err  error
}

// idBufs recycles the id buffers of idFetcher reads, each made at its
// full size so a fresh one never grows.
var idBufs = sync.Pool{New: func() any {
	ids := make([]RowID, 0, storage.BatchSize)
	return &ids
}}

func newIDFetcher(tbl Table, proj Projection, size int, each func(*storage.ColBatch) (bool, error)) *idFetcher {
	f := &idFetcher{tbl: tbl, proj: proj, each: each, size: size}
	f.add = f.collect
	return f
}

// read fetches the ids search feeds its callback and reports whether
// each wants more rows.
func (f *idFetcher) read(search func(fn func(RowID) bool)) (bool, error) {
	f.b = storage.GetColBatch()
	defer storage.PutColBatch(f.b)
	buf := idBufs.Get().(*[]RowID)
	defer idBufs.Put(buf)
	f.ids, f.cont, f.err = (*buf)[:0], true, nil
	search(f.add)
	if len(f.ids) > 0 && f.err == nil && f.cont {
		f.fetch(f.ids)
	}
	*buf, f.ids = f.ids[:0], nil
	return f.cont, f.err
}

// readIDs fetches ids, a probe's whole candidate list, in chunks sliced
// from it, and reports whether each wants more rows.
func (f *idFetcher) readIDs(ids []RowID) (bool, error) {
	f.b = storage.GetColBatch()
	defer storage.PutColBatch(f.b)
	f.cont, f.err = true, nil
	for len(ids) > 0 {
		n := min(len(ids), f.size)
		if !f.fetch(ids[:n]) {
			break
		}
		ids = ids[n:]
	}
	return f.cont, f.err
}

func (f *idFetcher) collect(id RowID) bool {
	f.ids = append(f.ids, id)
	if len(f.ids) < f.size {
		return true
	}
	ok := f.fetch(f.ids)
	f.ids = f.ids[:0]
	return ok
}

// fetch reads one chunk of ids and hands it to each.
func (f *idFetcher) fetch(ids []RowID) bool {
	if f.err = f.tbl.FetchBatch(ids, f.proj, f.b); f.err == nil {
		f.cont, f.err = f.each(f.b)
	}
	return f.err == nil && f.cont
}
