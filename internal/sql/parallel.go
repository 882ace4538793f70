package sql

import (
	"sync"

	"jackpine/internal/storage"
)

// Morsel-style intra-query parallelism.
//
// Eligible plans fan the stage-0 scan out across a worker pool: full
// scans shard the heap into contiguous page ranges (Table.ScanProject,
// BatchTable.ScanBatch), and spatial-window scans collect candidate row
// ids from the MBR index once, then refine (fetch + exact predicate) in
// contiguous chunks. Join stages run inside each worker against
// read-only state. Shard results merge strictly in shard order, so a
// parallel plan returns exactly the rows — and row order — of its
// serial counterpart.

// parallelMinRows is the smallest stage-0 table worth fanning out;
// below it goroutine startup dominates any scan win.
const parallelMinRows = 256

// shardFn runs the whole pipeline for one stage-0 shard, feeding
// surviving full-width rows to emit.
type shardFn func(shard int, emit emitFn) error

// parallelWorkers decides the worker count for a plan, returning 1 when
// the plan must stay serial: kNN (ordered streaming), index seeks and
// range scans (already selective), LIMIT without ORDER BY or aggregation
// (early exit beats materializing every shard), and small inputs.
func (r *Runner) parallelWorkers(sel *Select, tbl Table, kind accessKind, hasAgg, knn bool) int {
	if r.par < 2 || knn {
		return 1
	}
	if kind != accessFullScan && kind != accessSpatialWindow {
		return 1
	}
	if !hasAgg && len(sel.OrderBy) == 0 && sel.Limit >= 0 {
		return 1
	}
	if tbl.RowCount() < parallelMinRows {
		return 1
	}
	return r.par
}

// stage0Source builds the stage-0 driver of every plan: shard w of
// workers reads its part of the driving table and feeds each row into
// the rest of the pipeline; serial plans are the one-worker case. Full
// scans compute their projection once and shard the heap; spatial
// windows evaluate the window and search the index once, here, and
// split the candidates into contiguous chunks, so shard concatenation
// reproduces the serial row order. bt is non-nil when the plan is
// batch-eligible: full scans then run batched, and windows do when the
// search found at least batchFallbackMin candidates. stageEmit wraps a
// sink with a stage's filters and the stages after it (the row path);
// the batch cascade applies the stage-0 filters itself and hands
// survivors to next. Seeks,
// ranges, kNN and serial row plans stream through scanTable as one
// shard, so the row path stops searching the index on an early exit.
func (r *Runner) stage0Source(tbl Table, bt BatchTable, path *accessPath, filters []Expr,
	width, workers int, stageEmit func(stage int, emit emitFn) emitFn, next nextFn) (shardFn, error) {

	if (workers == 1 && bt == nil) || (path.kind != accessFullScan && path.kind != accessSpatialWindow) {
		return func(_ int, emit emitFn) error {
			_, err := r.scanTable(tbl, *path, nil, width, 0, stageEmit(0, emit))
			return err
		}, nil
	}
	pad := func(id RowID, row []storage.Value) []storage.Value {
		full := make([]storage.Value, width)
		copy(full, row)
		setRowID(full, path.idPos, id)
		return full
	}

	if path.kind == accessFullScan {
		proj, skip, err := path.scanProjection(nil, r.reg)
		if err != nil {
			return nil, err
		}
		switch {
		case skip:
			return func(int, emitFn) error { return nil }, nil
		case bt != nil:
			plan := r.newBatchPlan(filters, width, path)
			return func(shard int, emit emitFn) error {
				ex := &batchExec{plan: plan}
				return bt.ScanBatch(shard, workers, proj, batchSize, func(b *storage.ColBatch) (bool, error) {
					return ex.run(b, next, emit)
				})
			}, nil
		}
		return func(shard int, emit emitFn) error {
			emitRow := stageEmit(0, emit)
			var emitErr error
			err := tbl.ScanProject(shard, workers, proj, func(id RowID, row []storage.Value) bool {
				c, err := emitRow(pad(id, row))
				if err != nil {
					emitErr = err
					return false
				}
				return c
			})
			if emitErr != nil {
				return emitErr
			}
			return err
		}, nil
	}

	window, err := path.evalWindow(nil, r.reg)
	if err != nil {
		return nil, err
	}
	var cands []RowID
	if !window.IsEmpty() {
		path.spatial.Search(window, func(id RowID) bool {
			cands = append(cands, id)
			return true
		})
	}
	chunk := func(shard int) []RowID {
		return cands[shard*len(cands)/workers : (shard+1)*len(cands)/workers]
	}
	if bt != nil && len(cands) >= batchFallbackMin {
		plan := r.newBatchPlan(filters, width, path)
		return func(shard int, emit emitFn) error {
			return batchRefine(bt, *path, &batchExec{plan: plan}, chunk(shard), next, emit)
		}, nil
	}
	return func(shard int, emit emitFn) error {
		emitRow := stageEmit(0, emit)
		for _, id := range chunk(shard) {
			row, err := tbl.FetchProject(id, path.need)
			if err != nil {
				return err
			}
			if cont, err := emitRow(pad(id, row)); err != nil || !cont {
				return err
			}
		}
		return nil
	}, nil
}

// runShards executes one sink per shard concurrently and waits; one
// worker runs inline. The returned error is the first failing shard's,
// in shard order.
func runShards(workers int, runShard shardFn, sink func(shard int) emitFn) error {
	if workers == 1 {
		return runShard(0, sink(0))
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = runShard(w, sink(w))
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// gatherShards materializes every shard's output and returns a
// one-shard source replaying the buffers in shard order, reproducing
// the serial row order exactly. Rows reaching the sink are freshly
// padded per row, so buffering them without copying is safe.
func gatherShards(workers int, runShard shardFn) (shardFn, error) {
	buffers := make([][][]storage.Value, workers)
	err := runShards(workers, runShard, func(w int) emitFn {
		return func(row []storage.Value) (bool, error) {
			buffers[w] = append(buffers[w], row)
			return true, nil
		}
	})
	if err != nil {
		return nil, err
	}
	return func(_ int, emit emitFn) error {
		for _, buf := range buffers {
			for _, row := range buf {
				if cont, err := emit(row); err != nil || !cont {
					return err
				}
			}
		}
		return nil
	}, nil
}

// aggregateShards gives each worker a private aggregator (partial
// aggregation), then merges the partials in shard order and finalizes;
// a serial plan is the one-partial case. The exact big.Float SUM
// accumulator makes the merged result bit-identical to a serial run
// regardless of partitioning.
func (r *Runner) aggregateShards(sel *Select, aggs []*FuncCall, width, workers int,
	runShard shardFn) ([][]storage.Value, error) {

	parts := make([]*aggregator, workers)
	for w := range parts {
		parts[w] = newAggregator(sel, r.reg, aggs)
	}
	if err := runShards(workers, runShard, func(w int) emitFn { return parts[w].add }); err != nil {
		return nil, err
	}
	root := parts[0]
	for _, p := range parts[1:] {
		root.merge(p)
	}
	return root.rows(width)
}
