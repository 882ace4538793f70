package sql

import (
	"sync"

	"jackpine/internal/storage"
)

// Morsel-style intra-query parallelism.
//
// Every plan drives stage 0 through the batch cascade; large plans fan
// it out across a worker pool: full scans shard the heap into
// contiguous page ranges (Table.ScanBatch), and spatial-window scans
// collect candidate row ids from the MBR index once, then refine
// (fetch + exact predicate) in contiguous chunks; a PBSM join whose
// state holds the outer rows shards those rows by position. Join stages
// run inside each worker; a stage's shared build state opens once, on
// the first probe from any worker, and is read-only after. Shard
// results merge strictly in shard order, so a parallel plan returns
// exactly the rows — and row order — of its serial counterpart.

// parallelMinRows is the smallest stage-0 table worth fanning out;
// below it goroutine startup dominates any scan win.
const parallelMinRows = 256

// shardFn runs the whole pipeline for one stage-0 shard, feeding
// surviving full-width rows to emit.
type shardFn func(shard int, emit emitFn) error

// stage0Workers decides how many workers run stage 0. Full scans and
// spatial windows over a large table fan out across the worker pool,
// unless a bare LIMIT (no ORDER BY, no aggregation) makes early exit
// worth more than splitting the table. kNN sources (ordered, and
// stopped by the ORDER BY sink's k-th key), index seeks and range scans
// (already selective) run serially.
func (r *Runner) stage0Workers(tbl Table, kind accessKind, bareLimit bool) int {
	if r.par < 2 || (kind != accessFullScan && kind != accessSpatialWindow) ||
		bareLimit || tbl.RowCount() < parallelMinRows {
		return 1
	}
	return r.par
}

// stage0Source builds the stage-0 driver of every plan: shard w of
// workers reads its part of the driving table and feeds its rows,
// batch by batch, through stage 0's filter cascade into the rest of the
// pipeline; serial plans are the one-worker case. Full scans compute
// their projection once and shard the heap. Index paths probe their
// index once, here or as the shard runs, and fetch the ids it yields in
// index order, in chunks (idFetcher): spatial windows split
// their candidates into contiguous chunks, so shard concatenation
// reproduces the serial row order; a kNN source fetches one id per
// chunk, so the ORDER BY sink's k-th distance is current when the next
// id is read. Every source hands the table stage 0's
// column-versus-literal comparisons to test before copying
// (Projection.Compares). Each shard builds its pipeline over its sink
// once; filters is stage 0's compiled filter plan.
//
// src, when not nil, is the PBSM join stage whose state holds stage 0's
// rows (pbsmSpec.outerAt): its state is acquired first, and each shard
// takes a contiguous range of the state's outer rows, already decoded
// in heap order, each row carrying its index at outerAt. No page is
// scanned, and stage 0 has no filter to apply.
func (r *Runner) stage0Source(tbl Table, path *accessPath, filters *filterPlan,
	width, workers int, src *joinOp, pipeline func(sink emitFn) emitFn) (shardFn, error) {

	if src != nil {
		if err := src.acquireOuter(); err != nil {
			return nil, err
		}
		rows, at := &src.pbsm.outerRows, src.path.pbsm.outerAt
		n := len(src.pbsm.outerPos)
		return func(shard int, emit emitFn) error {
			forward := pipeline(emit)
			row := make([]storage.Value, width)
			for i := shard * n / workers; i < (shard+1)*n/workers; i++ {
				rows.copyTo(row, i)
				row[at] = storage.NewInt(int64(i))
				if cont, err := forward(row); err != nil || !cont {
					return err
				}
			}
			return nil
		}, nil
	}

	plan := r.newBatchPlan(tbl, filters, width, path)
	if path.kind == accessFullScan {
		proj, skip, err := path.scanProjection(nil, r.reg)
		if err != nil {
			return nil, err
		}
		if skip {
			return func(int, emitFn) error { return nil }, nil
		}
		proj.Need = plan.eager
		proj.Compares = plan.prefilter
		return func(shard int, emit emitFn) error {
			forward := pipeline(emit)
			ex := plan.newExec()
			return tbl.ScanBatch(shard, workers, proj, func(b *storage.ColBatch) (bool, error) {
				return ex.run(b, forward)
			})
		}, nil
	}

	// probe yields shard w's row ids in index order; a spatial window
	// instead searches once, into cands.
	var probe func(shard int, fn func(RowID) bool)
	var cands []RowID
	chunk := storage.BatchSize
	if path.kind == accessKNN {
		// Ids arrive in non-decreasing MINDIST from the probe's envelope
		// until one exceeds the sink's k-th distance, which no later row
		// can beat.
		chunk = 1
		probe = func(_ int, fn func(RowID) bool) {
			path.spatial.Nearest(path.rect, func(id RowID, minDist float64) bool {
				return minDist <= path.knnBound() && fn(id)
			})
		}
	} else {
		var p idProbe
		if ok, err := p.eval(path, nil, r.reg); err != nil || !ok { // no row can match
			return func(int, emitFn) error { return nil }, err
		}
		probe = func(_ int, fn func(RowID) bool) { p.search(fn) }
		if path.kind == accessSpatialWindow {
			p.search(func(id RowID) bool {
				cands = append(cands, id)
				return true
			})
		}
	}
	proj := Projection{Need: plan.eager, MBRCol: -1, Ephemeral: path.ephemeral, Compares: plan.prefilter}
	return func(shard int, emit emitFn) error {
		ex, forward := plan.newExec(), pipeline(emit)
		f := newIDFetcher(tbl, proj, chunk, func(b *storage.ColBatch) (bool, error) { return ex.run(b, forward) })
		var err error
		if path.kind == accessSpatialWindow {
			// Each shard takes a contiguous run of the candidates.
			_, err = f.readIDs(cands[shard*len(cands)/workers : (shard+1)*len(cands)/workers])
		} else {
			_, err = f.read(func(fn func(RowID) bool) { probe(shard, fn) })
		}
		return err
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
// the serial row order exactly. Emitted rows are borrowed, so each is
// copied into its buffer.
func gatherShards(workers int, runShard shardFn) (shardFn, error) {
	buffers := make([][][]storage.Value, workers)
	err := runShards(workers, runShard, func(w int) emitFn {
		return func(row []storage.Value) (bool, error) {
			buffers[w] = append(buffers[w], append([]storage.Value(nil), row...))
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
func (r *Runner) aggregateShards(group, exprs []Expr, aggs []*aggRef, width, workers int,
	runShard shardFn) ([][]storage.Value, error) {

	parts := make([]*aggregator, workers)
	for w := range parts {
		parts[w] = newAggregator(r.reg, group, exprs, aggs)
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
