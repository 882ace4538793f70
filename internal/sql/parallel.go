package sql

import (
	"fmt"
	"sync"

	"jackpine/internal/storage"
)

// Morsel-style intra-query parallelism.
//
// Eligible plans fan the stage-0 scan out across a worker pool: full
// scans shard the heap into contiguous page ranges (Table.ScanShard),
// and spatial-window scans collect candidate row ids from the MBR index
// once, then refine (fetch + exact predicate) in contiguous chunks.
// Join stages run inside each worker against read-only state. Shard
// results merge strictly in shard order, so a parallel plan returns
// exactly the rows — and row order — of its serial counterpart.

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

// makeShardRunner builds the per-shard stage-0 driver. For spatial
// windows the candidate collection happens here, once, in index search
// order; workers then split the candidate list into contiguous chunks
// so that chunk concatenation preserves the serial refinement order.
func (r *Runner) makeShardRunner(tbl Table, path accessPath, width, lo, workers int,
	chain func(emit emitFn) emitFn) (shardFn, error) {

	pad := func(row []storage.Value) []storage.Value {
		full := make([]storage.Value, width)
		copy(full[lo:], row)
		return full
	}

	switch path.kind {
	case accessFullScan:
		// Stage-0 scans never see outer rows, so the projection (and any
		// MBR prefilter window) is computed once, up front.
		proj, skip, err := path.scanProjection(nil, r.reg)
		if err != nil {
			return nil, err
		}
		return func(shard int, emit emitFn) error {
			if skip {
				return nil
			}
			emitRow := chain(emit)
			var emitErr error
			err := tbl.ScanProject(shard, workers, proj, func(_ RowID, row []storage.Value) bool {
				c, err := emitRow(pad(row))
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

	case accessSpatialWindow:
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
		return func(shard int, emit emitFn) error {
			emitRow := chain(emit)
			clo := shard * len(cands) / workers
			chi := (shard + 1) * len(cands) / workers
			for _, id := range cands[clo:chi] {
				row, err := tbl.FetchProject(id, path.need)
				if err != nil {
					return err
				}
				cont, err := emitRow(pad(row))
				if err != nil {
					return err
				}
				if !cont {
					return nil
				}
			}
			return nil
		}, nil
	}
	return nil, fmt.Errorf("sql: access path %s cannot run in parallel", path.kind)
}

// runShards executes one sink per shard concurrently and waits. The
// returned error is the first failing shard's, in shard order.
func runShards(workers int, runShard shardFn, sink func(shard int) emitFn) error {
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

// gatherShards materializes every shard's output and concatenates the
// buffers in shard order, reproducing the serial row order exactly.
// Rows reaching the sink are freshly padded per row, so buffering them
// without copying is safe.
func gatherShards(workers int, runShard shardFn) ([][]storage.Value, error) {
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
	var out [][]storage.Value
	for _, buf := range buffers {
		out = append(out, buf...)
	}
	return out, nil
}

// runAggregateParallel gives each worker a private aggregator (partial
// aggregation), then merges the partials in shard order and finalizes.
// The exact big.Float SUM accumulator makes the merged result
// bit-identical to a serial run regardless of partitioning.
func (r *Runner) runAggregateParallel(sel *Select, width, workers int,
	runShard shardFn) ([][]storage.Value, error) {

	aggs, err := collectAggregates(sel)
	if err != nil {
		return nil, err
	}
	parts := make([]*aggregator, workers)
	for w := range parts {
		parts[w] = newAggregator(sel, r.reg, aggs)
	}
	err = runShards(workers, runShard, func(w int) emitFn { return parts[w].add })
	if err != nil {
		return nil, err
	}
	root := parts[0]
	for _, p := range parts[1:] {
		root.merge(p)
	}
	return root.rows(width)
}
