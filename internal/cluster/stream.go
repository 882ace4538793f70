package cluster

import (
	"context"
	"errors"
	"sync"

	"jackpine/internal/storage"
)

// This file implements the streaming half of scatter-gather: instead of
// collecting every shard's full result before merging, shard fragments
// flow through a bounded channel and merge into the accumulated sorted
// run as they arrive, so ordered and kNN merges start with the first
// fragment and early-exit shapes can cancel shards that are still
// running. Merge comparators are total orders (the appended _seq column
// is unique cluster-wide), so incremental merging is deterministic
// regardless of arrival order.

// fragment is one shard's portion of a streamed scatter.
type fragment struct {
	shard int
	rows  [][]storage.Value
	err   error
}

// scatterRun is an in-flight streamed scatter. Only its consumer — the
// goroutine draining ch — cancels shards, so canceled needs no lock.
type scatterRun struct {
	ch       chan fragment
	cancels  map[int]context.CancelFunc
	canceled map[int]bool // shards the consumer abandoned
}

// cancelShard abandons one shard's outstanding request (its session
// stops early if it honors contexts; otherwise the reply is discarded).
func (sr *scatterRun) cancelShard(shard int) {
	if cancel, ok := sr.cancels[shard]; ok {
		cancel()
		sr.canceled[shard] = true
	}
}

// cancelAll abandons every outstanding request.
func (sr *scatterRun) cancelAll() {
	for s := range sr.cancels {
		sr.cancelShard(s)
	}
}

// drain reads the scatter to its end, handing each fragment to keep in
// arrival order. The first shard failure cancels every shard; keep sees
// nothing after it, and drain returns the error pickErr prefers. A
// shard the consumer abandoned itself may answer with a cancellation:
// that is an early exit, not a failure.
func (sr *scatterRun) drain(keep func(f fragment)) error {
	var err error
	errShard := 0
	for f := range sr.ch {
		switch {
		case f.err != nil && sr.canceled[f.shard] && isCanceled(f.err):
			// An early exit the consumer asked for.
		case f.err != nil:
			if err == nil {
				sr.cancelAll()
			}
			err, errShard = pickErr(err, errShard, f)
		case err == nil:
			keep(f)
		}
	}
	return err
}

// startScatter sends each target shard its statement — stmts maps
// shard to text — and streams fragments back in arrival order over a
// bounded channel. Each shard gets its own cancelable context so
// consumers can abandon shards a tightening bound proves irrelevant.
func (cn *Conn) startScatter(ctx context.Context, stmts map[int]string) *scatterRun {
	sr := &scatterRun{
		ch:       make(chan fragment, 2),
		cancels:  make(map[int]context.CancelFunc, len(stmts)),
		canceled: make(map[int]bool),
	}
	var wg sync.WaitGroup
	for s, text := range stmts {
		sctx, cancel := context.WithCancel(ctx)
		sr.cancels[s] = cancel
		wg.Add(1)
		go func(s int, sctx context.Context, text string) {
			defer wg.Done()
			rs, err := cn.queryShard(sctx, s, text)
			f := fragment{shard: s, err: err}
			if err == nil {
				f.rows = rs.Rows
			}
			sr.ch <- f
		}(s, sctx, text)
	}
	go func() {
		wg.Wait()
		for _, cancel := range sr.cancels {
			cancel() // release contexts once every shard has reported
		}
		close(sr.ch)
	}()
	return sr
}

// sameStmt maps every target shard to one statement text.
func sameStmt(text string, targets []int) map[int]string {
	stmts := make(map[int]string, len(targets))
	for _, s := range targets {
		stmts[s] = text
	}
	return stmts
}

// isCanceled reports whether an error is a context cancellation.
func isCanceled(err error) bool { return errors.Is(err, context.Canceled) }

// pickErr keeps the most deterministic error across fragments: real
// failures beat cancellations (which are usually fallout from the
// consumer's own cancelAll after the first failure), and within a
// severity the lowest failing shard wins.
func pickErr(best error, bestShard int, f fragment) (error, int) {
	if f.err == nil {
		return best, bestShard
	}
	if best == nil {
		return f.err, f.shard
	}
	fCanceled, bCanceled := isCanceled(f.err), isCanceled(best)
	if bCanceled && !fCanceled {
		return f.err, f.shard
	}
	if bCanceled == fCanceled && f.shard < bestShard {
		return f.err, f.shard
	}
	return best, bestShard
}

// mergeRows merges two runs sorted under less into one. less must be a
// strict total order (routed scans always append the unique _seq as the
// final tie-break), which makes the merge independent of arrival order.
func mergeRows(a, b [][]storage.Value, less func(x, y []storage.Value) bool) [][]storage.Value {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([][]storage.Value, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if less(b[j], a[i]) {
			out = append(out, b[j])
			j++
		} else {
			out = append(out, a[i])
			i++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// collectMerged drains a streamed scatter, merging fragments into one
// sorted run as they arrive. want bounds the run (keep the want
// smallest rows; -1 keeps everything): with a total order, truncating
// after each merge never drops a row the final top-want could need. A
// shard failure returns drain's error.
func collectMerged(sr *scatterRun, want int, less func(x, y []storage.Value) bool) ([][]storage.Value, error) {
	var merged [][]storage.Value
	err := sr.drain(func(f fragment) {
		merged = mergeRows(merged, f.rows, less)
		if want >= 0 && len(merged) > want {
			merged = merged[:want]
		}
	})
	if err != nil {
		return nil, err
	}
	return merged, nil
}

// collectByShard drains a streamed scatter keeping fragments keyed by
// shard, for consumers that must merge in shard order rather than
// arrival order (partial-aggregate merging, where MIN/MAX ties must
// resolve to the earliest shard like a single engine's parallel merge).
func collectByShard(sr *scatterRun) (map[int][][]storage.Value, error) {
	out := make(map[int][][]storage.Value)
	if err := sr.drain(func(f fragment) { out[f.shard] = f.rows }); err != nil {
		return nil, err
	}
	return out, nil
}

// seqLess orders rows by the trailing _seq column.
func seqLess(seqIdx int) func(x, y []storage.Value) bool {
	return func(x, y []storage.Value) bool {
		return x[seqIdx].Int < y[seqIdx].Int
	}
}

// keyLess orders rows by appended sort keys starting at keyStart, with
// the trailing _seq column as the unique tie-break.
func keyLess(keys []keySpec, keyStart, seqIdx int) func(x, y []storage.Value) bool {
	return func(x, y []storage.Value) bool {
		for k, spec := range keys {
			c, _ := storage.Compare(x[keyStart+k], y[keyStart+k])
			if c != 0 {
				if spec.desc {
					return c > 0
				}
				return c < 0
			}
		}
		return x[seqIdx].Int < y[seqIdx].Int
	}
}

// keySpec is one ORDER BY key's direction.
type keySpec struct{ desc bool }
