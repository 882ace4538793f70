package sql

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"jackpine/internal/storage"
)

// joinOp is one join stage's operator, chosen once per plan from the
// stage's access path: an index nested loop (a spatial window, B-tree
// seek or range per outer row, or the index-less rescan), a hash probe,
// or a PBSM sweep probe.
// It names the stage for EXPLAIN and Result.Access and carries the
// JoinStats counter of its strategy. Its shared state — the hash
// table, the sweep state — opens at most once per statement, on the
// first probe from any worker, so a plan whose outer side yields no rows
// never builds it; every later probe only reads it. (A sweep state that
// supplies stage 0's rows holds only the outer side until then.)
// Per-worker scratch belongs to each worker's innerReader.
type joinOp struct {
	r     *Runner
	tbl   Table
	path  accessPath
	lo    int // the stage table's first scope offset
	label string
	stat  *atomic.Int64 // JoinStats counter of the strategy; nil for uncounted ones

	once sync.Once
	err  error                        // the build error, returned by every probe
	hash map[string][][]storage.Value // hash join build side, bucketed by key
	pbsm *pbsmState                   // PBSM candidate index
}

// newJoinOp chooses the operator of the join stage reading tbl through
// path at scope offset lo.
func (r *Runner) newJoinOp(tbl Table, path accessPath, lo int) *joinOp {
	op := &joinOp{r: r, tbl: tbl, path: path, lo: lo, label: path.kind.String()}
	switch path.kind {
	case accessSpatialWindow:
		op.label, op.stat = fmt.Sprintf("inl(index=%s)", path.idxCol), &r.joinINL
	case accessHashJoin:
		op.label = "hash"
	case accessPBSM:
		op.label = fmt.Sprintf("pbsm(cells=%dx%d)", path.pbsm.gx, path.pbsm.gy)
		op.stat = &r.joinPBSM
	}
	return op
}

// acquireOuter acquires a PBSM stage's state before stage 0 runs, for a
// plan whose stage 0 reads its rows from the state; the first probe
// completes it.
func (op *joinOp) acquireOuter() error {
	op.pbsm, op.err = op.r.acquirePBSM(op.path.pbsm, op.path.need)
	return op.err
}

// open builds the stage's shared state unless it is built already, and
// returns the build error.
func (op *joinOp) open() error {
	// A literal, not a method value: jackpinevet's lock-order graph
	// follows calls made inside literals only.
	op.once.Do(func() {
		switch op.path.kind {
		case accessHashJoin:
			op.hash, op.err = op.r.buildHashTable(op.tbl, op.path)
		case accessPBSM:
			if op.pbsm == nil {
				op.pbsm, op.err = op.r.acquirePBSM(op.path.pbsm, op.path.need)
			}
			if op.err == nil {
				op.err = op.r.completePBSM(op.pbsm, op.path.pbsm, op.path.need)
			}
		}
	})
	return op.err
}

// innerReader is one worker's scratch for one join stage: the tuple
// each outer row's prefix is copied into and each inner row is emitted
// in, borrowed, and the probe and fetcher an index path reads its inner
// rows through. Its callbacks are bound once, so a probe reads without
// allocating. Workers never share one.
type innerReader struct {
	op      *joinOp
	full    []storage.Value
	emit    emitFn
	each    func(*storage.ColBatch) (bool, error) // rd.emitRows, bound once
	probe   idProbe
	fetch   *idFetcher // index paths only
	stopped bool       // emit asked for no more rows
}

// reader returns a worker's reader of the stage, emitting full-width
// rows into emit.
func (op *joinOp) reader(width int, emit emitFn) *innerReader {
	rd := &innerReader{op: op, full: make([]storage.Value, width), emit: emit}
	rd.each = rd.emitRows
	switch op.path.kind {
	case accessSpatialWindow, accessAttrSeek, accessAttrRange:
		rd.fetch = newIDFetcher(op.tbl, Projection{Need: op.path.need, MBRCol: -1}, storage.BatchSize, rd.each)
	}
	return rd
}

// read drives the outer row in rd.full (its prefix below lo) through
// the stage, first opening the stage's shared state if no probe has
// yet: each inner row is copied in at lo and full is emitted. An index
// path fetches the ids its probe finds in chunks; the index-less rescan
// reads the heap in batches.
func (rd *innerReader) read() (bool, error) {
	op := rd.op
	if err := op.open(); err != nil {
		return false, err
	}
	switch op.path.kind {
	case accessHashJoin:
		return op.probeHash(rd.full, rd.emit)
	case accessPBSM:
		return op.probePBSM(rd.full, rd.emit)
	case accessFullScan:
		proj, skip, err := op.path.scanProjection(rd.full, op.r.reg)
		if err != nil || skip {
			return err == nil, err
		}
		rd.stopped = false
		err = op.tbl.ScanBatch(0, 1, proj, rd.each)
		return !rd.stopped, err
	}
	if ok, err := rd.probe.eval(&op.path, rd.full, op.r.reg); err != nil || !ok {
		return err == nil, err
	}
	return rd.fetch.read(rd.probe.search)
}

// emitRows emits the batch's rows, each copied into full at lo.
func (rd *innerReader) emitRows(b *storage.ColBatch) (bool, error) {
	for _, s := range b.Sel {
		copy(rd.full[rd.op.lo:], b.Row(s))
		if cont, err := rd.emit(rd.full); err != nil || !cont {
			rd.stopped = !cont
			return cont, err
		}
	}
	return true, nil
}

// hashJoinKey builds a bucket key that collides for numerically equal
// values, -0 and +0 included; the original equality conjunct remains in
// the stage's residual filter, so over-wide buckets are re-checked
// exactly.
func hashJoinKey(v storage.Value) (string, bool) {
	if v.IsNull() {
		return "", false // SQL equality never matches NULL
	}
	if f, ok := v.AsFloat(); ok {
		switch {
		case f == 0:
			f = 0 // storage.Compare calls -0 and +0 equal
		case math.IsNaN(f):
			f = math.NaN() // and every NaN equal to every other
		}
		var b [9]byte
		b[0] = 'n'
		bits := math.Float64bits(f)
		for i := 0; i < 8; i++ {
			b[1+i] = byte(bits >> (8 * i))
		}
		return string(b[:]), true
	}
	return string(storage.EncodeTuple([]storage.Value{v})), true
}

// buildHashTable materializes a hash join's build side, bucketed by the
// join key of the build column.
func (r *Runner) buildHashTable(tbl Table, path accessPath) (map[string][][]storage.Value, error) {
	table := make(map[string][][]storage.Value)
	err := scanRows(tbl, 0, 1, path.need, func(_ RowID, row []storage.Value) error {
		if key, ok := hashJoinKey(row[path.hashCol]); ok {
			table[key] = append(table[key], slices.Clone(row))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return table, nil
}

// probeHash emits the build rows in the outer row's key bucket.
func (op *joinOp) probeHash(full []storage.Value, emit emitFn) (bool, error) {
	probe, err := Eval(op.path.hashExpr, full, op.r.reg)
	if err != nil {
		return false, err
	}
	key, ok := hashJoinKey(probe)
	if !ok {
		return true, nil
	}
	for _, row := range op.hash[key] {
		copy(full[op.lo:], row)
		cont, err := emit(full)
		if err != nil || !cont {
			return cont, err
		}
	}
	return true, nil
}
