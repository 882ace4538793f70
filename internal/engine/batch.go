package engine

import (
	"fmt"

	"jackpine/internal/sql"
	"jackpine/internal/storage"
)

// Batch-at-a-time table access: the engine side of the vectorized
// executor. ScanBatch and FetchBatch fill reusable column batches from
// the heap, run the flat MBR prefilter kernel over the batch's SoA
// envelope arrays, and materialize only the surviving slots. Filter-only
// (ephemeral) geometries decode into the batch's coordinate arena
// instead of the heap.

// ScanBatch implements sql.BatchTable.
func (t *table) ScanBatch(shard, nshards int, proj sql.Projection, size int,
	fn func(*storage.ColBatch) (bool, error)) error {

	if size <= 0 {
		size = 256
	}
	b := storage.GetColBatch()
	defer storage.PutColBatch(b)
	b.Reset(len(t.cols), len(t.cols))

	cont := true
	var innerErr error
	flush := func() bool {
		if b.Len() == 0 {
			return true
		}
		if proj.MBRCol >= 0 {
			b.FilterWindow(proj.Window)
		} else {
			b.SelectAll()
		}
		if len(b.Sel) > 0 {
			if err := t.materializeBatch(b, proj); err != nil {
				innerErr = err
				return false
			}
			c, err := fn(b)
			if err != nil {
				innerErr = err
				return false
			}
			cont = c
		}
		b.Reset(len(t.cols), len(t.cols))
		return cont
	}
	visit := func(rid storage.RecordID, tuple []byte) bool {
		if err := b.Append(int64(sql.PackRowID(rid)), tuple, proj.MBRCol); err != nil {
			innerErr = fmt.Errorf("engine: table %s at %s: %w", t.name, rid, err)
			return false
		}
		if b.Len() >= size {
			return flush()
		}
		return true
	}
	var err error
	if nshards <= 1 {
		err = t.heap.Scan(visit)
	} else {
		err = t.heap.ScanShard(shard, nshards, visit)
	}
	if innerErr == nil && err == nil && cont {
		flush()
	}
	if innerErr != nil {
		return innerErr
	}
	return err
}

// FetchBatch implements sql.BatchTable.
func (t *table) FetchBatch(ids []sql.RowID, proj sql.Projection, b *storage.ColBatch) error {
	b.Reset(len(t.cols), len(t.cols))
	for _, id := range ids {
		rid := id.Unpack()
		var err error
		b.Scratch, err = t.heap.GetAppend(b.Scratch[:0], rid)
		if err != nil {
			return err
		}
		if err := b.Append(int64(id), b.Scratch, -1); err != nil {
			return fmt.Errorf("engine: table %s at %s: %w", t.name, rid, err)
		}
	}
	b.SelectAll()
	return t.materializeBatch(b, proj)
}

// materializeBatch decodes the projected columns of the batch's
// selected slots into its flat row backing, column-major. Ephemeral
// geometry columns (filter-only, per proj.Ephemeral) decode into the
// batch coordinate arena; every other column decodes onto the heap.
func (t *table) materializeBatch(b *storage.ColBatch, proj sql.Projection) error {
	b.ResetRows()
	for col := range t.cols {
		if proj.Need != nil && !proj.Need[col] {
			continue
		}
		eph := proj.Ephemeral != nil && proj.Ephemeral[col]
		for _, s := range b.Sel {
			var v storage.Value
			var err error
			if eph && b.ColType(s, col) == storage.TypeGeom {
				v, err = b.ColArena(s, col)
			} else {
				v, err = b.Col(s, col)
			}
			if err != nil {
				return fmt.Errorf("engine: table %s at %s: %w", t.name, sql.RowID(b.ID(s)).Unpack(), err)
			}
			b.Row(s)[col] = v
		}
	}
	return nil
}
