package engine

import (
	"fmt"

	"jackpine/internal/sql"
	"jackpine/internal/storage"
)

// Batch-at-a-time table access: the engine side of the vectorized
// executor. ScanBatch fills reusable column batches from the heap,
// testing each tuple on its page against the projection's MBR window
// and pushed-down comparisons and copying only the survivors; FetchBatch
// fills them with given rows that pass the pushed-down comparisons.
// Both materialize only the selected slots.
// Filter-only (ephemeral) geometries decode into the batch's coordinate
// arena instead of the heap.

// ScanBatch implements sql.Table.
func (t *table) ScanBatch(shard, nshards int, proj sql.Projection,
	fn func(*storage.ColBatch) (bool, error)) error {

	b := storage.GetColBatch()
	defer storage.PutColBatch(b)
	b.Reset(len(t.cols), len(t.cols))
	filter := &storage.TupleFilter{MBRCol: proj.MBRCol, Window: proj.Window, Compares: proj.Compares}

	cont := true
	var innerErr error
	flush := func() bool {
		if b.Len() == 0 {
			return true
		}
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
		b.Reset(len(t.cols), len(t.cols))
		return cont
	}
	visit := func(rid storage.RecordID, tuple []byte) bool {
		if err := b.Append(int64(sql.PackRowID(rid)), tuple, filter); err != nil {
			innerErr = fmt.Errorf("engine: table %s at %s: %w", t.name, rid, err)
			return false
		}
		if b.Len() >= storage.BatchSize {
			return flush()
		}
		return true
	}
	err := t.heap.ScanShard(shard, nshards, visit)
	if innerErr == nil && err == nil && cont {
		flush()
	}
	if innerErr != nil {
		return innerErr
	}
	return err
}

// FetchBatch implements sql.Table.
func (t *table) FetchBatch(ids []sql.RowID, proj sql.Projection, b *storage.ColBatch) error {
	b.Reset(len(t.cols), len(t.cols))
	var filter *storage.TupleFilter
	if len(proj.Compares) > 0 {
		filter = &storage.TupleFilter{MBRCol: -1, Compares: proj.Compares}
	}
	for _, id := range ids {
		rid := id.Unpack()
		var err error
		b.Scratch, err = t.heap.GetAppend(b.Scratch[:0], rid)
		if err != nil {
			return err
		}
		if err := b.Append(int64(id), b.Scratch, filter); err != nil {
			return fmt.Errorf("engine: table %s at %s: %w", t.name, rid, err)
		}
	}
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
