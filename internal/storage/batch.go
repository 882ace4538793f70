package storage

import (
	"fmt"
	"sync"

	"jackpine/internal/geom"
)

// BatchSize is the number of row slots a batch scan fills per ColBatch.
// Large enough to amortize per-batch overhead, small enough that a
// batch's arena and row backing stay cache-resident.
const BatchSize = 256

// ColBatch is a column-batch view over up to a few hundred encoded
// tuples: the batch-at-a-time executor's unit of work. Tuple bytes are
// copied into one contiguous arena (a heap scan's tuple slice is only
// valid during its callback), per-column byte offsets are recorded in
// flat arrays built from the LazyTuple offset walk, and the envelope of
// an optional prefilter geometry column is stored in structure-of-arrays
// float64 slices so the MBR window test runs as one tight loop per
// batch. Survivors are carried in the Sel selection vector; materialized
// column values live in a flat row backing reused across batches.
//
// A ColBatch is reused morsel after morsel (Reset) and is not safe for
// concurrent use; each scan worker owns one. Everything a batch hands
// out — tuples, rows, arena-decoded geometries — is valid only until
// the next Reset.
type ColBatch struct {
	nCols int // columns per stored tuple
	width int // materialized row width (>= nCols; joins pad with NULLs)
	n     int // filled slots

	arena   []byte  // concatenated tuple bytes
	colOffs []int32 // n*nCols absolute offsets of column type tags
	colEnds []int32 // n*nCols offsets just past each column
	ids     []int64 // packed row ids, one per slot

	// Envelope SoA arrays for the prefilter column; an empty envelope is
	// stored with inverted infinities so the window test rejects it with
	// plain comparisons, and hasEnv is false for NULL / non-geometry
	// slots (matching the ok=false skip of the row path).
	minX, minY, maxX, maxY []float64
	hasEnv                 []bool

	// Sel lists the slots still alive after filtering, in slot order.
	Sel []int

	rows []Value // n*width flat row backing

	// Coords backs arena-decoded filter-only geometries; reset per batch.
	Coords geom.CoordArena

	// Scratch is reusable byte scratch for callers that must copy a
	// tuple before appending it (overflow chains, point fetches).
	Scratch []byte

	lt LazyTuple // offset-walk scratch
}

// colBatchPool recycles batches (and their grown arenas) across scans.
var colBatchPool = sync.Pool{New: func() any { return new(ColBatch) }}

// GetColBatch takes a batch from the shared pool.
func GetColBatch() *ColBatch { return colBatchPool.Get().(*ColBatch) }

// PutColBatch returns a batch to the pool once no slot data is referenced.
func PutColBatch(b *ColBatch) { colBatchPool.Put(b) }

// Reset empties the batch for a new morsel of tuples with nCols columns
// each, materialized into rows of the given width.
func (b *ColBatch) Reset(width, nCols int) {
	b.nCols = nCols
	b.width = width
	b.n = 0
	b.arena = b.arena[:0]
	b.colOffs = b.colOffs[:0]
	b.colEnds = b.colEnds[:0]
	b.ids = b.ids[:0]
	b.minX = b.minX[:0]
	b.minY = b.minY[:0]
	b.maxX = b.maxX[:0]
	b.maxY = b.maxY[:0]
	b.hasEnv = b.hasEnv[:0]
	b.Sel = b.Sel[:0]
	b.Coords.Reset()
}

// Len returns the number of filled slots.
func (b *ColBatch) Len() int { return b.n }

// Width returns the materialized row width.
func (b *ColBatch) Width() int { return b.width }

// ID returns the packed row id of a slot.
func (b *ColBatch) ID(slot int) int64 { return b.ids[slot] }

// Append copies one encoded tuple into the batch, validating it and
// recording its column offsets. When mbrCol >= 0 the envelope of that
// geometry column (read straight from the WKB header) is pushed onto
// the SoA prefilter arrays. Errors are the raw storage errors; callers
// wrap them with table/record context exactly as the row path does.
func (b *ColBatch) Append(id int64, tuple []byte, mbrCol int) error {
	start := len(b.arena)
	b.arena = append(b.arena, tuple...)
	if err := b.lt.Reset(b.arena[start:], b.nCols); err != nil {
		b.arena = b.arena[:start]
		return err
	}
	offs, ends := b.lt.Offsets()
	for i := range offs {
		b.colOffs = append(b.colOffs, int32(start+offs[i]))
		b.colEnds = append(b.colEnds, int32(start+ends[i]))
	}
	if mbrCol >= 0 {
		env, ok, err := b.lt.GeomEnvelope(mbrCol)
		if err != nil {
			b.arena = b.arena[:start]
			b.colOffs = b.colOffs[:b.n*b.nCols]
			b.colEnds = b.colEnds[:b.n*b.nCols]
			return err
		}
		b.minX = append(b.minX, env.MinX)
		b.minY = append(b.minY, env.MinY)
		b.maxX = append(b.maxX, env.MaxX)
		b.maxY = append(b.maxY, env.MaxY)
		b.hasEnv = append(b.hasEnv, ok)
	}
	b.ids = append(b.ids, id)
	b.n++
	return nil
}

// FilterWindow runs the flat MBR prefilter kernel: one pass over the
// SoA envelope arrays, selecting slots whose envelope intersects w.
// The comparisons replicate geom.Rect.Intersects exactly — an empty
// slot envelope (inverted infinities) fails them, a NULL/non-geometry
// slot is rejected via hasEnv — so the surviving set is precisely the
// set the row path's `!ok || !env.Intersects(window)` skip keeps.
func (b *ColBatch) FilterWindow(w geom.Rect) {
	b.Sel = b.Sel[:0]
	if w.IsEmpty() {
		return
	}
	minX, minY := b.minX[:b.n], b.minY[:b.n]
	maxX, maxY := b.maxX[:b.n], b.maxY[:b.n]
	has := b.hasEnv[:b.n]
	for i := 0; i < b.n; i++ {
		if has[i] && minX[i] <= w.MaxX && w.MinX <= maxX[i] &&
			minY[i] <= w.MaxY && w.MinY <= maxY[i] {
			b.Sel = append(b.Sel, i)
		}
	}
}

// SelectAll marks every slot as selected.
func (b *ColBatch) SelectAll() {
	b.Sel = b.Sel[:0]
	for i := 0; i < b.n; i++ {
		b.Sel = append(b.Sel, i)
	}
}

// ResetRows sizes and zeroes the flat row backing for the current slot
// count. Materialization then writes only the projected columns of
// selected slots; everything else reads as NULL.
func (b *ColBatch) ResetRows() {
	need := b.n * b.width
	if cap(b.rows) < need {
		b.rows = make([]Value, need)
		return
	}
	b.rows = b.rows[:need]
	for i := range b.rows {
		b.rows[i] = Value{}
	}
}

// Row returns the materialized row of a slot (full width, capacity
// clipped). The slice aliases the batch backing: valid until the next
// Reset/ResetRows, and rows that outlive the batch must be copied.
func (b *ColBatch) Row(slot int) []Value {
	lo := slot * b.width
	hi := lo + b.width
	return b.rows[lo:hi:hi]
}

// col returns the encoded byte range of one column of one slot.
func (b *ColBatch) col(slot, col int) []byte {
	i := slot*b.nCols + col
	return b.arena[b.colOffs[i]:b.colEnds[i]]
}

// ColType returns the stored type tag of a slot's column.
func (b *ColBatch) ColType(slot, col int) ValueType {
	return ValueType(b.col(slot, col)[0])
}

// GeomWKB returns the raw WKB payload of a geometry column, aliasing
// the batch arena. Only valid when ColType reports TypeGeom.
func (b *ColBatch) GeomWKB(slot, col int) []byte {
	return geomWKBBytes(b.col(slot, col))
}

// Col materializes one column of one slot, decoding geometries onto the
// heap (safe to cache or let escape the batch).
func (b *ColBatch) Col(slot, col int) (Value, error) {
	return decodeColBytes(b.col(slot, col), col)
}

// ColArena materializes a geometry column using the batch coordinate
// arena. The decoded geometry aliases arena memory: filter-only use,
// never cached, never allowed to escape the batch. Non-geometry types
// fall back to Col.
func (b *ColBatch) ColArena(slot, col int) (Value, error) {
	buf := b.col(slot, col)
	if ValueType(buf[0]) != TypeGeom {
		return decodeColBytes(buf, col)
	}
	g, err := geom.UnmarshalWKBArena(geomWKBBytes(buf), &b.Coords)
	if err != nil {
		return Null(), fmt.Errorf("storage: column %d: %w", col, err)
	}
	return NewGeom(g), nil
}
