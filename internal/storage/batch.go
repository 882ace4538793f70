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
// tuples: the batch-at-a-time executor's unit of work. Append walks and
// validates each tuple where it lies (a heap scan's tuple slice is the
// pinned page, valid only during its callback), applies the scan's
// TupleFilter there, and copies only the tuples that pass into one
// contiguous arena, recording their per-column byte offsets in flat
// arrays. Survivors are carried in the Sel selection vector;
// materialized column values live in a flat row backing reused across
// batches.
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

// TupleFilter is the test a batch scan or fetch applies to each tuple
// before copying it into the batch: the tuple's MBRCol geometry
// envelope must intersect Window (when MBRCol >= 0; a NULL or empty
// geometry fails, as it can satisfy no sargable spatial predicate),
// and no comparison in Compares may certainly reject it. It is a superset filter: every
// row it drops, the exact filters downstream would drop without error,
// and they still run on every row it keeps.
type TupleFilter struct {
	MBRCol   int
	Window   geom.Rect
	Compares []ColCompare
}

// keep applies f to the tuple lt was just Reset with.
func (f *TupleFilter) keep(lt *LazyTuple) (bool, error) {
	if f.MBRCol >= 0 {
		env, ok, err := lt.GeomEnvelope(f.MBRCol)
		if err != nil || !ok || !env.Intersects(f.Window) {
			return false, err
		}
	}
	for i := range f.Compares {
		c := &f.Compares[i]
		if c.drops(lt.col(c.Col)) {
			return false, nil
		}
	}
	return true, nil
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
	b.Sel = b.Sel[:0]
	b.Coords.Reset()
	// Size the per-slot arrays for a full batch at once: a pooled batch
	// that served only point fetches then fills a scan's batch without
	// growing them slot by slot.
	if cap(b.ids) < BatchSize {
		b.ids, b.Sel = make([]int64, 0, BatchSize), make([]int, 0, BatchSize)
	}
	if cap(b.colOffs) < BatchSize*nCols {
		b.colOffs, b.colEnds = make([]int32, 0, BatchSize*nCols), make([]int32, 0, BatchSize*nCols)
	}
}

// Len returns the number of filled slots.
func (b *ColBatch) Len() int { return b.n }

// Width returns the materialized row width.
func (b *ColBatch) Width() int { return b.width }

// ID returns the packed row id of a slot.
func (b *ColBatch) ID(slot int) int64 { return b.ids[slot] }

// Append validates one encoded tuple in place and, when f is non-nil,
// reads its f.MBRCol envelope and applies f. A tuple that passes — every
// valid tuple when f is nil — is copied into the arena with its
// already-walked column offsets rebased, and its slot joins the
// selection. The structural validation and the envelope read run for
// every tuple, so a corrupt tuple errors whether or not f would drop
// it. Errors are the raw storage errors; callers wrap them with
// table/record context.
func (b *ColBatch) Append(id int64, tuple []byte, f *TupleFilter) error {
	if err := b.lt.Reset(tuple, b.nCols); err != nil {
		return err
	}
	if f != nil {
		if keep, err := f.keep(&b.lt); err != nil || !keep {
			return err
		}
	}
	start := len(b.arena)
	b.arena = append(b.arena, tuple...)
	offs, ends := b.lt.Offsets()
	for i := range offs {
		b.colOffs = append(b.colOffs, int32(start+offs[i]))
		b.colEnds = append(b.colEnds, int32(start+ends[i]))
	}
	b.ids = append(b.ids, id)
	b.Sel = append(b.Sel, b.n)
	b.n++
	return nil
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
	return payloadBytes(b.col(slot, col))
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
	g, err := geom.UnmarshalWKBArena(payloadBytes(buf), &b.Coords)
	if err != nil {
		return Null(), fmt.Errorf("storage: column %d: %w", col, err)
	}
	return NewGeom(g), nil
}
