package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"jackpine/internal/geom"
	"jackpine/internal/index/btree"
	"jackpine/internal/index/grid"
	"jackpine/internal/index/rtree"
	"jackpine/internal/sql"
	"jackpine/internal/storage"
)

var _ sql.Table = (*table)(nil)

// table implements sql.Table over a heap file plus indexes.
type table struct {
	name     string
	cols     []sql.Column
	heap     *storage.HeapFile
	geomCols map[string]int // geometry column name -> offset; immutable after newTable

	// version advances on every row mutation (and on rebuild, which
	// renumbers ids); snapshot-style caches key their validity on it.
	// Atomic, not mu-guarded: readers snapshot it lock-free.
	version atomic.Uint64

	mu      sync.RWMutex
	spatial map[string]spatialIndex // column -> index
	attr    []*attrIdx              // attribute indexes, composite-capable
	stats   map[int]*geomColStats   // per-geometry-column join stats; nil = recompute lazily
}

// DataVersion implements sql.Table.
func (t *table) DataVersion() uint64 { return t.version.Load() }

// attrIdx is one attribute index: ordered columns with their offsets and
// types, over a B+tree of concatenated component encodings.
type attrIdx struct {
	columns []string
	offs    []int
	types   []storage.ValueType
	tree    *btree.Tree
}

// key builds the composite key for a row, or ok=false when any component
// is NULL (such rows are not indexed; SQL equality never matches NULL).
func (ix *attrIdx) key(row []storage.Value) ([]byte, bool) {
	var key []byte
	for i, off := range ix.offs {
		v := row[off]
		if v.IsNull() {
			return nil, false
		}
		switch ix.types[i] {
		case storage.TypeInt, storage.TypeBool:
			key = btree.AppendInt(key, v.Int)
		case storage.TypeFloat:
			f, _ := v.AsFloat()
			key = btree.AppendFloat(key, f)
		case storage.TypeText:
			key = btree.AppendText(key, v.Text)
		default:
			return nil, false
		}
	}
	return key, true
}

// spatialIndex unifies the R-tree and grid behind sql.SpatialIndex plus
// the mutation operations the table needs.
type spatialIndex interface {
	sql.SpatialIndex
	insert(r geom.Rect, id sql.RowID)
	remove(r geom.Rect, id sql.RowID)
}

type rtreeIndex struct{ t *rtree.Tree }

func (x rtreeIndex) Search(w geom.Rect, fn func(sql.RowID) bool) {
	x.t.Search(w, func(e rtree.Entry) bool { return fn(sql.RowID(e.ID)) })
}

func (x rtreeIndex) Nearest(q geom.Rect, fn func(sql.RowID, float64) bool) {
	x.t.Nearest(q, func(e rtree.Entry, d float64) bool { return fn(sql.RowID(e.ID), d) })
}

func (x rtreeIndex) Len() int { return x.t.Len() }

func (x rtreeIndex) insert(r geom.Rect, id sql.RowID) { x.t.Insert(r, int64(id)) }

func (x rtreeIndex) remove(r geom.Rect, id sql.RowID) { x.t.Delete(r, int64(id)) }

type gridIndex struct{ g *grid.Index }

func (x gridIndex) Search(w geom.Rect, fn func(sql.RowID) bool) {
	x.g.Search(w, func(e grid.Entry) bool { return fn(sql.RowID(e.ID)) })
}

func (x gridIndex) Nearest(q geom.Rect, fn func(sql.RowID, float64) bool) {
	x.g.Nearest(q, func(e grid.Entry, d float64) bool { return fn(sql.RowID(e.ID), d) })
}

func (x gridIndex) Len() int { return x.g.Len() }

func (x gridIndex) insert(r geom.Rect, id sql.RowID) { x.g.Insert(r, int64(id)) }

func (x gridIndex) remove(r geom.Rect, id sql.RowID) { x.g.Delete(r, int64(id)) }

// attrIndex adapts btree.Tree to sql.AttrIndex.
type attrIndex struct{ t *btree.Tree }

// Seek implements sql.AttrIndex.
func (x attrIndex) Seek(key []byte, fn func(sql.RowID) bool) {
	x.t.Seek(key, func(rowid int64) bool { return fn(sql.RowID(rowid)) })
}

// Range implements sql.AttrIndex.
func (x attrIndex) Range(lo, hi []byte, loInc, hiInc bool, fn func(sql.RowID) bool) {
	x.t.Range(lo, hi, loInc, hiInc, func(_ []byte, rowid int64) bool { return fn(sql.RowID(rowid)) })
}

func newTable(name string, cols []sql.Column, pool *storage.BufferPool) *table {
	t := &table{
		name:     name,
		cols:     cols,
		heap:     storage.NewHeapFile(pool),
		spatial:  make(map[string]spatialIndex),
		geomCols: make(map[string]int),
	}
	for i, c := range cols {
		if c.Type == storage.TypeGeom {
			t.geomCols[c.Name] = i
		}
	}
	t.initStatsLocked()
	return t
}

// newTableFromHeap is newTable over an already-populated heap,
// reattached from a persistent catalog. Indexes are not restored here;
// the caller rebuilds them from their catalog definitions.
func newTableFromHeap(name string, cols []sql.Column, heap *storage.HeapFile) *table {
	t := &table{
		name:     name,
		cols:     cols,
		heap:     heap,
		spatial:  make(map[string]spatialIndex),
		geomCols: make(map[string]int),
	}
	for i, c := range cols {
		if c.Type == storage.TypeGeom {
			t.geomCols[c.Name] = i
		}
	}
	return t
}

// Name implements sql.Table.
func (t *table) Name() string { return t.name }

// Columns implements sql.Table.
func (t *table) Columns() []sql.Column { return t.cols }

// RowCount implements sql.Table.
func (t *table) RowCount() int { return t.heap.Count() }

// Insert implements sql.Table.
func (t *table) Insert(row []storage.Value) (sql.RowID, error) {
	if len(row) != len(t.cols) {
		return 0, fmt.Errorf("engine: table %s expects %d columns, got %d", t.name, len(t.cols), len(row))
	}
	rid, err := t.heap.Insert(storage.EncodeTuple(row))
	if err != nil {
		return 0, err
	}
	t.version.Add(1)
	id := sql.PackRowID(rid)
	t.mu.Lock()
	t.indexRowLocked(id, row, true)
	t.mu.Unlock()
	return id, nil
}

// indexRowLocked adds (add=true) or removes the row from all indexes
// and folds it into the per-column geometry statistics.
func (t *table) indexRowLocked(id sql.RowID, row []storage.Value, add bool) {
	t.noteGeomLocked(row, add)
	for col, idx := range t.spatial {
		off := t.geomCols[col]
		v := row[off]
		if v.IsNull() || v.Type != storage.TypeGeom || v.Geom.IsEmpty() {
			continue
		}
		if add {
			idx.insert(v.Geom.Envelope(), id)
		} else {
			idx.remove(v.Geom.Envelope(), id)
		}
	}
	for _, ix := range t.attr {
		key, ok := ix.key(row)
		if !ok {
			continue
		}
		if add {
			ix.tree.Insert(key, int64(id))
		} else {
			ix.tree.Delete(key, int64(id))
		}
	}
}

// Delete implements sql.Table.
func (t *table) Delete(id sql.RowID) error {
	b := storage.GetColBatch()
	defer storage.PutColBatch(b)
	if err := t.FetchBatch([]sql.RowID{id}, t.unindexProjection(), b); err != nil {
		return err
	}
	if err := t.heap.Delete(id.Unpack()); err != nil {
		return err
	}
	t.version.Add(1)
	t.mu.Lock()
	t.indexRowLocked(id, b.Row(0), false)
	t.mu.Unlock()
	return nil
}

// unindexProjection is what Delete fetches of a row: the columns its
// attribute-index keys and its geometry statistics and index entries
// are built from. Only the geometries' envelopes are read, so they
// decode into the batch's arena.
func (t *table) unindexProjection() sql.Projection {
	need, geoms := make([]bool, len(t.cols)), make([]bool, len(t.cols))
	for _, off := range t.geomCols {
		need[off], geoms[off] = true, true
	}
	t.mu.RLock()
	for _, ix := range t.attr {
		for _, off := range ix.offs {
			need[off] = true
		}
	}
	t.mu.RUnlock()
	return sql.Projection{Need: need, MBRCol: -1, Ephemeral: geoms}
}

// Update implements sql.Table as delete-plus-insert; the row id changes.
func (t *table) Update(id sql.RowID, row []storage.Value) (sql.RowID, error) {
	if err := t.Delete(id); err != nil {
		return 0, err
	}
	return t.Insert(row)
}

// SpatialIndexOn implements sql.Table.
func (t *table) SpatialIndexOn(column string) sql.SpatialIndex {
	t.mu.RLock()
	defer t.mu.RUnlock()
	idx, ok := t.spatial[column]
	if !ok {
		return nil
	}
	return idx
}

// AttrIndexes implements sql.Table.
func (t *table) AttrIndexes() []sql.AttrIndexDef {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]sql.AttrIndexDef, 0, len(t.attr))
	for _, ix := range t.attr {
		out = append(out, sql.AttrIndexDef{Columns: ix.columns, Index: attrIndex{ix.tree}})
	}
	return out
}

// buildSpatialIndex creates and populates a spatial index on column.
func (t *table) buildSpatialIndex(column string, typ IndexType, gridDim int) error {
	off, ok := t.geomCols[column]
	if !ok {
		return fmt.Errorf("engine: column %s.%s is not GEOMETRY", t.name, column)
	}
	// Gather entries first (bulk load beats repeated insertion). Only
	// envelopes are needed, and ScanMBR reads those straight off the WKB
	// bytes — the build never materializes a geometry.
	var entries []rtree.Entry
	extent := geom.EmptyRect()
	err := t.ScanMBR(off, func(id sql.RowID, env geom.Rect) bool {
		extent = extent.Union(env)
		entries = append(entries, rtree.Entry{Rect: env, ID: int64(id)})
		return true
	})
	if err != nil {
		return err
	}
	var idx spatialIndex
	switch typ {
	case IndexGrid:
		if gridDim <= 0 {
			gridDim = 64
		}
		g := grid.New(extent.Expand(extent.Width()*0.05+1), gridDim, gridDim)
		for _, e := range entries {
			g.Insert(e.Rect, e.ID)
		}
		idx = gridIndex{g}
	default:
		idx = rtreeIndex{rtree.BulkLoad(entries, 16)}
	}
	t.mu.Lock()
	t.spatial[column] = idx
	t.mu.Unlock()
	return nil
}

// dropSpatialIndex removes the spatial index on column, reporting
// whether one existed (used by the index-effect experiment).
func (t *table) dropSpatialIndex(column string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.spatial[column]; !ok {
		return false
	}
	delete(t.spatial, column)
	return true
}

// rebuild rewrites the heap, dropping tombstones and abandoned overflow
// pages, and rebuilds every index.
func (t *table) rebuild(pool *storage.BufferPool, idxType IndexType, gridDim int) error {
	t.version.Add(1) // record ids are renumbered below
	fresh := storage.NewHeapFile(pool)
	var innerErr error
	err := t.heap.Scan(func(_ storage.RecordID, tuple []byte) bool {
		// Tuples are copied verbatim; decode errors would have surfaced
		// on the way in.
		if _, err := fresh.Insert(append([]byte(nil), tuple...)); err != nil {
			innerErr = err // a file-backed pool can fail mid-rebuild (disk, NO-STEAL pressure)
			return false
		}
		return true
	})
	if innerErr != nil {
		return innerErr
	}
	if err != nil {
		return err
	}
	t.mu.Lock()
	spatialCols := make([]string, 0, len(t.spatial))
	for col := range t.spatial {
		spatialCols = append(spatialCols, col)
	}
	attrDefs := make([][]string, 0, len(t.attr))
	for _, ix := range t.attr {
		attrDefs = append(attrDefs, ix.columns)
	}
	t.heap = fresh
	t.spatial = make(map[string]spatialIndex)
	t.attr = nil
	t.stats = nil // recomputed lazily from the fresh heap on next use
	t.mu.Unlock()
	for _, col := range spatialCols {
		if err := t.buildSpatialIndex(col, idxType, gridDim); err != nil {
			return err
		}
	}
	for _, cols := range attrDefs {
		if err := t.buildAttrIndex(cols); err != nil {
			return err
		}
	}
	return nil
}

// buildAttrIndex creates and populates a (possibly composite) B+tree
// index over the given columns.
func (t *table) buildAttrIndex(columns []string) error {
	if len(columns) == 0 {
		return fmt.Errorf("engine: index on %s needs at least one column", t.name)
	}
	ix := &attrIdx{columns: columns, tree: btree.New()}
	for _, column := range columns {
		off := sql.ColumnIndexByName(t.cols, column)
		if off < 0 {
			return fmt.Errorf("engine: unknown column %s.%s", t.name, column)
		}
		if t.cols[off].Type == storage.TypeGeom {
			return fmt.Errorf("engine: use CREATE SPATIAL INDEX for geometry column %s.%s", t.name, column)
		}
		ix.offs = append(ix.offs, off)
		ix.types = append(ix.types, t.cols[off].Type)
	}
	// Only the indexed columns are decoded; the rest stay NULL.
	need := make([]bool, len(t.cols))
	for _, off := range ix.offs {
		need[off] = true
	}
	err := t.ScanBatch(0, 1, sql.Projection{Need: need, MBRCol: -1}, func(b *storage.ColBatch) (bool, error) {
		for _, s := range b.Sel {
			if key, ok := ix.key(b.Row(s)); ok {
				ix.tree.Insert(key, b.ID(s))
			}
		}
		return true, nil
	})
	if err != nil {
		return err
	}
	t.mu.Lock()
	t.attr = append(t.attr, ix)
	t.mu.Unlock()
	return nil
}
