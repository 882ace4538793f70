package sql

import (
	"jackpine/internal/geom"
	"jackpine/internal/storage"
)

// RowID is the executor-facing identifier of a stored row, equal to the
// heap RecordID packed as (page << 16 | slot).
type RowID int64

// PackRowID converts a heap record id to a RowID.
func PackRowID(rid storage.RecordID) RowID {
	return RowID(int64(rid.Page)<<16 | int64(rid.Slot))
}

// Unpack converts the RowID back to a heap record id.
func (r RowID) Unpack() storage.RecordID {
	return storage.RecordID{Page: uint32(r >> 16), Slot: uint16(r & 0xFFFF)}
}

// SpatialIndex is the access-path abstraction over the engine's spatial
// indexes (R-tree or grid).
type SpatialIndex interface {
	// Search invokes fn for every row whose indexed envelope intersects
	// the query window, stopping when fn returns false.
	Search(window geom.Rect, fn func(RowID) bool)
	// Nearest visits rows in increasing envelope distance from p.
	Nearest(p geom.Coord, fn func(id RowID, envDist float64) bool)
	// Len returns the number of indexed entries.
	Len() int
}

// AttrIndex is the access-path abstraction over attribute B+tree indexes.
type AttrIndex interface {
	// Seek invokes fn for every row with the exact encoded key.
	Seek(key []byte, fn func(RowID) bool)
	// Range scans keys in [lo, hi] (nil = unbounded, bounds per loInc/hiInc).
	Range(lo, hi []byte, loInc, hiInc bool, fn func(RowID) bool)
}

// AttrIndexDef describes one attribute index: its ordered column list
// and the index itself. Keys are the concatenated component encodings
// (btree.AppendInt/AppendFloat/AppendText) of the columns in order.
type AttrIndexDef struct {
	Columns []string
	Index   AttrIndex
}

// Projection tells a scan which columns the plan actually references
// and, optionally, which geometry column to MBR-prefilter. Tables use
// it to decode lazily: unneeded columns surface as NULL (they are never
// read by the plan), and rows whose prefiltered geometry envelope does
// not intersect Window are skipped before any full decode.
type Projection struct {
	// Need[i] marks column i as referenced; nil means all columns.
	Need []bool
	// MBRCol is the table-relative offset of the geometry column to
	// prefilter, or -1 to disable prefiltering.
	MBRCol int
	// Window is the query envelope the prefilter tests against (only
	// meaningful when MBRCol >= 0).
	Window geom.Rect
	// Ephemeral marks needed geometry columns that only stage-0 filters
	// read: nothing downstream of the scan references them, so batch
	// scans may decode them into per-worker arena memory that is
	// recycled at the next morsel. nil means none; row-at-a-time scans
	// ignore the field entirely.
	Ephemeral []bool
}

// AllColumns is the trivial projection: decode everything, no prefilter.
func AllColumns() Projection { return Projection{MBRCol: -1} }

// Table is the executor's view of a stored table.
type Table interface {
	// Name returns the table name.
	Name() string
	// Columns returns the schema.
	Columns() []Column
	// ScanProject iterates the rows of the shard'th of nshards page
	// partitions in heap order, stopping when fn returns false.
	// Partitions are disjoint and contiguous: visiting shards
	// 0..nshards-1 in order reproduces the whole heap order, which lets
	// parallel scans merge deterministically. Shards may be scanned
	// concurrently; use shard=0, nshards=1 for a serial scan. Decoding
	// is lazy: only columns marked in proj.Need are materialized (others
	// are NULL), and when proj.MBRCol >= 0 rows whose geometry envelope
	// does not intersect proj.Window are skipped without decoding.
	ScanProject(shard, nshards int, proj Projection, fn func(id RowID, row []storage.Value) bool) error
	// Fetch returns the row with the given id.
	Fetch(id RowID) ([]storage.Value, error)
	// FetchProject returns the row with the given id, materializing only
	// the columns marked in need (nil need means all).
	FetchProject(id RowID, need []bool) ([]storage.Value, error)
	// Insert appends a row and maintains indexes.
	Insert(row []storage.Value) (RowID, error)
	// Delete removes a row and maintains indexes.
	Delete(id RowID) error
	// Update replaces the row at id (the id may change).
	Update(id RowID, row []storage.Value) (RowID, error)
	// SpatialIndexOn returns the spatial index on the named column, or
	// nil when there is none.
	SpatialIndexOn(column string) SpatialIndex
	// AttrIndexes returns the attribute indexes on this table.
	AttrIndexes() []AttrIndexDef
	// RowCount returns the current number of rows.
	RowCount() int
}

// VersionedTable is an optional Table extension: DataVersion advances
// on every row mutation (and on physical renumbering), letting
// executors cache table-derived state — the PBSM candidate index —
// and invalidate it precisely instead of rebuilding per statement.
type VersionedTable interface {
	DataVersion() uint64
}

// BatchTable is the optional batch-at-a-time extension of Table. A
// table that implements it can feed the vectorized executor whole
// column batches instead of one row per callback; tables that do not
// stay on the row path unchanged.
type BatchTable interface {
	Table
	// ScanBatch drives the shard'th of nshards heap partitions in
	// batches of up to size slots: each batch is filled with validated
	// tuples, MBR-prefiltered against proj.Window when proj.MBRCol >= 0
	// (survivors land in the batch's selection vector), and its selected
	// slots materialized per proj.Need before fn runs. Batch memory is
	// reused: fn must copy anything that outlives the call. Visiting
	// shards 0..nshards-1 in order reproduces exactly the rows (and
	// order) of ScanProject.
	ScanBatch(shard, nshards int, proj Projection, size int, fn func(*storage.ColBatch) (bool, error)) error
	// FetchBatch fills b with the identified rows (in id order, all
	// selected) and materializes them per proj.Need. Used by the batch
	// refinement stage of spatial-index scans.
	FetchBatch(ids []RowID, proj Projection, b *storage.ColBatch) error
}

// GeomStats summarizes one geometry column for join planning: the union
// envelope of every non-empty geometry, the count of rows carrying one,
// and their mean envelope area. Maintained incrementally on insert (the
// MBR never shrinks on delete) and recomputed on vacuum.
type GeomStats struct {
	MBR      geom.Rect
	Rows     int
	MeanArea float64
}

// StatsTable is the optional statistics extension of Table. Tables that
// implement it let the planner cost index-nested-loop against
// partition-based spatial-merge joins; tables that do not are planned
// conservatively.
type StatsTable interface {
	Table
	// GeomStatsOn returns statistics for the named geometry column, or
	// ok=false when the column is unknown or stats are unavailable.
	GeomStatsOn(column string) (GeomStats, bool)
}

// MBRTable is the optional decode-free envelope extension of Table.
// Implementations stream every row's geometry envelope for one column
// straight from the stored tuple (EnvelopeWKB header walk) without
// materializing geometries — the PBSM join's build-side input. Rows
// whose column is NULL, non-geometry, or empty are skipped, matching
// the spatial-index and MBR-prefilter population.
type MBRTable interface {
	Table
	// ScanMBR invokes fn with each row's envelope in heap (RowID) order,
	// stopping when fn returns false.
	ScanMBR(col int, fn func(id RowID, env geom.Rect) bool) error
}

// Catalog resolves table names and applies DDL. The engine implements it.
type Catalog interface {
	// Table returns the named table.
	Table(name string) (Table, bool)
	// CreateTable registers a new table.
	CreateTable(name string, cols []Column) error
	// CreateIndex builds an index on an existing table. Spatial indexes
	// take exactly one geometry column; attribute indexes take one or
	// more non-geometry columns.
	CreateIndex(name, table string, columns []string, spatial bool) error
	// Vacuum rewrites a table's storage and rebuilds its indexes.
	Vacuum(table string) error
	// DropTable removes a table. Missing tables error unless ifExists.
	DropTable(table string, ifExists bool) error
}

// ColumnIndexByName returns the offset of the named column, or -1.
func ColumnIndexByName(cols []Column, name string) int {
	for i, c := range cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}
