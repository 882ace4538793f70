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
	// Nearest visits every indexed row in non-decreasing MINDIST, the
	// distance from the probe rectangle to the row's indexed envelope,
	// stopping when fn returns false. MINDIST is a lower bound on the
	// distance from any geometry inside the probe rectangle to the row's
	// geometry, so an exact kNN may stop at the first row whose MINDIST
	// exceeds its k-th distance.
	Nearest(probe geom.Rect, fn func(id RowID, minDist float64) bool)
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

// Projection tells a batch scan or fetch which columns the plan
// actually references and, optionally, which geometry column to
// MBR-prefilter. Tables use it to decode lazily: unneeded columns
// surface as NULL (they are never read by the plan), rows whose
// prefiltered geometry envelope does not intersect Window are skipped
// before any decode, and so are rows that one of Compares certainly
// rejects.
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
	// read: nothing downstream of the scan references them, so ScanBatch
	// and FetchBatch may decode them into the batch's arena memory, which
	// is recycled at the next batch. nil means none.
	Ephemeral []bool
	// Compares are column-versus-literal comparisons that ScanBatch and
	// FetchBatch test on each tuple before copying it into the batch
	// (storage.TupleFilter): a superset filter that drops only rows the
	// plan's own filters would drop without error.
	Compares []storage.ColCompare
}

// AllColumns is the trivial projection: decode everything, no prefilter.
func AllColumns() Projection { return Projection{MBRCol: -1} }

// Table is the executor's view of a stored table. Every stored-row read
// is a batch: ScanBatch reads the heap, FetchBatch reads rows by id.
type Table interface {
	// Name returns the table name.
	Name() string
	// Columns returns the schema.
	Columns() []Column
	// ScanBatch drives the shard'th of nshards heap partitions in
	// batches of up to storage.BatchSize slots: every tuple is
	// validated, and only those passing the MBR prefilter against
	// proj.Window (when proj.MBRCol >= 0) and proj.Compares fill the
	// batch, all selected; its slots are materialized per proj.Need
	// (only columns marked there are decoded, the others read NULL)
	// before fn runs. Partitions are disjoint and contiguous, and shards
	// may be scanned concurrently: visiting shards 0..nshards-1 in order
	// yields exactly the rows of one heap-order scan, less those the
	// prefilters drop, which lets parallel scans merge
	// deterministically. Batch memory is reused: fn must copy anything
	// that outlives the call.
	ScanBatch(shard, nshards int, proj Projection, fn func(*storage.ColBatch) (bool, error)) error
	// FetchBatch fills b with the identified rows, in the order given,
	// less those proj.Compares drops, all selected, and materializes
	// them per proj.Need. Every index-driven read, stage 0's and a join
	// stage's, fetches its rows through it.
	FetchBatch(ids []RowID, proj Projection, b *storage.ColBatch) error
	// ScanMBR invokes fn with every row's envelope for geometry column
	// col in heap (RowID) order, read straight from the stored tuple
	// without materializing geometries — the PBSM join's build-side
	// input. Rows whose column is NULL or empty are skipped, matching
	// the spatial-index and MBR-prefilter population; a non-geometry
	// column is an error.
	ScanMBR(col int, fn func(id RowID, env geom.Rect) bool) error
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
	// GeomStatsOn returns join-planning statistics for the named
	// geometry column, or ok=false when the column is unknown or holds
	// no non-empty geometry.
	GeomStatsOn(column string) (GeomStats, bool)
	// RowCount returns the current number of rows.
	RowCount() int
	// DataVersion advances on every row mutation (and on physical
	// renumbering), letting executors cache table-derived state — the
	// PBSM candidate index — and invalidate it precisely instead of
	// rebuilding per statement.
	DataVersion() uint64
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
