package engine

import (
	"fmt"

	"jackpine/internal/geom"
	"jackpine/internal/sql"
	"jackpine/internal/storage"
)

// geomColStats accumulates one geometry column's join-planning block:
// row count, summed envelope area, and the union MBR. Maintained
// incrementally under t.mu by noteGeomLocked; the MBR only grows (a
// delete never shrinks it — vacuum resets and the next reader
// recomputes exact bounds), so it stays a conservative superset of the
// live data at all times.
type geomColStats struct {
	rows    int64
	sumArea float64
	mbr     geom.Rect
}

// initStatsLocked seeds zeroed statistics for every geometry column.
// Only safe before the table is shared or with t.mu held.
func (t *table) initStatsLocked() {
	t.stats = make(map[int]*geomColStats, len(t.geomCols))
	for _, off := range t.geomCols {
		t.stats[off] = &geomColStats{mbr: geom.EmptyRect()}
	}
}

// noteGeomLocked folds one row into (add) or out of (remove) the
// per-column geometry statistics. NULL/empty geometries are skipped to
// match the index and MBR-prefilter population. No-op while stats are
// pending lazy recomputation (t.stats == nil).
func (t *table) noteGeomLocked(row []storage.Value, add bool) {
	if t.stats == nil {
		return
	}
	for _, off := range t.geomCols {
		v := row[off]
		if v.IsNull() || v.Type != storage.TypeGeom || v.Geom == nil || v.Geom.IsEmpty() {
			continue
		}
		env := v.Geom.Envelope()
		st := t.stats[off]
		if add {
			st.rows++
			st.sumArea += env.Area()
			st.mbr = st.mbr.Union(env)
		} else {
			st.rows--
			st.sumArea -= env.Area()
		}
	}
}

// recomputeStats rebuilds the statistics block from the heap through
// ScanMBR, one decode-free envelope walk per geometry column, so the
// block counts exactly the rows the spatial index holds. Called lazily
// after vacuum or persistent reattach, under the engine's read gate:
// writers are excluded, and concurrent readers racing here compute
// identical blocks (first one installed wins).
func (t *table) recomputeStats() error {
	fresh := make(map[int]*geomColStats, len(t.geomCols))
	for _, off := range t.geomCols {
		st := &geomColStats{mbr: geom.EmptyRect()}
		err := t.ScanMBR(off, func(_ sql.RowID, env geom.Rect) bool {
			st.rows++
			st.sumArea += env.Area()
			st.mbr = st.mbr.Union(env)
			return true
		})
		if err != nil {
			return err
		}
		fresh[off] = st
	}
	t.mu.Lock()
	if t.stats == nil {
		t.stats = fresh
	}
	t.mu.Unlock()
	return nil
}

// GeomStatsOn implements sql.Table.
func (t *table) GeomStatsOn(column string) (sql.GeomStats, bool) {
	off, ok := t.geomCols[column]
	if !ok {
		return sql.GeomStats{}, false
	}
	t.mu.RLock()
	missing := t.stats == nil
	t.mu.RUnlock()
	if missing {
		if err := t.recomputeStats(); err != nil {
			return sql.GeomStats{}, false
		}
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	st, ok := t.stats[off]
	if !ok || st.rows <= 0 {
		return sql.GeomStats{}, false
	}
	gs := sql.GeomStats{MBR: st.mbr, Rows: int(st.rows)}
	if mean := st.sumArea / float64(st.rows); mean > 0 {
		gs.MeanArea = mean
	}
	return gs, true
}

// ScanMBR implements sql.Table: every row's envelope for one
// geometry column, read straight off the stored WKB header (no
// geometry is materialized). Rows whose column is NULL, non-geometry,
// or empty are skipped, matching spatial-index population.
func (t *table) ScanMBR(col int, fn func(id sql.RowID, env geom.Rect) bool) error {
	if col < 0 || col >= len(t.cols) || t.cols[col].Type != storage.TypeGeom {
		return fmt.Errorf("engine: table %s column %d is not GEOMETRY", t.name, col)
	}
	var lt storage.LazyTuple
	var innerErr error
	err := t.heap.Scan(func(rid storage.RecordID, tuple []byte) bool {
		if err := lt.Reset(tuple, len(t.cols)); err != nil {
			innerErr = fmt.Errorf("engine: table %s at %s: %w", t.name, rid, err)
			return false
		}
		env, ok, envErr := lt.GeomEnvelope(col)
		if envErr != nil {
			innerErr = fmt.Errorf("engine: table %s at %s: %w", t.name, rid, envErr)
			return false
		}
		if !ok || env.IsEmpty() {
			return true
		}
		return fn(sql.PackRowID(rid), env)
	})
	if innerErr != nil {
		return innerErr
	}
	return err
}
