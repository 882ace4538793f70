package sql

import (
	"strings"

	"jackpine/internal/geom"
	"jackpine/internal/storage"
)

// accessKind identifies how a table is read.
type accessKind int

const (
	accessFullScan accessKind = iota
	accessSpatialWindow
	accessAttrSeek
	accessAttrRange
	accessKNN
	accessHashJoin
	accessPBSM
)

// String names the access path (used by EXPLAIN-style reporting and
// tests).
func (k accessKind) String() string {
	switch k {
	case accessFullScan:
		return "seqscan"
	case accessSpatialWindow:
		return "spatial-index"
	case accessAttrSeek:
		return "btree-seek"
	case accessAttrRange:
		return "btree-range"
	case accessKNN:
		return "knn"
	case accessHashJoin:
		return "hash-join"
	case accessPBSM:
		return "pbsm"
	}
	return "?"
}

// accessPath is a chosen physical access for one table.
type accessPath struct {
	kind accessKind

	// Spatial window scans: the window may depend on outer rows, so it
	// is an expression evaluated per invocation plus an optional
	// expansion distance (for ST_DWithin).
	spatial    SpatialIndex
	windowExpr Expr // geometry-valued
	expandExpr Expr // numeric, optional

	// Attribute seeks and ranges over (possibly composite) indexes:
	// equality probes for a prefix of the index columns, plus an
	// optional range on the following column.
	attr      AttrIndex
	eqExprs   []Expr
	eqTypes   []storage.ValueType
	rangeLo   Expr // optional lower bound on the next column
	rangeHi   Expr // optional upper bound on the next column
	rangeType storage.ValueType
	rangeLast bool // the range column is the index's final column

	// kNN scans.
	knnPointExpr Expr // geometry-valued centre
	knnK         int
	knnDistCol   int // row offset of the geometry column used in ORDER BY

	// Hash joins: the inner build column (offset within this table) and
	// the outer probe expression.
	hashCol  int
	hashExpr Expr

	// Partition-based spatial-merge joins: the grid/sweep build plan.
	// windowExpr/expandExpr above double as the probe-side key source so
	// the candidate map is keyed exactly like the INL window.
	pbsm *pbsmSpec

	// idxCol names the indexed column of spatial-window paths (EXPLAIN).
	idxCol string

	// need marks which table-relative columns the plan references; it is
	// passed to ScanProject/FetchProject so unreferenced columns are
	// never decoded. nil means all columns.
	need []bool

	// idPos is the hidden row position that receives each emitted row's
	// RowID, set only on the stage-0 path of a DML row selection; 0 (a
	// scope column, never the id position) means the plan wants no ids.
	idPos int

	// ephemeral marks needed geometry columns that only this stage's
	// residual filters read (nothing downstream references them). Batch
	// scans may decode such columns into recycled arena memory; the row
	// path ignores the mask. nil means none. Only ever set on stage-0
	// paths of batch-eligible plans.
	ephemeral []bool

	// MBR prefilter for unindexed sargable spatial predicates: full
	// scans skip rows whose geometry envelope (read straight from WKB)
	// does not intersect the probe's envelope. The exact predicate stays
	// in the residual filter, so results are unchanged — only the decode
	// work for envelope-disjoint rows is avoided.
	mbrPrefilter bool
	mbrCol       int // table-relative offset of the geometry column
	// windowExpr/expandExpr above are shared with spatial-window paths.
}

// splitConjuncts flattens nested ANDs.
func splitConjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*BinaryExpr); ok && b.Op == "AND" {
		return append(splitConjuncts(b.Left), splitConjuncts(b.Right)...)
	}
	return []Expr{e}
}

// maxRef returns the largest bound column offset referenced (-1 if none).
func maxRef(e Expr) int {
	m := -1
	walkExpr(e, func(x Expr) {
		if c, ok := x.(*ColumnRef); ok && c.Index > m {
			m = c.Index
		}
	})
	return m
}

func walkExpr(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch t := e.(type) {
	case *BinaryExpr:
		walkExpr(t.Left, fn)
		walkExpr(t.Right, fn)
	case *UnaryExpr:
		walkExpr(t.Expr, fn)
	case *IsNull:
		walkExpr(t.Expr, fn)
	case *Between:
		walkExpr(t.Expr, fn)
		walkExpr(t.Lo, fn)
		walkExpr(t.Hi, fn)
	case *FuncCall:
		for _, a := range t.Args {
			walkExpr(a, fn)
		}
	case *slotRef:
		walkExpr(t.sub, fn)
	}
}

// refsInRange reports whether every column reference falls in [lo, hi).
func refsInRange(e Expr, lo, hi int) bool {
	ok := true
	walkExpr(e, func(x Expr) {
		if c, isCol := x.(*ColumnRef); isCol && (c.Index < lo || c.Index >= hi) {
			ok = false
		}
	})
	return ok
}

// sargableSpatial are the predicates whose true results are confined to
// geometries whose envelopes intersect the probe's envelope.
var sargableSpatial = map[string]bool{
	"ST_INTERSECTS": true, "ST_CONTAINS": true, "ST_WITHIN": true,
	"ST_TOUCHES": true, "ST_CROSSES": true, "ST_OVERLAPS": true,
	"ST_EQUALS": true, "ST_COVERS": true, "ST_COVEREDBY": true,
}

// pickAccess selects an access path for the table occupying row offsets
// [lo, hi) of the scope. Conjuncts that reference only offsets < hi are
// candidates; outer offsets (< lo) act as per-invocation parameters (for
// index nested-loop joins). The chosen driving conjuncts remain in the
// residual filter (index access is a pre-filter, not exact).
func pickAccess(tbl Table, lo, hi int, scope *Scope, conjuncts []Expr) accessPath {
	for _, c := range conjuncts {
		if !refsInRange(c, 0, hi) {
			continue
		}
		if p, ok := trySpatialWindow(tbl, lo, hi, scope, c); ok {
			return p
		}
	}
	if p, ok := tryAttrPath(tbl, lo, hi, scope, conjuncts); ok {
		return p
	}
	// Inner side of a join with an unindexed equality condition: build a
	// hash table once instead of rescanning per outer row.
	if lo > 0 {
		for _, c := range conjuncts {
			if !refsInRange(c, 0, hi) {
				continue
			}
			if p, ok := tryHashJoin(lo, hi, c); ok {
				return p
			}
		}
	}
	// No index available: a sargable spatial predicate can still prune
	// full-scan rows by envelope before decoding them.
	for _, c := range conjuncts {
		if !refsInRange(c, 0, hi) {
			continue
		}
		if p, ok := tryMBRPrefilter(lo, hi, scope, c); ok {
			return p
		}
	}
	return accessPath{kind: accessFullScan}
}

// tryMBRPrefilter recognises the same pred(geomcol, probe) patterns as
// trySpatialWindow but without requiring a spatial index: a full scan
// can test each row's envelope (read from WKB without decoding) against
// the probe's envelope. Sound because sargableSpatial predicates are
// only true for envelope-intersecting geometries, and the exact
// predicate remains in the residual filter.
func tryMBRPrefilter(lo, hi int, scope *Scope, c Expr) (accessPath, bool) {
	fc, ok := c.(*FuncCall)
	if !ok {
		return accessPath{}, false
	}
	name := strings.ToUpper(fc.Name)
	isDWithin := name == "ST_DWITHIN"
	if !sargableSpatial[name] && !isDWithin {
		return accessPath{}, false
	}
	wantArgs := 2
	if isDWithin {
		wantArgs = 3
	}
	if len(fc.Args) != wantArgs {
		return accessPath{}, false
	}
	for i := 0; i < 2; i++ {
		col, isCol := fc.Args[i].(*ColumnRef)
		if !isCol || col.Index < lo || col.Index >= hi {
			continue
		}
		if scope.Column(col.Index).Type != storage.TypeGeom {
			continue
		}
		probe := fc.Args[1-i]
		if !refsInRange(probe, 0, lo) {
			continue
		}
		p := accessPath{
			kind:         accessFullScan,
			mbrPrefilter: true,
			mbrCol:       col.Index - lo,
			windowExpr:   probe,
		}
		if isDWithin {
			if !refsInRange(fc.Args[2], 0, lo) {
				continue
			}
			p.expandExpr = fc.Args[2]
		}
		return p, true
	}
	return accessPath{}, false
}

// trySpatialWindow recognises pred(geomcol, probe) patterns.
func trySpatialWindow(tbl Table, lo, hi int, scope *Scope, c Expr) (accessPath, bool) {
	fc, ok := c.(*FuncCall)
	if !ok {
		return accessPath{}, false
	}
	name := strings.ToUpper(fc.Name)
	isDWithin := name == "ST_DWITHIN"
	if !sargableSpatial[name] && !isDWithin {
		return accessPath{}, false
	}
	wantArgs := 2
	if isDWithin {
		wantArgs = 3
	}
	if len(fc.Args) != wantArgs {
		return accessPath{}, false
	}
	// One geometry argument must be a column of this table with a
	// spatial index; the other must not reference this table.
	for i := 0; i < 2; i++ {
		col, isCol := fc.Args[i].(*ColumnRef)
		if !isCol || col.Index < lo || col.Index >= hi {
			continue
		}
		probe := fc.Args[1-i]
		if !refsInRange(probe, 0, lo) {
			continue
		}
		idx := tbl.SpatialIndexOn(scope.Column(col.Index).Name)
		if idx == nil {
			continue
		}
		p := accessPath{
			kind:       accessSpatialWindow,
			spatial:    idx,
			windowExpr: probe,
			idxCol:     scope.Column(col.Index).Name,
		}
		if isDWithin {
			if !refsInRange(fc.Args[2], 0, lo) {
				continue
			}
			p.expandExpr = fc.Args[2]
		}
		return p, true
	}
	return accessPath{}, false
}

// tryAttrPath matches conjuncts against the table's attribute indexes:
// equality probes on a prefix of an index's columns, optionally followed
// by a range condition on the next column. The index with the longest
// matched prefix wins. Index scans are pre-filters — every driving
// conjunct stays in the residual filter — so bounds only need to be
// sound, not exact.
func tryAttrPath(tbl Table, lo, hi int, scope *Scope, conjuncts []Expr) (accessPath, bool) {
	// Collect candidate probes per column of this table.
	type probe struct {
		expr Expr
		op   string // "=", ">=", "<=" (normalized; BETWEEN yields both)
	}
	probes := make(map[string][]probe)
	addProbe := func(colExpr, valExpr Expr, op string) {
		col, ok := colExpr.(*ColumnRef)
		if !ok || col.Index < lo || col.Index >= hi {
			return
		}
		if !refsInRange(valExpr, 0, lo) {
			return
		}
		name := scope.Column(col.Index).Name
		probes[name] = append(probes[name], probe{expr: valExpr, op: op})
	}
	for _, c := range conjuncts {
		if !refsInRange(c, 0, hi) {
			continue
		}
		switch t := c.(type) {
		case *BinaryExpr:
			switch t.Op {
			case "=":
				addProbe(t.Left, t.Right, "=")
				addProbe(t.Right, t.Left, "=")
			case "<", "<=":
				addProbe(t.Left, t.Right, "<=")
				addProbe(t.Right, t.Left, ">=")
			case ">", ">=":
				addProbe(t.Left, t.Right, ">=")
				addProbe(t.Right, t.Left, "<=")
			}
		case *Between:
			addProbe(t.Expr, t.Lo, ">=")
			addProbe(t.Expr, t.Hi, "<=")
		}
	}
	if len(probes) == 0 {
		return accessPath{}, false
	}

	colType := func(name string) storage.ValueType {
		for i := lo; i < hi; i++ {
			if scope.Column(i).Name == name {
				return scope.Column(i).Type
			}
		}
		return storage.TypeNull
	}

	best := accessPath{}
	bestScore := 0
	for _, def := range tbl.AttrIndexes() {
		p := accessPath{attr: def.Index}
		score := 0
		matched := 0
		for _, col := range def.Columns {
			var eq Expr
			for _, pr := range probes[col] {
				if pr.op == "=" {
					eq = pr.expr
					break
				}
			}
			if eq == nil {
				break
			}
			p.eqExprs = append(p.eqExprs, eq)
			p.eqTypes = append(p.eqTypes, colType(col))
			matched++
			score += 2
		}
		if matched < len(def.Columns) {
			// Optional range on the next column.
			next := def.Columns[matched]
			for _, pr := range probes[next] {
				switch pr.op {
				case ">=":
					if p.rangeLo == nil {
						p.rangeLo = pr.expr
					}
				case "<=":
					if p.rangeHi == nil {
						p.rangeHi = pr.expr
					}
				}
			}
			if p.rangeLo != nil || p.rangeHi != nil {
				p.rangeType = colType(next)
				p.rangeLast = matched+1 == len(def.Columns)
				score++
			}
		}
		if score > bestScore {
			if matched == len(def.Columns) {
				p.kind = accessAttrSeek
			} else {
				p.kind = accessAttrRange
			}
			best = p
			bestScore = score
		}
	}
	if bestScore == 0 {
		return accessPath{}, false
	}
	return best, true
}

// tryHashJoin recognises innerCol = outerExpr equality conditions where
// the probe side genuinely references outer tables.
func tryHashJoin(lo, hi int, c Expr) (accessPath, bool) {
	b, ok := c.(*BinaryExpr)
	if !ok || b.Op != "=" {
		return accessPath{}, false
	}
	try := func(colSide, probeSide Expr) (accessPath, bool) {
		col, isCol := colSide.(*ColumnRef)
		if !isCol || col.Index < lo || col.Index >= hi {
			return accessPath{}, false
		}
		if !refsInRange(probeSide, 0, lo) || maxRef(probeSide) < 0 {
			return accessPath{}, false
		}
		return accessPath{kind: accessHashJoin, hashCol: col.Index - lo, hashExpr: probeSide}, true
	}
	if p, ok := try(b.Left, b.Right); ok {
		return p, true
	}
	return try(b.Right, b.Left)
}

// tryKNN recognises the ORDER BY ST_Distance(col, probe) LIMIT k pattern
// on a single un-grouped table with a spatial index, returning an
// upgraded access path.
func tryKNN(sel *Select, tbl Table, scope *Scope) (accessPath, bool) {
	if len(sel.Joins) != 0 || len(sel.GroupBy) != 0 || sel.Limit < 0 ||
		len(sel.OrderBy) != 1 || sel.OrderBy[0].Desc {
		return accessPath{}, false
	}
	fc, ok := sel.OrderBy[0].Expr.(*FuncCall)
	if !ok || strings.ToUpper(fc.Name) != "ST_DISTANCE" || len(fc.Args) != 2 {
		return accessPath{}, false
	}
	for i := 0; i < 2; i++ {
		col, isCol := fc.Args[i].(*ColumnRef)
		if !isCol {
			continue
		}
		probe := fc.Args[1-i]
		if maxRef(probe) >= 0 {
			continue // probe must be constant
		}
		idx := tbl.SpatialIndexOn(scope.Column(col.Index).Name)
		if idx == nil {
			continue
		}
		return accessPath{
			kind:         accessKNN,
			spatial:      idx,
			knnPointExpr: probe,
			knnK:         sel.Limit + sel.Offset,
			knnDistCol:   col.Index,
		}, true
	}
	return accessPath{}, false
}

// scanProjection builds the Projection for a full scan of this path
// against the current outer row. skip is true when an MBR prefilter's
// window is empty (NULL probe): the residual spatial conjunct is then
// NULL or false for every row, so the whole scan can be elided.
func (p *accessPath) scanProjection(prefix []storage.Value, reg *Registry) (Projection, bool, error) {
	proj := Projection{Need: p.need, MBRCol: -1, Ephemeral: p.ephemeral}
	if !p.mbrPrefilter {
		return proj, false, nil
	}
	window, err := p.evalWindow(prefix, reg)
	if err != nil {
		return proj, false, err
	}
	if window.IsEmpty() {
		return proj, true, nil
	}
	proj.MBRCol = p.mbrCol
	proj.Window = window
	return proj, false, nil
}

// setRowID stores id in the row's hidden id position idPos, when the
// plan collects ids (idPos > 0).
func setRowID(row []storage.Value, idPos int, id RowID) {
	if idPos > 0 {
		row[idPos] = storage.NewInt(int64(id))
	}
}

// evalWindow computes the query window for a spatial access path against
// the current (possibly partial) outer row.
func (p *accessPath) evalWindow(row []storage.Value, reg *Registry) (geom.Rect, error) {
	v, err := Eval(p.windowExpr, row, reg)
	if err != nil {
		return geom.EmptyRect(), err
	}
	if v.IsNull() || v.Type != storage.TypeGeom {
		return geom.EmptyRect(), nil
	}
	w := v.Geom.Envelope()
	if p.expandExpr != nil {
		d, err := Eval(p.expandExpr, row, reg)
		if err != nil {
			return geom.EmptyRect(), err
		}
		if f, ok := d.AsFloat(); ok {
			w = w.Expand(f)
		}
	}
	return w, nil
}
