package sql

import (
	"math"
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

	// Spatial window scans: the window is operand windowArg of the
	// sargable call window, expanded by its distance when the call is
	// ST_DWithin; it may depend on outer rows, so it is evaluated per
	// invocation (evalWindow). When window is nil it is rect, the
	// constant rectangle the ordinate comparisons bound.
	spatial   SpatialIndex
	window    *callExpr
	windowArg int
	rect      geom.Rect

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

	// kNN sources: rect above holds the envelope of the constant probe
	// of ORDER BY ST_Distance(col, probe) (KNNProbe), and knnBound the
	// ORDER BY sink's current k-th distance, past which no row can enter
	// the result (orderSink.bound).
	knnBound func() float64

	// Hash joins: the inner build column (offset within this table) and
	// the outer probe expression.
	hashCol  int
	hashExpr Expr

	// Partition-based spatial-merge joins: the grid/sweep build plan.
	// window/windowArg above double as the probe-side key source so the
	// candidate map is keyed exactly like the INL window.
	pbsm *pbsmSpec

	// idxCol names the indexed column of spatial-window paths (EXPLAIN).
	idxCol string

	// need marks which table-relative columns the plan references; it is
	// the Projection.Need of every batch this path scans or fetches, so
	// unreferenced columns are never decoded. nil means all columns.
	need []bool

	// idPos is the hidden row position that receives each emitted row's
	// RowID, set only on the stage-0 path of a DML row selection; 0 (a
	// scope column, never the id position) means the plan wants no ids.
	idPos int

	// ephemeral marks needed geometry columns that only this stage's
	// residual filters read (nothing downstream references them). Batch
	// scans and fetches may decode such columns into recycled arena
	// memory. nil means none. Only ever set on stage-0 paths.
	ephemeral []bool

	// MBR prefilter for unindexed sargable spatial predicates: full
	// scans skip rows whose geometry envelope (read straight from WKB)
	// does not intersect the probe's envelope. The exact predicate stays
	// in the residual filter, so results are unchanged — only the decode
	// work for envelope-disjoint rows is avoided.
	mbrPrefilter bool
	mbrCol       int // table-relative offset of the geometry column
	// window/windowArg above are shared with spatial-window paths.
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
		if c, ok := x.(*colRef); ok && c.idx > m {
			m = c.idx
		}
	})
	return m
}

// walkExpr visits every node of a parsed or bound tree in prefix order;
// a slot is visited, then the subtree it stands for.
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
	case *callExpr:
		for _, a := range t.args {
			walkExpr(a, fn)
		}
	case *aggRef:
		walkExpr(t.arg, fn)
	case *slotRef:
		walkExpr(t.sub, fn)
	}
}

// refsInRange reports whether every column reference falls in [lo, hi).
func refsInRange(e Expr, lo, hi int) bool {
	ok := true
	walkExpr(e, func(x Expr) {
		if c, isCol := x.(*colRef); isCol && (c.idx < lo || c.idx >= hi) {
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
func pickAccess(tbl Table, lo, hi int, scope *Scope, conjuncts []Expr, reg *Registry) accessPath {
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
	if p, ok := tryOrdinateWindow(tbl, lo, hi, scope, conjuncts, reg); ok {
		return p
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
	fc, col, arg, ok := spatialProbe(c, lo, hi, 0, lo, func(col *colRef) bool {
		return scope.Column(col.idx).Type == storage.TypeGeom
	})
	if !ok {
		return accessPath{}, false
	}
	return accessPath{kind: accessFullScan, mbrPrefilter: true, mbrCol: col.idx - lo,
		window: fc, windowArg: arg}, true
}

// trySpatialWindow recognises pred(geomcol, probe) patterns over a
// column with a spatial index.
func trySpatialWindow(tbl Table, lo, hi int, scope *Scope, c Expr) (accessPath, bool) {
	var idx SpatialIndex
	fc, col, arg, ok := spatialProbe(c, lo, hi, 0, lo, func(col *colRef) bool {
		idx = tbl.SpatialIndexOn(scope.Column(col.idx).Name)
		return idx != nil
	})
	if !ok {
		return accessPath{}, false
	}
	return accessPath{kind: accessSpatialWindow, spatial: idx, window: fc, windowArg: arg,
		idxCol: scope.Column(col.idx).Name}, true
}

// spatialProbe matches pred(col, probe), pred sargable, or
// ST_DWithin(col, probe, expand): col is a column of the table at scope
// offsets [lo, hi) that accept takes, probe (and expand) read only
// offsets [plo, phi) — the outer offsets [0, lo) for the planner's
// probes. Either operand order matches; arg is the probe's argument
// position in the call fc.
func spatialProbe(c Expr, lo, hi, plo, phi int, accept func(*colRef) bool) (fc *callExpr, col *colRef, arg int, ok bool) {
	fc, isCall := c.(*callExpr)
	if !isCall {
		return nil, nil, 0, false
	}
	name := strings.ToUpper(fc.src.Name)
	isDWithin := name == "ST_DWITHIN"
	if !sargableSpatial[name] && !isDWithin {
		return nil, nil, 0, false
	}
	wantArgs := 2
	if isDWithin {
		wantArgs = 3
	}
	if len(fc.args) != wantArgs || isDWithin && !refsInRange(fc.args[2], plo, phi) {
		return nil, nil, 0, false
	}
	for i := 0; i < 2; i++ {
		col, isCol := fc.args[i].(*colRef)
		if isCol && col.idx >= lo && col.idx < hi && refsInRange(fc.args[1-i], plo, phi) && accept(col) {
			return fc, col, 1 - i, true
		}
	}
	return nil, nil, 0, false
}

// ordinateAxis maps the envelope-ordinate functions to the axis they
// read: 0 for x, 1 for y.
var ordinateAxis = map[string]int{"ST_XMIN": 0, "ST_XMAX": 0, "ST_YMIN": 1, "ST_YMAX": 1}

// ordinateBound is one conjunct of an ordinate window: k bounds the
// window along axis from above (upper) or below.
type ordinateBound struct {
	k     Expr
	axis  int
	upper bool
}

// matchOrdinate matches ST_XMIN|ST_YMIN|ST_XMAX|ST_YMAX(col) op k, op
// one of < <= > >=, either operand first, col a column at scope offsets
// [lo, hi) and k reading no column. ST_XMAX(g) > k needs the envelope
// to reach x >= k; so does ST_XMIN(g) > k, since an envelope's max is
// at least its min. Either form bounds the window from below, and the
// `<` forms from above: the window holds the half-plane the envelope
// must reach, a superset of the rows that satisfy the comparison.
func matchOrdinate(c Expr, lo, hi int) (col int, ob ordinateBound, ok bool) {
	b, isBin := c.(*BinaryExpr)
	if !isBin {
		return 0, ob, false
	}
	switch b.Op {
	case "<", "<=":
		ob.upper = true
	case ">", ">=":
	default:
		return 0, ob, false
	}
	operands := [2]Expr{b.Left, b.Right}
	for i, e := range operands {
		k := operands[1-i]
		fc, isCall := e.(*callExpr)
		if !isCall || len(fc.args) != 1 || maxRef(k) >= 0 {
			continue
		}
		axis, isOrd := ordinateAxis[strings.ToUpper(fc.src.Name)]
		if cr, isCol := fc.args[0].(*colRef); isOrd && isCol && cr.idx >= lo && cr.idx < hi {
			// k op ST_XMAX(g) is ST_XMAX(g) op' k with op mirrored.
			return cr.idx, ordinateBound{k: k, axis: axis, upper: ob.upper == (i == 0)}, true
		}
	}
	return 0, ob, false
}

// tryOrdinateWindow turns the ordinate comparisons (matchOrdinate) on
// the first matched column with a spatial index into one window over
// that index, the rectangle they bound. Their bounds are statement
// constants, read here. Along each axis the lower bounds give low, the
// largest coordinate the envelope's max must reach, and the upper
// bounds high, the smallest its min must reach down to. When low <=
// high the envelope meets [low, high]; otherwise it spans [high, low].
// Either way it meets the interval between the two, which is the
// window's side. A bound that fails to evaluate or is NULL, NaN or not
// a number declines the window: none holds the rows such a comparison
// keeps (NaN sorts above every number). The comparisons stay in the
// residual, so the rows are exactly a full scan's.
func tryOrdinateWindow(tbl Table, lo, hi int, scope *Scope, conjuncts []Expr, reg *Registry) (accessPath, bool) {
	var p accessPath
	var bounds []Expr
	col := -1
	inf := math.Inf(1)
	low, high := [2]float64{-inf, -inf}, [2]float64{inf, inf}
	for _, c := range conjuncts {
		at, ob, ok := matchOrdinate(c, lo, hi)
		if !ok || col >= 0 && at != col {
			continue
		}
		if col < 0 {
			name := scope.Column(at).Name
			idx := tbl.SpatialIndexOn(name)
			if idx == nil {
				continue
			}
			col = at
			p = accessPath{kind: accessSpatialWindow, spatial: idx, idxCol: name}
		}
		v, err := Eval(ob.k, nil, reg)
		k, isNum := v.AsFloat()
		if err != nil || !isNum || math.IsNaN(k) {
			return accessPath{}, false
		}
		if ob.upper {
			high[ob.axis] = min(high[ob.axis], k)
		} else {
			low[ob.axis] = max(low[ob.axis], k)
		}
		bounds = append(bounds, ob.k)
	}
	for _, k := range bounds {
		markUse(k, "window")
	}
	p.rect = geom.Rect{MinX: min(low[0], high[0]), MinY: min(low[1], high[1]),
		MaxX: max(low[0], high[0]), MaxY: max(low[1], high[1])}
	return p, col >= 0
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
		col, ok := colExpr.(*colRef)
		if !ok || col.idx < lo || col.idx >= hi {
			return
		}
		if !refsInRange(valExpr, 0, lo) {
			return
		}
		name := scope.Column(col.idx).Name
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
		col, isCol := colSide.(*colRef)
		if !isCol || col.idx < lo || col.idx >= hi {
			return accessPath{}, false
		}
		if !refsInRange(probeSide, 0, lo) || maxRef(probeSide) < 0 {
			return accessPath{}, false
		}
		return accessPath{kind: accessHashJoin, hashCol: col.idx - lo, hashExpr: probeSide}, true
	}
	if p, ok := try(b.Left, b.Right); ok {
		return p, true
	}
	return try(b.Right, b.Left)
}

// tryKNN recognises the ORDER BY ST_Distance(col, probe) LIMIT k pattern
// on a single un-grouped table with a spatial index on col, returning the
// index as an ordered source for the ORDER BY sink. order holds the bound
// ORDER BY keys. It declines when the index holds fewer entries than the
// table has rows: NULL and empty geometries are never indexed, yet the
// sort still ranks their rows, NULL first and empty at infinite distance.
// It declines, too, when the probe is not usable (KNNProbe): the sort
// then orders, or rejects, every row.
func tryKNN(sel *Select, order []Expr, tbl Table, scope *Scope, reg *Registry) (accessPath, bool) {
	col, probe, ok := KNNShape(sel, order)
	if !ok {
		return accessPath{}, false
	}
	idx := tbl.SpatialIndexOn(scope.Column(col).Name)
	if idx == nil || idx.Len() < tbl.RowCount() {
		return accessPath{}, false
	}
	env, ok := KNNProbe(probe, reg)
	if !ok {
		return accessPath{}, false
	}
	return accessPath{kind: accessKNN, spatial: idx, rect: env}, true
}

// browseBeats reports whether a kNN source should replace the table's
// chosen path: always over a full scan, and over an attribute seek or
// range matching M of the table's N rows when M ≥ √(k·N), k =
// offset+limit. Browsing past the filter reads about k·N/M candidates,
// seeking reads M. M is counted with the path's own probe and stops at
// ⌈√(k·N)⌉ entries, fetching no row. The probe's keys are constants: a
// key that fails to evaluate or can match nothing keeps the seek, which
// raises the error or returns nothing where it always has.
func (r *Runner) browseBeats(path accessPath, sel *Select, tbl Table) bool {
	switch path.kind {
	case accessFullScan:
		return true
	case accessAttrSeek, accessAttrRange:
	default:
		return false
	}
	var probe idProbe
	if ok, err := probe.eval(&path, nil, r.reg); err != nil || !ok {
		return false
	}
	enough := int(math.Ceil(math.Sqrt(float64(sel.Offset+sel.Limit) * float64(tbl.RowCount()))))
	m := 0
	if enough > 0 {
		probe.search(func(RowID) bool { m++; return m < enough })
	}
	return m >= enough
}

// KNNShape matches the shape the planner upgrades to a kNN index scan:
// a single un-grouped table ordered by one ascending key
// ST_Distance(col, probe), either operand order, with a LIMIT and a
// constant probe. order holds the bound ORDER BY keys; col is the
// column's scope offset, probe the bound constant operand.
func KNNShape(sel *Select, order []Expr) (col int, probe Expr, ok bool) {
	if len(sel.Joins) != 0 || len(sel.GroupBy) != 0 || sel.Limit < 0 ||
		len(sel.OrderBy) != 1 || sel.OrderBy[0].Desc {
		return 0, nil, false
	}
	fc, isCall := order[0].(*callExpr)
	if !isCall || strings.ToUpper(fc.src.Name) != "ST_DISTANCE" || len(fc.args) != 2 {
		return 0, nil, false
	}
	for i := 0; i < 2; i++ {
		if c, isCol := fc.args[i].(*colRef); isCol && maxRef(fc.args[1-i]) < 0 {
			return c.idx, fc.args[1-i], true
		}
	}
	return 0, nil, false
}

// KNNProbe evaluates the constant probe of a kNN shape (KNNShape) and
// returns its envelope. The probe is usable, and ok true, only when it
// is a non-empty geometry: rows can be browsed in distance order from
// nothing else.
func KNNProbe(probe Expr, reg *Registry) (env geom.Rect, ok bool) {
	v, err := Eval(probe, nil, reg)
	if err != nil || v.Type != storage.TypeGeom {
		return geom.EmptyRect(), false
	}
	env = v.Geom.Envelope()
	return env, !env.IsEmpty()
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

// windowExprs returns the window's probe operand and, for ST_DWithin,
// its expansion distance (nil otherwise).
func (p *accessPath) windowExprs() (probe, expand Expr) {
	if p.window == nil {
		return nil, nil
	}
	if len(p.window.args) == 3 {
		expand = p.window.args[2]
	}
	return p.window.args[p.windowArg], expand
}

// evalWindow computes the query window for a spatial access path against
// the current (possibly partial) outer row. A NULL probe gives the empty
// window; any other non-geometry raises the error the call itself
// raises on every row, whose other operand, the probed geometry column,
// passes the same argument check. An ordinate window is its constant
// rect.
func (p *accessPath) evalWindow(row []storage.Value, reg *Registry) (geom.Rect, error) {
	if p.window == nil {
		return p.rect, nil
	}
	probe, expand := p.windowExprs()
	v, err := Eval(probe, row, reg)
	if err != nil {
		return geom.EmptyRect(), err
	}
	fn := "predicate" // the name registerSpatial's predicates report
	if expand != nil {
		fn = "ST_DWITHIN"
	}
	g, err := geomArg(v, p.windowArg, fn)
	if g == nil {
		return geom.EmptyRect(), err
	}
	w := g.Envelope()
	if expand != nil {
		d, err := Eval(expand, row, reg)
		if err != nil {
			return geom.EmptyRect(), err
		}
		if f, ok := d.AsFloat(); ok {
			w = w.Expand(f)
		}
	}
	return w, nil
}
