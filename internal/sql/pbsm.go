package sql

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"jackpine/internal/geom"
	"jackpine/internal/storage"
	"jackpine/internal/topo"
)

// Partition-based spatial-merge join (PBSM). An index-nested-loop
// spatial join pays one R-tree descent per outer row; when the outer
// side is large that descent dominates the join. PBSM instead collects
// both sides' envelopes decode-free into flat arrays, assigns them to a
// uniform grid over the intersection of the two extents, runs an
// x-sorted plane sweep inside each cell, and deduplicates pairs that
// straddle cells with the reference-point rule: a pair counts only in
// the cell that contains the top-left (min-x, min-y) corner of the two
// envelopes' intersection. The result is a candidate map keyed by the
// outer row's expanded envelope — exactly the window the INL path would
// probe the index with — so the probe side of the executor is a map
// lookup instead of a tree search, and refinement reuses the batched
// prepared-topology kernels. Emission stays deterministic: candidates
// are sorted in heap (RowID) order per outer envelope.

// JoinStrategy selects how spatial-predicate joins are executed.
type JoinStrategy int

const (
	// JoinAuto costs index-nested-loop against PBSM from table stats.
	JoinAuto JoinStrategy = iota
	// JoinINL forces the per-outer-row index probe.
	JoinINL
	// JoinPBSM forces the partitioned sweep whenever the join shape is
	// structurally eligible (it never displaces hash or btree paths).
	JoinPBSM
)

// String names the strategy knob.
func (s JoinStrategy) String() string {
	switch s {
	case JoinINL:
		return "inl"
	case JoinPBSM:
		return "pbsm"
	}
	return "auto"
}

// ParseJoinStrategy parses "auto", "inl" or "pbsm".
func ParseJoinStrategy(s string) (JoinStrategy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "auto":
		return JoinAuto, nil
	case "inl":
		return JoinINL, nil
	case "pbsm":
		return JoinPBSM, nil
	}
	return JoinAuto, fmt.Errorf("sql: unknown join strategy %q", s)
}

// JoinStats is a snapshot of the runner's spatial-join counters.
type JoinStats struct {
	INL        int64 // joins executed by index-nested-loop
	PBSM       int64 // joins executed by the partitioned sweep
	Cells      int64 // grid cells across all PBSM builds
	DedupDrops int64 // cross-cell duplicate pairs suppressed by the reference-point rule
	CacheHits  int64 // sweep states served from the version-checked cache
}

// SetJoinStrategy sets the spatial-join strategy knob.
func (r *Runner) SetJoinStrategy(s JoinStrategy) { r.joinStrategy = s }

// JoinStrategy returns the spatial-join strategy knob.
func (r *Runner) JoinStrategy() JoinStrategy { return r.joinStrategy }

// JoinStats returns the spatial-join activity counters.
func (r *Runner) JoinStats() JoinStats {
	return JoinStats{
		INL:        r.joinINL.Load(),
		PBSM:       r.joinPBSM.Load(),
		Cells:      r.pbsmCells.Load(),
		DedupDrops: r.pbsmDedup.Load(),
		CacheHits:  r.pbsmHits.Load(),
	}
}

// ResetJoinStats zeroes the spatial-join counters.
func (r *Runner) ResetJoinStats() {
	r.joinINL.Store(0)
	r.joinPBSM.Store(0)
	r.pbsmCells.Store(0)
	r.pbsmDedup.Store(0)
	r.pbsmHits.Store(0)
}

// pbsmMinOuterRows is the auto-strategy floor: below this many
// (estimated) outer probes the INL descent cost cannot dominate, and
// tiny joins keep their index-order emission.
const pbsmMinOuterRows = 256

// pbsmMaxGrid caps the grid side length.
const pbsmMaxGrid = 64

// pbsmSpec is the plan-time description of one PBSM join stage.
type pbsmSpec struct {
	outer    Table
	inner    Table
	outerCol int     // outer geometry column, table-relative (outer table sits at scope offset 0)
	innerCol int     // inner geometry column, table-relative
	expand   float64 // ST_DWithin distance (0 otherwise)
	gx, gy   int     // grid dimensions, fixed at plan time for EXPLAIN

	// Fast refinement: when the join conjunct is a 2-argument prepared
	// topology predicate, it is stripped from the stage filters and
	// evaluated in-probe through the batch kernel against the outer
	// geometry prepared once per outer row. A constant-distance
	// ST_DWithin conjunct is stripped the same way (refineDWithin set)
	// and refined with a direct distance kernel instead of the generic
	// per-candidate expression evaluator.
	refineFC       *FuncCall
	refinePred     topo.Predicate
	refineOuterArg int // which of refineFC.Args is the outer operand
	refineDWithin  bool

	// reuseRows marks plans whose sink copies every row it keeps (the
	// aggregation sink), letting the emit loops lease one tuple buffer
	// per probe from the runner's pool instead of allocating per row.
	reuseRows bool
}

// pbsmState is the built candidate index, shared read-only by workers.
type pbsmState struct {
	// cands maps each distinct expanded outer envelope to its candidate
	// inner rows, sorted ascending (heap order). Every distinct non-empty
	// outer envelope has an entry, so a probe miss means the probing
	// geometry was not part of the build snapshot (concurrent insert) and
	// falls back to a linear envelope scan.
	cands map[[4]float64][]RowID
	inner storage.MBRBuf // flat inner envelopes for the fallback scan
	cells int

	// rowCache holds the inner rows materialized in one sequential pass
	// on the first probe (projected to the stage's needed columns), so
	// candidates skip the per-pair heap fetch and tuple decode the INL
	// path pays per index hit. Rows landing
	// after the build snapshot miss the cache and fall back to a fetch.
	rowCache map[RowID][]storage.Value

	// drops is the cross-cell duplicate candidate pairs suppressed by
	// the reference-point rule during this build; surfaced through the
	// runner counter on every acquisition of the state.
	drops int64

	// preps holds each inner geometry prepared once per execution, for
	// topology fast-refine joins whose inner side is smaller than the
	// outer: both the INL filter path and the outer-prepared kernel pay
	// one topo.Prepare per outer row, so sharing one prepared structure
	// per inner row across all the probes that touch it is the
	// partitioned join's structural win. nil when the outer side is the
	// cheaper one to prepare (then the batch kernel path runs instead).
	preps map[RowID]*topo.Prepared
}

// materialize fills rowCache (and, for small-inner topology refines,
// preps) once per state; probes after the first reuse it.
func (st *pbsmState) materialize(tbl Table, spec *pbsmSpec, need []bool) error {
	if st.rowCache != nil {
		return nil
	}
	cache := make(map[RowID][]storage.Value, st.inner.Len())
	err := tbl.ScanProject(0, 1, Projection{Need: need, MBRCol: -1},
		func(id RowID, row []storage.Value) bool {
			cache[id] = row
			return true
		})
	if err != nil {
		return err
	}
	if spec.refineFC != nil && !spec.refineDWithin && len(cache) < spec.outer.RowCount() {
		preps := make(map[RowID]*topo.Prepared, len(cache))
		for id, row := range cache {
			if v := row[spec.innerCol]; !v.IsNull() && v.Type == storage.TypeGeom && v.Geom != nil {
				preps[id] = topo.Prepare(v.Geom)
			}
		}
		st.preps = preps
	}
	st.rowCache = cache
	return nil
}

// fetch resolves a candidate row through the cache, falling back to a
// point fetch for rows inserted after the build snapshot.
func (st *pbsmState) fetch(tbl Table, id RowID, need []bool) ([]storage.Value, error) {
	if row, ok := st.rowCache[id]; ok {
		return row, nil
	}
	return tbl.FetchProject(id, need)
}

// planPBSM decides whether the join stage at tables[1] should run as a
// partitioned sweep, and if so mutates paths[1] (and, in fast-refine
// mode, stageFilters[1]) in place. Only exact two-table plans are
// considered; the inner stage must currently be a spatial window probe
// or a full rescan — attr/hash paths are always better left alone.
func (r *Runner) planPBSM(scope *Scope, conjuncts []Expr, stageFilters [][]Expr,
	paths []accessPath, outer, inner Table, innerLo, innerHi int) {

	if r.joinStrategy == JoinINL {
		return
	}
	if paths[1].kind != accessSpatialWindow && paths[1].kind != accessFullScan {
		return
	}
	fc, outerArg, expand, ok := findPBSMConjunct(scope, conjuncts, innerLo, innerHi, r.reg)
	if !ok {
		return
	}
	outerRef := fc.Args[outerArg].(*ColumnRef).Index
	innerRef := fc.Args[1-outerArg].(*ColumnRef).Index
	outerName := scope.Column(outerRef).Name
	innerName := scope.Column(innerRef).Name
	if r.joinStrategy == JoinAuto &&
		!r.choosePBSM(outer, inner, outerName, innerName, paths[0], expand) {
		return
	}

	spec := &pbsmSpec{
		outer:    outer,
		inner:    inner,
		outerCol: outerRef, // outer table occupies scope offsets [0, innerLo)
		innerCol: innerRef - innerLo,
		expand:   expand,
	}
	spec.gx, spec.gy = pbsmGridDims(outer, inner, outerName, innerName, expand)
	p := accessPath{
		kind:       accessPBSM,
		pbsm:       spec,
		windowExpr: fc.Args[outerArg],
		need:       paths[1].need,
	}
	if expand != 0 {
		p.expandExpr = fc.Args[2]
	}
	paths[1] = p

	// Fast refinement only when the per-row path would also use the
	// prepared kernel; otherwise (ST_DWithin, MBR-semantics registry,
	// prep disabled) the conjunct stays a stage filter and PBSM replaces
	// candidate enumeration only.
	if r.prep && !r.reg.mbr {
		if pred, isTopo := topoPredicates[strings.ToUpper(fc.Name)]; isTopo && len(fc.Args) == 2 {
			for i, f := range stageFilters[1] {
				if f == Expr(fc) {
					stageFilters[1] = append(stageFilters[1][:i], stageFilters[1][i+1:]...)
					spec.refineFC = fc
					spec.refinePred = pred
					spec.refineOuterArg = outerArg
					break
				}
			}
		}
	}
	// A constant-distance ST_DWithin refines through the direct distance
	// kernel (exact semantics only — the MBR-semantics registry keeps it
	// as a stage filter so envelope-distance evaluation stays shared).
	if !r.reg.mbr && strings.ToUpper(fc.Name) == "ST_DWITHIN" {
		for i, f := range stageFilters[1] {
			if f == Expr(fc) {
				stageFilters[1] = append(stageFilters[1][:i], stageFilters[1][i+1:]...)
				spec.refineFC = fc
				spec.refineOuterArg = outerArg
				spec.refineDWithin = true
				break
			}
		}
	}
}

// findPBSMConjunct locates a sargable spatial predicate (or constant-
// distance ST_DWithin) joining an outer geometry column to an inner
// one, both as bare column references.
func findPBSMConjunct(scope *Scope, conjuncts []Expr, innerLo, innerHi int,
	reg *Registry) (fc *FuncCall, outerArg int, expand float64, ok bool) {

	for _, c := range conjuncts {
		f, isCall := c.(*FuncCall)
		if !isCall {
			continue
		}
		name := strings.ToUpper(f.Name)
		isDWithin := name == "ST_DWITHIN"
		if !sargableSpatial[name] && !isDWithin {
			continue
		}
		wantArgs := 2
		if isDWithin {
			wantArgs = 3
		}
		if len(f.Args) != wantArgs {
			continue
		}
		a0, ok0 := f.Args[0].(*ColumnRef)
		a1, ok1 := f.Args[1].(*ColumnRef)
		if !ok0 || !ok1 {
			continue
		}
		var oi int
		switch {
		case a0.Index >= innerLo && a0.Index < innerHi && a1.Index >= 0 && a1.Index < innerLo:
			oi = 1
		case a1.Index >= innerLo && a1.Index < innerHi && a0.Index >= 0 && a0.Index < innerLo:
			oi = 0
		default:
			continue
		}
		if scope.Column(a0.Index).Type != storage.TypeGeom ||
			scope.Column(a1.Index).Type != storage.TypeGeom {
			continue
		}
		var d float64
		if isDWithin {
			if maxRef(f.Args[2]) >= 0 {
				continue // distance must be constant for a precomputed grid
			}
			v, err := Eval(f.Args[2], nil, reg)
			if err != nil || v.IsNull() {
				continue
			}
			fl, isNum := v.AsFloat()
			if !isNum || math.IsNaN(fl) || math.IsInf(fl, 0) {
				continue
			}
			d = fl
		}
		return f, oi, d, true
	}
	return nil, 0, 0, false
}

// geomStatsOn fetches stats through the optional StatsTable extension.
func geomStatsOn(tbl Table, column string) (GeomStats, bool) {
	st, ok := tbl.(StatsTable)
	if !ok {
		return GeomStats{}, false
	}
	return st.GeomStatsOn(column)
}

// choosePBSM is the auto-strategy cost decision. INL wins whenever the
// outer stage is already selective (attr/kNN/hash access) or small; a
// missing inner index flips the default toward PBSM early, since the
// alternative is a quadratic prefiltered rescan.
func (r *Runner) choosePBSM(outer, inner Table, outerCol, innerCol string,
	outerPath accessPath, expand float64) bool {

	switch outerPath.kind {
	case accessAttrSeek, accessAttrRange, accessKNN, accessHashJoin:
		return false
	}
	nOuter := outer.RowCount()
	nInner := inner.RowCount()
	estOuter := float64(nOuter)
	// A constant spatial window on the outer stage scales the number of
	// probes by the window's share of the table extent.
	if outerPath.windowExpr != nil && maxRef(outerPath.windowExpr) < 0 {
		if st, ok := geomStatsOn(outer, outerCol); ok && st.MBR.Area() > 0 {
			if win, err := outerPath.evalWindow(nil, r.reg); err == nil && !win.IsEmpty() {
				frac := win.Intersect(st.MBR).Area() / st.MBR.Area()
				if frac < 1 {
					estOuter *= frac
				}
			}
		}
	}
	if inner.SpatialIndexOn(innerCol) == nil {
		// No index: INL degenerates to a per-outer-row rescan.
		return estOuter >= 16 && nInner >= 16
	}
	return estOuter >= pbsmMinOuterRows && 4*estOuter >= float64(nOuter)
}

// pbsmGridDims sizes the grid at plan time: cells scale with sqrt of
// the larger side (targeting ~16 envelopes per cell per side) and are
// capped so a cell never shrinks below the mean envelope footprint —
// oversized envelopes would otherwise replicate into many cells and
// inflate dedup work.
func pbsmGridDims(outer, inner Table, outerCol, innerCol string, expand float64) (int, int) {
	n := outer.RowCount()
	if c := inner.RowCount(); c > n {
		n = c
	}
	if n < 1 {
		n = 1
	}
	g := int(math.Ceil(math.Sqrt(float64(n) / 16)))
	if g < 1 {
		g = 1
	}
	if g > pbsmMaxGrid {
		g = pbsmMaxGrid
	}
	gx, gy := g, g
	oStats, oOK := geomStatsOn(outer, outerCol)
	iStats, iOK := geomStatsOn(inner, innerCol)
	if oOK && iOK {
		extent := oStats.MBR.Expand(expand).Intersect(iStats.MBR)
		meanSide := math.Max(math.Sqrt(oStats.MeanArea)+2*expand, math.Sqrt(iStats.MeanArea))
		if !extent.IsEmpty() && meanSide > 0 {
			if c := int(extent.Width() / meanSide); c < gx {
				gx = c
			}
			if c := int(extent.Height() / meanSide); c < gy {
				gy = c
			}
		}
	}
	if gx < 1 {
		gx = 1
	}
	if gy < 1 {
		gy = 1
	}
	return gx, gy
}

// collectMBRs fills buf with every row envelope of one geometry column,
// expanded by expand, skipping NULL/empty geometries. Decode-free when
// the table implements MBRTable; otherwise each geometry is
// materialized once.
func collectMBRs(tbl Table, col int, expand float64, buf *storage.MBRBuf) error {
	appendEnv := func(id RowID, env geom.Rect) bool {
		if expand != 0 {
			env = env.Expand(expand)
		}
		if env.IsEmpty() {
			return true
		}
		buf.Append(int64(id), env.MinX, env.MinY, env.MaxX, env.MaxY)
		return true
	}
	if mt, ok := tbl.(MBRTable); ok {
		return mt.ScanMBR(col, appendEnv)
	}
	need := make([]bool, len(tbl.Columns()))
	need[col] = true
	return tbl.ScanProject(0, 1, Projection{Need: need, MBRCol: -1},
		func(id RowID, row []storage.Value) bool {
			v := row[col]
			if v.IsNull() || v.Type != storage.TypeGeom || v.Geom == nil || v.Geom.IsEmpty() {
				return true
			}
			return appendEnv(id, v.Geom.Envelope())
		})
}

// pbsmPair is one candidate (outer envelope, inner row) pair emitted by
// a cell sweep, as indices into the flat envelope arrays.
type pbsmPair struct {
	a, b int32
}

// buildPBSM materializes the candidate index: collect envelopes, grid
// them, sweep each cell (cells fan out across the worker pool), and
// merge cell outputs in deterministic cell order.
func (r *Runner) buildPBSM(spec *pbsmSpec) (*pbsmState, error) {
	st := &pbsmState{}
	if err := collectMBRs(spec.inner, spec.innerCol, 0, &st.inner); err != nil {
		return nil, err
	}
	var outer storage.MBRBuf
	if err := collectMBRs(spec.outer, spec.outerCol, spec.expand, &outer); err != nil {
		return nil, err
	}

	// Deduplicate outer envelopes: rows sharing an envelope share a
	// candidate list (point tables collapse massively). ukeys remembers
	// first-seen order so the map is filled deterministically.
	st.cands = make(map[[4]float64][]RowID, outer.Len())
	var u storage.MBRBuf
	ukeys := make([][4]float64, 0, outer.Len())
	for i := 0; i < outer.Len(); i++ {
		key := [4]float64{outer.MinX[i], outer.MinY[i], outer.MaxX[i], outer.MaxY[i]}
		if _, seen := st.cands[key]; seen {
			continue
		}
		st.cands[key] = nil
		u.Append(0, key[0], key[1], key[2], key[3])
		ukeys = append(ukeys, key)
	}

	extent := u.Bounds().Intersect(st.inner.Bounds())
	gx, gy := spec.gx, spec.gy
	if extent.IsEmpty() {
		// Disjoint extents: no pair can exist; every list stays empty.
		st.cells = 0
		return st, nil
	}
	if extent.Width() <= 0 {
		gx = 1
	}
	if extent.Height() <= 0 {
		gy = 1
	}
	st.cells = gx * gy
	cw := extent.Width() / float64(gx)
	ch := extent.Height() / float64(gy)
	cellX := func(x float64) int {
		if gx == 1 || cw <= 0 {
			return 0
		}
		i := int((x - extent.MinX) / cw)
		if i < 0 {
			i = 0
		}
		if i >= gx {
			i = gx - 1
		}
		return i
	}
	cellY := func(y float64) int {
		if gy == 1 || ch <= 0 {
			return 0
		}
		i := int((y - extent.MinY) / ch)
		if i < 0 {
			i = 0
		}
		if i >= gy {
			i = gy - 1
		}
		return i
	}

	// Replicate each envelope into every cell its clamped span covers.
	// Envelopes outside the joint extent can never pair up.
	type cellList struct{ a, b []int32 }
	cells := make([]cellList, gx*gy)
	assign := func(buf *storage.MBRBuf, side int) {
		for i := 0; i < buf.Len(); i++ {
			if buf.MinX[i] > extent.MaxX || buf.MaxX[i] < extent.MinX ||
				buf.MinY[i] > extent.MaxY || buf.MaxY[i] < extent.MinY {
				continue
			}
			x0, x1 := cellX(buf.MinX[i]), cellX(buf.MaxX[i])
			y0, y1 := cellY(buf.MinY[i]), cellY(buf.MaxY[i])
			for y := y0; y <= y1; y++ {
				for x := x0; x <= x1; x++ {
					c := &cells[y*gx+x]
					if side == 0 {
						c.a = append(c.a, int32(i))
					} else {
						c.b = append(c.b, int32(i))
					}
				}
			}
		}
	}
	assign(&u, 0)
	assign(&st.inner, 1)

	// Sweep cells across the worker pool; each worker owns a pair buffer
	// and a dedup-drop counter, merged afterwards in cell order so the
	// per-envelope lists come out identical at any parallelism.
	nw := r.par
	if nw > len(cells) {
		nw = len(cells)
	}
	if len(cells) < 8 || nw < 1 {
		nw = 1
	}
	pairBufs := make([][]pbsmPair, nw)
	dropCounts := make([]int64, nw)
	sweepRange := func(w, lo, hi int) {
		pairs := pairBufs[w]
		drops := int64(0)
		for ci := lo; ci < hi; ci++ {
			c := &cells[ci]
			if len(c.a) == 0 || len(c.b) == 0 {
				continue
			}
			sortByMinX(c.a, u.MinX)
			sortByMinX(c.b, st.inner.MinX)
			pairs, drops = sweepCell(&u, &st.inner, c.a, c.b,
				ci%gx, ci/gx, cellX, cellY, pairs, drops)
		}
		pairBufs[w] = pairs
		dropCounts[w] = drops
	}
	if nw <= 1 {
		sweepRange(0, 0, len(cells))
	} else {
		var wg sync.WaitGroup
		for w := 0; w < nw; w++ {
			lo, hi := w*len(cells)/nw, (w+1)*len(cells)/nw
			wg.Add(1)
			go func(w, lo, hi int) {
				defer wg.Done()
				sweepRange(w, lo, hi)
			}(w, lo, hi)
		}
		wg.Wait()
	}

	lists := make([][]RowID, u.Len())
	for w := 0; w < nw; w++ {
		for _, p := range pairBufs[w] {
			lists[p.a] = append(lists[p.a], RowID(st.inner.IDs[p.b]))
		}
		st.drops += dropCounts[w]
	}
	for i, key := range ukeys {
		l := lists[i]
		sort.Slice(l, func(p, q int) bool { return l[p] < l[q] })
		st.cands[key] = l
	}
	return st, nil
}

// sortByMinX orders a cell list by envelope min-x, breaking ties by
// index so the sweep is deterministic.
func sortByMinX(idx []int32, minX []float64) {
	sort.Slice(idx, func(p, q int) bool {
		if minX[idx[p]] != minX[idx[q]] {
			return minX[idx[p]] < minX[idx[q]]
		}
		return idx[p] < idx[q]
	})
}

// sweepCell runs the x-sorted plane sweep over one cell's two lists.
// Both lists are sorted by min-x; advancing the side with the smaller
// min-x and scanning the other while x-ranges overlap visits each
// envelope-intersecting pair exactly once. The reference-point rule
// then keeps a pair only in the cell owning the top-left corner of the
// envelope intersection, so pairs replicated into several cells are
// emitted once globally.
func sweepCell(ua, ub *storage.MBRBuf, la, lb []int32, cx, cy int,
	cellX, cellY func(float64) int, out []pbsmPair, drops int64) ([]pbsmPair, int64) {

	i, j := 0, 0
	for i < len(la) && j < len(lb) {
		if ua.MinX[la[i]] <= ub.MinX[lb[j]] {
			ai := la[i]
			for k := j; k < len(lb); k++ {
				bi := lb[k]
				if ub.MinX[bi] > ua.MaxX[ai] {
					break
				}
				if ua.MinY[ai] > ub.MaxY[bi] || ub.MinY[bi] > ua.MaxY[ai] {
					continue
				}
				rx := math.Max(ua.MinX[ai], ub.MinX[bi])
				ry := math.Max(ua.MinY[ai], ub.MinY[bi])
				if cellX(rx) != cx || cellY(ry) != cy {
					drops++
					continue
				}
				out = append(out, pbsmPair{ai, bi})
			}
			i++
		} else {
			bi := lb[j]
			for k := i; k < len(la); k++ {
				ai := la[k]
				if ua.MinX[ai] > ub.MaxX[bi] {
					break
				}
				if ua.MinY[ai] > ub.MaxY[bi] || ub.MinY[bi] > ua.MaxY[ai] {
					continue
				}
				rx := math.Max(ua.MinX[ai], ub.MinX[bi])
				ry := math.Max(ua.MinY[ai], ub.MinY[bi])
				if cellX(rx) != cx || cellY(ry) != cy {
					drops++
					continue
				}
				out = append(out, pbsmPair{ai, bi})
			}
			j++
		}
	}
	return out, drops
}

// linear is the defensive fallback for probe envelopes absent from the
// build snapshot (a row inserted between build and probe): a flat
// envelope-overlap scan, still candidate-exact.
func (st *pbsmState) linear(w geom.Rect) []RowID {
	var ids []RowID
	b := &st.inner
	for i := 0; i < b.Len(); i++ {
		if b.MinX[i] <= w.MaxX && w.MinX <= b.MaxX[i] &&
			b.MinY[i] <= w.MaxY && w.MinY <= b.MaxY[i] {
			ids = append(ids, RowID(b.IDs[i]))
		}
	}
	sort.Slice(ids, func(p, q int) bool { return ids[p] < ids[q] })
	return ids
}

// pbsmKey identifies a cacheable sweep state: the physical tables and
// join columns, the window expansion, the grid, the refine mode (it
// decides whether inner geometries are pre-prepared) and the projected
// column set (the row cache stores projected rows).
type pbsmKey struct {
	outer, inner       Table
	outerCol, innerCol int
	expand             float64
	gx, gy             int
	mode               byte
	needKey            string
}

// pbsmEntry is one cached state stamped with the table versions it was
// built against.
type pbsmEntry struct {
	st                 *pbsmState
	outerVer, innerVer uint64
}

// pbsmCacheMax bounds the runner's state cache; at the cap the whole
// map is dropped (states are cheap to rebuild relative to churn logic).
const pbsmCacheMax = 16

// pbsmSpecKey derives the cache key, reporting false when either table
// cannot report a data version (then caching would be unsound).
func pbsmSpecKey(spec *pbsmSpec, need []bool) (pbsmKey, bool) {
	if _, ok := spec.outer.(VersionedTable); !ok {
		return pbsmKey{}, false
	}
	if _, ok := spec.inner.(VersionedTable); !ok {
		return pbsmKey{}, false
	}
	mode := byte(0)
	if spec.refineFC != nil {
		mode = 1
		if spec.refineDWithin {
			mode = 2
		}
	}
	nb := make([]byte, len(need))
	for i, n := range need {
		if n {
			nb[i] = 1
		}
	}
	return pbsmKey{
		outer: spec.outer, inner: spec.inner,
		outerCol: spec.outerCol, innerCol: spec.innerCol,
		expand: spec.expand, gx: spec.gx, gy: spec.gy,
		mode: mode, needKey: string(nb),
	}, true
}

// acquirePBSM returns the ready-to-probe sweep state for the spec:
// from the runner's version-checked cache when both tables report data
// versions, else built (and materialized) fresh. Versions are read
// before the build, so a mutation racing the build at worst stamps the
// entry stale and forces a rebuild on the next statement — never a
// silently reused stale index. The cells/dedup counters advance on
// every acquisition, so per-statement deltas stay meaningful whether
// or not the build was reused.
func (r *Runner) acquirePBSM(spec *pbsmSpec, need []bool) (*pbsmState, error) {
	key, cacheable := pbsmSpecKey(spec, need)
	var outerVer, innerVer uint64
	if cacheable {
		outerVer = spec.outer.(VersionedTable).DataVersion()
		innerVer = spec.inner.(VersionedTable).DataVersion()
		r.pbsmMu.Lock()
		e, ok := r.pbsmCache[key]
		r.pbsmMu.Unlock()
		if ok && e.outerVer == outerVer && e.innerVer == innerVer {
			r.pbsmHits.Add(1)
			r.pbsmCells.Add(int64(e.st.cells))
			r.pbsmDedup.Add(e.st.drops)
			return e.st, nil
		}
	}
	st, err := r.buildPBSM(spec)
	if err != nil {
		return nil, err
	}
	if err := st.materialize(spec.inner, spec, need); err != nil {
		return nil, err
	}
	r.pbsmCells.Add(int64(st.cells))
	r.pbsmDedup.Add(st.drops)
	if cacheable {
		r.pbsmMu.Lock()
		if r.pbsmCache == nil {
			r.pbsmCache = make(map[pbsmKey]*pbsmEntry)
		}
		if len(r.pbsmCache) >= pbsmCacheMax {
			r.pbsmCache = make(map[pbsmKey]*pbsmEntry, pbsmCacheMax)
		}
		r.pbsmCache[key] = &pbsmEntry{st: st, outerVer: outerVer, innerVer: innerVer}
		r.pbsmMu.Unlock()
	}
	return st, nil
}

// scanPBSM is the probe side of the join stage: compute the outer
// window exactly as the INL path would, look up the candidate list, and
// either emit candidates through the stage filters (safe mode) or
// refine them in-probe with the batched prepared kernel (fast mode,
// join conjunct stripped from the filters).
func (r *Runner) scanPBSM(tbl Table, path accessPath, prefix []storage.Value,
	width, lo int, built **pbsmState, emit emitFn) (bool, error) {

	if *built == nil {
		st, err := r.acquirePBSM(path.pbsm, path.need)
		if err != nil {
			return false, err
		}
		*built = st
	}
	st := *built
	window, err := path.evalWindow(prefix, r.reg)
	if err != nil {
		return false, err
	}
	if window.IsEmpty() {
		return true, nil
	}
	ids, hit := st.cands[[4]float64{window.MinX, window.MinY, window.MaxX, window.MaxY}]
	if !hit {
		ids = st.linear(window)
	}
	if len(ids) == 0 {
		return true, nil
	}
	if path.pbsm.refineFC != nil {
		return r.pbsmRefine(tbl, st, path, prefix, width, lo, ids, emit)
	}
	var full []storage.Value
	if path.pbsm.reuseRows {
		full = r.getRow(width)
		defer r.putRow(full)
	}
	for _, id := range ids {
		row, err := st.fetch(tbl, id, path.need)
		if err != nil {
			return false, err
		}
		if !path.pbsm.reuseRows {
			full = make([]storage.Value, width) //lint:allow batchalloc emitted rows escape the probe
		}
		copy(full, prefix)
		copy(full[lo:], row)
		cont, err := emit(full)
		if err != nil || !cont {
			return cont, err
		}
	}
	return true, nil
}

// pbsmRefine evaluates the stripped join conjunct over the candidate
// list — through one batch kernel call against the outer geometry
// prepared once (topology predicates), or through the direct distance
// kernel (constant ST_DWithin) — with the same NULL, type-error and
// prep-hit semantics as the per-row path, producing the same survivors.
func (r *Runner) pbsmRefine(tbl Table, st *pbsmState, path accessPath, prefix []storage.Value,
	width, lo int, ids []RowID, emit emitFn) (bool, error) {

	spec := path.pbsm
	ov, err := Eval(spec.refineFC.Args[spec.refineOuterArg], prefix, r.reg)
	if err != nil {
		return false, err
	}
	if ov.IsNull() || ov.Type != storage.TypeGeom || ov.Geom == nil {
		// A NULL outer operand makes the predicate NULL for every
		// candidate: nothing survives. (Unreachable after a non-empty
		// window, kept for safety.)
		return true, nil
	}
	varIdx := 1 - spec.refineOuterArg
	if spec.refineDWithin {
		// Distance refinement: the inner operand is a bare column
		// reference (findPBSMConjunct guarantees it), so it is read
		// straight off the fetched row — no expression dispatch, and a
		// joined tuple is built only for survivors.
		var full []storage.Value
		if spec.reuseRows {
			full = r.getRow(width)
			defer r.putRow(full)
		}
		for _, id := range ids {
			row, err := st.fetch(tbl, id, path.need)
			if err != nil {
				return false, err
			}
			v := row[spec.innerCol]
			if v.IsNull() {
				continue // NULL predicate result: row dropped
			}
			if v.Type != storage.TypeGeom {
				return false, fmt.Errorf("sql: predicate: argument %d is %s, want GEOMETRY", varIdx+1, v.Type)
			}
			if v.Geom == nil || !geom.DWithin(ov.Geom, v.Geom, spec.expand) {
				continue
			}
			if !spec.reuseRows {
				full = make([]storage.Value, width) //lint:allow batchalloc survivor rows escape the probe
			}
			copy(full, prefix)
			copy(full[lo:], row)
			cont, err := emit(full)
			if err != nil || !cont {
				return cont, err
			}
		}
		return true, nil
	}
	if st.preps != nil {
		// Small-inner mode: each inner geometry was prepared once at
		// materialization, so candidates evaluate against that shared
		// structure directly — no per-probe topo.Prepare — and a joined
		// tuple is allocated only for survivors. A candidate missing
		// from the prepared set landed after the build snapshot and is
		// prepared on the spot (the result is identical either way).
		evals := 0
		var full []storage.Value
		if spec.reuseRows {
			full = r.getRow(width)
			defer r.putRow(full)
		}
		for _, id := range ids {
			row, err := st.fetch(tbl, id, path.need)
			if err != nil {
				return false, err
			}
			v := row[spec.innerCol]
			if v.IsNull() {
				continue // NULL predicate result: row dropped
			}
			if v.Type != storage.TypeGeom {
				return false, fmt.Errorf("sql: predicate: argument %d is %s, want GEOMETRY", varIdx+1, v.Type)
			}
			if v.Geom == nil {
				continue
			}
			p := st.preps[id]
			if p == nil {
				p = topo.Prepare(v.Geom)
			}
			evals++
			var hit bool
			if spec.refineOuterArg == 0 {
				hit = p.EvalReversed(spec.refinePred, ov.Geom)
			} else {
				hit = p.Eval(spec.refinePred, ov.Geom)
			}
			if !hit {
				continue
			}
			if !spec.reuseRows {
				full = make([]storage.Value, width) //lint:allow batchalloc survivor rows escape the probe
			}
			copy(full, prefix)
			copy(full[lo:], row)
			cont, err := emit(full)
			if err != nil || !cont {
				return cont, err
			}
		}
		r.reg.prepHits.Add(int64(evals))
		return true, nil
	}
	prepared := topo.Prepare(ov.Geom)
	arg := spec.refineFC.Args[varIdx]
	rows := make([][]storage.Value, 0, len(ids))
	geoms := make([]geom.Geometry, 0, len(ids))
	for _, id := range ids {
		row, err := st.fetch(tbl, id, path.need)
		if err != nil {
			return false, err
		}
		full := make([]storage.Value, width) //lint:allow batchalloc survivor rows escape the probe
		copy(full, prefix)
		copy(full[lo:], row)
		v, err := Eval(arg, full, r.reg)
		if err != nil {
			return false, err
		}
		if v.IsNull() {
			continue // NULL predicate result: row dropped
		}
		if v.Type != storage.TypeGeom {
			return false, fmt.Errorf("sql: predicate: argument %d is %s, want GEOMETRY", varIdx+1, v.Type)
		}
		if v.Geom == nil {
			continue
		}
		rows = append(rows, full)
		geoms = append(geoms, v.Geom)
	}
	outs := make([]bool, len(geoms))
	if spec.refineOuterArg == 0 {
		prepared.EvalBatch(spec.refinePred, geoms, outs)
	} else {
		prepared.EvalBatchReversed(spec.refinePred, geoms, outs)
	}
	r.reg.prepHits.Add(int64(len(geoms)))
	for i, row := range rows {
		if !outs[i] {
			continue
		}
		cont, err := emit(row)
		if err != nil || !cont {
			return cont, err
		}
	}
	return true, nil
}
