package sql

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"

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
// envelopes' intersection. The result is a candidate index over
// positions: each inner row has a build position (its rank in RowID
// order), each distinct expanded outer envelope — exactly the window
// the INL path would probe the index with — has a position too, and
// the candidates of outer position k are one run of a flat array of
// inner positions. A probe finds its window's position in an
// open-addressed table over the envelope arrays, reads the run, and
// refines it against the inner rows, geometries, envelopes and prepared
// geometries stored by position, with no per-row lookup. Emission stays
// deterministic: a run is in ascending inner position, which is heap
// (RowID) order.
//
// When stage 0 is a batched, unfiltered full scan of the outer table,
// which decodes every row anyway (execSelect's fromState), the state
// holds the outer side as well: every outer row, decoded once per build
// in RowID order, and its outer position. Stage 0 then reads its rows
// from the state instead of the heap (stage0Source), each row carrying
// its index into those arrays, so its probe goes straight to the run: a
// warm execution scans no page, decodes no geometry and evaluates no
// window. A cold build gets the outer envelopes and rows from one
// decoding scan. Every other outer stage streams its rows through the
// window probe.

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
	// evaluated in-probe against the outer geometry prepared once per
	// outer row (pbsmRefine). A constant-distance
	// ST_DWithin conjunct is stripped the same way (refineDWithin set)
	// and refined with the threshold kernel (geom.DWithinEnv) instead
	// of the generic per-candidate expression evaluator.
	refineFC       *callExpr
	refinePred     topo.Predicate
	refineOuterArg int // which of refineFC.args is the outer operand
	refineDWithin  bool

	// outerAt is set when the state supplies stage 0's rows: the hidden
	// tuple position carrying each outer row's index into the state's
	// outer arrays (0, a scope column, when stage 0 streams its own).
	// outerNeed is stage 0's column projection (nil means all columns).
	outerAt   int
	outerNeed []bool
}

// pbsmState is the built candidate index, shared read-only by workers.
// Inner rows are addressed by build position: the rank of their RowID
// among the inner rows with a geometry. Distinct expanded outer
// envelopes are addressed by outer position, in first-seen scan order.
type pbsmState struct {
	// inner holds the inner envelopes by build position, so in
	// ascending RowID order; rows, geoms and preps are indexed the same
	// way.
	inner storage.MBRBuf

	// rows holds the inner rows, projected to the stage's needed
	// columns and decoded in one sequential pass when the build
	// completes, so candidates skip the per-pair heap fetch and tuple
	// decode the INL path pays per index hit. geoms holds each one's
	// join geometry (nil for NULL): the refine reads a candidate's
	// geometry without touching its row.
	rows  pbsmRows
	geoms []geom.Geometry

	// preps holds each inner geometry prepared once per execution, for
	// topology fast-refine joins whose inner side is smaller than the
	// outer: both the INL filter path and the outer-prepared refine pay
	// one topo.Prepare per outer row, so sharing one prepared structure
	// per inner row across all the probes that touch it is the
	// partitioned join's structural win. nil when the outer side is the
	// cheaper one to prepare (then only the outer side is prepared).
	preps []*topo.Prepared

	// outer holds the distinct expanded outer envelopes by outer
	// position (its IDs are not used). slots is an open-addressed hash
	// table over them: a non-zero slot holds an outer position plus
	// one. The candidates of outer position k are the inner positions
	// cand[off[k]:off[k+1]], ascending. Every distinct non-empty outer
	// envelope has a position, so a window without one was not part of
	// the build snapshot (concurrent insert) and falls back to a linear
	// envelope scan. A state that holds the outer rows drops outer and
	// slots once complete: its probes read their runs by row.
	outer     storage.MBRBuf
	slots     []int32
	slotShift uint
	off, cand []int32

	// outerRows holds every outer row, NULL and empty geometries
	// included, projected to spec.outerNeed, in RowID order (the order a
	// heap scan emits), and outerPos each one's outer position, or -1
	// when its window is empty. Both are empty unless the state supplies
	// stage 0's rows (spec.outerAt).
	outerRows pbsmRows
	outerPos  []int32

	cells int

	// drops is the cross-cell duplicate candidate pairs suppressed by
	// the reference-point rule during this build; surfaced through the
	// runner counter on every acquisition of the state.
	drops int64

	// outerVer and innerVer are the tables' data versions read before
	// the build; the cache serves the state only while both match.
	// complete is set once the candidate index and the inner rows are
	// built; a cached state is always complete, and read-only.
	outerVer, innerVer uint64
	complete           bool
}

// scanRows hands fn every row of the shard'th of nshards heap
// partitions of tbl, projected to need, in RowID order, from one
// decoding pass. The row is borrowed.
func scanRows(tbl Table, shard, nshards int, need []bool, fn func(id RowID, row []storage.Value) error) error {
	return tbl.ScanBatch(shard, nshards, Projection{Need: need, MBRCol: -1}, func(b *storage.ColBatch) (bool, error) {
		for _, s := range b.Sel {
			if err := fn(RowID(b.ID(s)), b.Row(s)); err != nil {
				return false, err
			}
		}
		return true, nil
	})
}

// materialize fills rows and geoms (and, for small-inner topology
// refines, preps) once per state; probes after the first reuse them.
// The scan is matched to build positions in one forward pass: it walks
// the heap, as the envelope scan did, in RowID order. A row it did not
// return (deleted since the envelope scan, or a scan out of order) is
// an error, never a silently missing candidate.
func (st *pbsmState) materialize(tbl Table, spec *pbsmSpec, need []bool) error {
	ids := st.inner.IDs
	st.rows = newPBSMRows(tbl, need, len(ids))
	st.geoms = make([]geom.Geometry, 0, len(ids))
	err := scanRows(tbl, 0, 1, need, func(id RowID, row []storage.Value) error {
		if pos := len(st.geoms); pos < len(ids) && ids[pos] == int64(id) {
			// The column is typed GEOMETRY (findPBSMConjunct), so the
			// geometry is nil only for NULL.
			st.geoms = append(st.geoms, row[spec.innerCol].Geom)
			return st.rows.add(row)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if pos := len(st.geoms); pos < len(ids) {
		return fmt.Errorf("sql: PBSM inner scan did not return row %d in RowID order", ids[pos])
	}
	if spec.refineFC != nil && !spec.refineDWithin && len(ids) < spec.outer.RowCount() {
		st.preps = make([]*topo.Prepared, len(ids))
		for i, g := range st.geoms {
			if g != nil {
				st.preps[i] = topo.Prepare(g)
			}
		}
	}
	return nil
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
	outerRef := fc.args[outerArg].(*colRef).idx
	innerRef := fc.args[1-outerArg].(*colRef).idx
	outerName := scope.Column(outerRef).Name
	innerName := scope.Column(innerRef).Name
	if r.joinStrategy == JoinAuto &&
		!r.choosePBSM(outer, inner, outerName, innerName, paths[0], stageFilters[0], innerLo, expand) {
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
	paths[1] = accessPath{
		kind:      accessPBSM,
		pbsm:      spec,
		window:    fc,
		windowArg: outerArg,
		need:      paths[1].need,
	}

	// Fast refinement only when the per-row path would also use the
	// prepared kernel; otherwise (ST_DWithin, MBR-semantics registry,
	// prep disabled) the conjunct stays a stage filter and PBSM replaces
	// candidate enumeration only.
	if r.prep && !r.reg.mbr {
		if pred, isTopo := topoPredicates[strings.ToUpper(fc.src.Name)]; isTopo && len(fc.args) == 2 {
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
	if !r.reg.mbr && strings.ToUpper(fc.src.Name) == "ST_DWITHIN" {
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

// findPBSMConjunct locates a conjunct spatialProbe matches against the
// inner table whose probe is a bare outer geometry column and whose
// ST_DWithin distance, if any, is a finite constant: a sweep grid is
// laid out once, before any outer row is read. outerArg is the probe's
// argument position.
func findPBSMConjunct(scope *Scope, conjuncts []Expr, innerLo, innerHi int,
	reg *Registry) (fc *callExpr, outerArg int, expand float64, ok bool) {

	isGeom := func(col *colRef) bool { return scope.Column(col.idx).Type == storage.TypeGeom }
	for _, c := range conjuncts {
		fc, _, arg, matched := spatialProbe(c, innerLo, innerHi, 0, innerLo, isGeom)
		if !matched {
			continue
		}
		if outer, isCol := fc.args[arg].(*colRef); !isCol || !isGeom(outer) {
			continue
		}
		if d, ok := constDistance(fc, reg); ok {
			return fc, arg, d, true
		}
	}
	return nil, 0, 0, false
}

// constDistance is the envelope-distance bound every true result of a
// spatialProbe match obeys: 0 for a sargable predicate, the distance of
// an ST_DWithin whose distance is a finite constant. ok is false for
// any other distance.
func constDistance(fc *callExpr, reg *Registry) (float64, bool) {
	if len(fc.args) != 3 {
		return 0, true
	}
	if maxRef(fc.args[2]) >= 0 {
		return 0, false
	}
	v, err := Eval(fc.args[2], nil, reg)
	d, isNum := v.AsFloat()
	return d, err == nil && isNum && !math.IsNaN(d) && !math.IsInf(d, 0)
}

// choosePBSM is the auto-strategy cost decision. INL wins whenever the
// outer stage is already selective (attr/kNN/hash access, or a filter
// `column = constant` on one of the outer table's outerCols columns,
// which keeps what a seek would without an index) or small; a missing
// inner index flips the default toward PBSM early, since the
// alternative is a quadratic prefiltered rescan.
func (r *Runner) choosePBSM(outer, inner Table, outerCol, innerCol string,
	outerPath accessPath, outerFilters []Expr, outerCols int, expand float64) bool {

	switch outerPath.kind {
	case accessAttrSeek, accessAttrRange, accessKNN, accessHashJoin:
		return false
	}
	for _, f := range outerFilters {
		if cc, ok := compileComparison(f).pushdown(outerCols); ok && cc.Op == storage.CmpEQ {
			return false
		}
	}
	nOuter := outer.RowCount()
	nInner := inner.RowCount()
	estOuter := float64(nOuter)
	// A constant spatial window on the outer stage scales the number of
	// probes by the window's share of the table extent.
	if probe, _ := outerPath.windowExprs(); probe != nil && maxRef(probe) < 0 {
		if st, ok := outer.GeomStatsOn(outerCol); ok && st.MBR.Area() > 0 {
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
	oStats, oOK := outer.GeomStatsOn(outerCol)
	iStats, iOK := inner.GeomStatsOn(innerCol)
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
// expanded by expand, skipping NULL/empty geometries, straight from the
// stored tuples (Table.ScanMBR) without decoding any geometry. buf is
// sized once from the table's row count.
func collectMBRs(tbl Table, col int, expand float64, buf *storage.MBRBuf) error {
	*buf = newMBRBuf(tbl.RowCount())
	return tbl.ScanMBR(col, func(id RowID, env geom.Rect) bool {
		if expand != 0 {
			env = env.Expand(expand)
		}
		if !env.IsEmpty() {
			buf.Append(int64(id), env.MinX, env.MinY, env.MaxX, env.MaxY)
		}
		return true
	})
}

// collectOuter is the first half of a build: it collects the outer
// side and deduplicates its windows (dedupOuter). When the state
// supplies stage 0's rows, a decoding scan fills outerRows, and outer
// gets, for every row whose window is not empty, that window keyed by
// the row's index: the envelope of its decoded geometry expanded
// exactly as evalWindow expands it, so no probe looks a window up.
// workers decode contiguous heap partitions side by side, as a parallel
// stage 0 would, and their parts concatenate in partition order, which
// is RowID order. Otherwise the envelopes come decode-free from the
// stored tuples (collectMBRs).
func (st *pbsmState) collectOuter(spec *pbsmSpec, workers int) error {
	if spec.outerAt == 0 {
		if err := collectMBRs(spec.outer, spec.outerCol, spec.expand, &st.outer); err != nil {
			return err
		}
		st.dedupOuter()
		return nil
	}
	// Each worker decodes one heap partition; part 0, sized for the
	// whole table, then takes the others' rows in partition order.
	n := spec.outer.RowCount()
	parts := make([]pbsmRows, workers)
	err := runShards(workers, func(w int, _ emitFn) error {
		size := n / workers
		if w == 0 {
			size = n
		}
		parts[w] = newPBSMRows(spec.outer, spec.outerNeed, size)
		return scanRows(spec.outer, w, workers, spec.outerNeed, func(_ RowID, row []storage.Value) error {
			return parts[w].add(row)
		})
	}, func(int) emitFn { return nil })
	if err != nil {
		return err
	}
	st.outerRows = parts[0]
	for k := 1; k < workers; k++ {
		st.outerRows.append(&parts[k])
	}
	geo := st.outerRows.column(spec.outerCol)
	if geo == nil {
		return fmt.Errorf("sql: PBSM outer geometry column %d is not projected", spec.outerCol)
	}
	st.outer = newMBRBuf(len(geo.geoms))
	for i, g := range geo.geoms {
		if g != nil {
			if env := g.Envelope().Expand(spec.expand); !env.IsEmpty() {
				st.outer.Append(int64(i), env.MinX, env.MinY, env.MaxX, env.MaxY)
			}
		}
	}
	st.outerPos = make([]int32, st.outerRows.n)
	for i := range st.outerPos {
		st.outerPos[i] = -1
	}
	st.dedupOuter()
	return nil
}

// newMBRBuf returns an empty buffer with room for n envelopes.
func newMBRBuf(n int) storage.MBRBuf {
	return storage.MBRBuf{IDs: make([]int64, 0, n), MinX: make([]float64, 0, n),
		MinY: make([]float64, 0, n), MaxX: make([]float64, 0, n), MaxY: make([]float64, 0, n)}
}

// slot probes the outer-position table for w: the position of the
// equal envelope, or -1 and the empty slot where w would go. Bounds
// compare with ==, so -0 hashes as +0.
func (st *pbsmState) slot(w geom.Rect) (int32, int) {
	mix := func(h uint64, v float64) uint64 {
		if v == 0 {
			v = 0
		}
		return (h ^ math.Float64bits(v)) * 0x9e3779b97f4a7c15
	}
	hash := mix(mix(mix(mix(0, w.MinX), w.MinY), w.MaxX), w.MaxY)
	o, mask := &st.outer, len(st.slots)-1
	for h := int(hash >> st.slotShift); ; h = (h + 1) & mask {
		s := st.slots[h]
		if s == 0 {
			return -1, h
		}
		if k := s - 1; o.MinX[k] == w.MinX && o.MinY[k] == w.MinY && o.MaxX[k] == w.MaxX && o.MaxY[k] == w.MaxY {
			return k, h
		}
	}
}

// dedupOuter compacts st.outer in place to its distinct envelopes, in
// first-seen order, and builds the table over them at most half full:
// rows sharing an envelope share a candidate run. Few do on the TIGER
// layers: at medium scale 3 434 of pointlm's 3 456 envelopes are
// distinct, and every arealm, areawater, parcels and edges envelope is.
// When the state holds the outer rows, it records each row's outer
// position.
func (st *pbsmState) dedupOuter() {
	o := &st.outer
	size := bits.Len(uint(2 * o.Len()))
	st.slots = make([]int32, 1<<size)
	st.slotShift = uint(64 - size)
	n := 0
	for i := range o.IDs {
		w := geom.Rect{MinX: o.MinX[i], MinY: o.MinY[i], MaxX: o.MaxX[i], MaxY: o.MaxY[i]}
		k, h := st.slot(w)
		if k < 0 {
			k = int32(n)
			st.slots[h] = k + 1
			o.MinX[n], o.MinY[n], o.MaxX[n], o.MaxY[n] = w.MinX, w.MinY, w.MaxX, w.MaxY
			n++
		}
		if st.outerPos != nil {
			st.outerPos[o.IDs[i]] = k
		}
	}
	o.IDs, o.MinX, o.MinY, o.MaxX, o.MaxY = o.IDs[:n], o.MinX[:n], o.MinY[:n], o.MaxX[:n], o.MaxY[:n]
}

// pbsmGrid is a build's uniform grid over the joint extent.
type pbsmGrid struct {
	extent geom.Rect
	gx, gy int
	cw, ch float64
}

func (g *pbsmGrid) cellX(x float64) int {
	if g.gx == 1 || g.cw <= 0 {
		return 0
	}
	return min(max(int((x-g.extent.MinX)/g.cw), 0), g.gx-1)
}

func (g *pbsmGrid) cellY(y float64) int {
	if g.gy == 1 || g.ch <= 0 {
		return 0
	}
	return min(max(int((y-g.extent.MinY)/g.ch), 0), g.gy-1)
}

// assign replicates each envelope of buf into every cell its clamped
// span covers, visiting them in order: cell c's run is
// items[off[c]:off[c+1]]. Envelopes outside the joint extent can never
// pair up. A counting pass sizes the runs, so the build allocates the
// same few arrays at any input size.
func (g *pbsmGrid) assign(buf *storage.MBRBuf, order []int32) (off, items []int32) {
	visit := func(fn func(c int, i int32)) {
		for _, i := range order {
			if buf.MinX[i] > g.extent.MaxX || buf.MaxX[i] < g.extent.MinX ||
				buf.MinY[i] > g.extent.MaxY || buf.MaxY[i] < g.extent.MinY {
				continue
			}
			x0, x1 := g.cellX(buf.MinX[i]), g.cellX(buf.MaxX[i])
			for y, y1 := g.cellY(buf.MinY[i]), g.cellY(buf.MaxY[i]); y <= y1; y++ {
				for x := x0; x <= x1; x++ {
					fn(y*g.gx+x, i)
				}
			}
		}
	}
	off = make([]int32, g.gx*g.gy+1)
	visit(func(c int, _ int32) { off[c+1]++ })
	for c := 1; c < len(off); c++ {
		off[c] += off[c-1]
	}
	items = make([]int32, off[len(off)-1])
	visit(func(c int, i int32) {
		items[off[c]] = i
		off[c]++
	})
	// Each off[c] now ends run c; shift them back to starts.
	copy(off[1:], off[:len(off)-1])
	off[0] = 0
	return off, items
}

// byMinX returns buf's positions ordered by envelope min-x, ties by
// position. assign visits envelopes in this order, so every cell run is
// already sorted for the sweep.
func byMinX(buf *storage.MBRBuf) []int32 {
	order := make([]int32, buf.Len())
	for i := range order {
		order[i] = int32(i)
	}
	minX := buf.MinX
	slices.SortFunc(order, func(p, q int32) int {
		return cmp.Or(cmp.Compare(minX[p], minX[q]), cmp.Compare(p, q))
	})
	return order
}

// pbsmPair is one candidate (outer position, inner position) pair
// emitted by a cell sweep.
type pbsmPair struct {
	a, b int32
}

// sweepPBSM completes a state whose outer side is collected
// (collectOuter) into the candidate index: collect the inner envelopes,
// grid both sides, sweep each cell (cells fan out across the worker
// pool) once to count the kept pairs and once to write them, and deal
// the pairs out into the per-outer-position candidate runs. Counting
// first sizes every array exactly, so a build allocates the same few
// objects at any size.
func (r *Runner) sweepPBSM(st *pbsmState, spec *pbsmSpec) error {
	if err := collectMBRs(spec.inner, spec.innerCol, 0, &st.inner); err != nil {
		return err
	}
	if !slices.IsSorted(st.inner.IDs) {
		// Build positions, and so emission order, follow RowID order.
		return fmt.Errorf("sql: PBSM inner envelope scan is not in RowID order")
	}
	extent := st.outer.Bounds().Intersect(st.inner.Bounds())
	if extent.IsEmpty() {
		// Disjoint extents: no pair can exist; every run stays empty.
		st.index(nil)
		return nil
	}
	g := &pbsmGrid{extent: extent, gx: spec.gx, gy: spec.gy}
	if extent.Width() <= 0 {
		g.gx = 1
	}
	if extent.Height() <= 0 {
		g.gy = 1
	}
	g.cw, g.ch = extent.Width()/float64(g.gx), extent.Height()/float64(g.gy)
	st.cells = g.gx * g.gy
	aOff, aItems := g.assign(&st.outer, byMinX(&st.outer))
	bOff, bItems := g.assign(&st.inner, byMinX(&st.inner))

	// Each worker sweeps a contiguous range of cells; cell c's kept
	// pairs land at pairs[per[c]:per[c+1]], so the pairs come out in
	// cell order at any parallelism.
	nw := min(r.par, st.cells)
	if st.cells < 8 || nw < 1 {
		nw = 1
	}
	per := make([]int, st.cells+1)
	dropCounts := make([]int64, nw)
	var pairs []pbsmPair
	sweepCells := func(w int, _ emitFn) error {
		for c := w * st.cells / nw; c < (w+1)*st.cells/nw; c++ {
			la, lb := aItems[aOff[c]:aOff[c+1]], bItems[bOff[c]:bOff[c+1]]
			if len(la) == 0 || len(lb) == 0 {
				continue
			}
			if pairs == nil {
				n, drops := g.sweep(&st.outer, &st.inner, la, lb, c%g.gx, c/g.gx, nil)
				per[c+1], dropCounts[w] = n, dropCounts[w]+drops
			} else {
				g.sweep(&st.outer, &st.inner, la, lb, c%g.gx, c/g.gx, pairs[per[c]:per[c+1]])
			}
		}
		return nil
	}
	noSink := func(int) emitFn { return nil }
	_ = runShards(nw, sweepCells, noSink) // a sweep cannot fail
	for c := 1; c < len(per); c++ {
		per[c] += per[c-1]
	}
	pairs = make([]pbsmPair, per[st.cells])
	_ = runShards(nw, sweepCells, noSink)
	for _, d := range dropCounts {
		st.drops += d
	}
	st.index(pairs)
	return nil
}

// index deals the kept pairs out into the candidate runs, counting them
// first so that cand is allocated once, and sorts each run ascending.
func (st *pbsmState) index(pairs []pbsmPair) {
	st.off = make([]int32, st.outer.Len()+1)
	for _, p := range pairs {
		st.off[p.a+1]++
	}
	for k := 1; k < len(st.off); k++ {
		st.off[k] += st.off[k-1]
	}
	st.cand = make([]int32, len(pairs))
	for _, p := range pairs {
		st.cand[st.off[p.a]] = p.b
		st.off[p.a]++
	}
	// Each off[k] now ends run k; shift them back to starts.
	copy(st.off[1:], st.off[:len(st.off)-1])
	st.off[0] = 0
	for k := 0; k+1 < len(st.off); k++ {
		slices.Sort(st.cand[st.off[k]:st.off[k+1]])
	}
}

// sweep runs the x-sorted plane sweep over one cell's two runs. Both
// are sorted by min-x; advancing the side with the smaller min-x and
// scanning the other while x-ranges overlap visits each
// envelope-intersecting pair exactly once. The reference-point rule
// then keeps a pair only in the cell owning the top-left corner of the
// envelope intersection, so pairs replicated into several cells are
// kept once globally. It writes the kept pairs to out unless out is nil
// and returns how many it kept and dropped.
func (g *pbsmGrid) sweep(ua, ub *storage.MBRBuf, la, lb []int32, cx, cy int,
	out []pbsmPair) (n int, drops int64) {

	keep := func(ai, bi int32) {
		if ua.MinY[ai] > ub.MaxY[bi] || ub.MinY[bi] > ua.MaxY[ai] {
			return
		}
		rx := math.Max(ua.MinX[ai], ub.MinX[bi])
		ry := math.Max(ua.MinY[ai], ub.MinY[bi])
		if g.cellX(rx) != cx || g.cellY(ry) != cy {
			drops++
			return
		}
		if out != nil {
			out[n] = pbsmPair{ai, bi}
		}
		n++
	}
	i, j := 0, 0
	for i < len(la) && j < len(lb) {
		if ua.MinX[la[i]] <= ub.MinX[lb[j]] {
			ai := la[i]
			for k := j; k < len(lb) && ub.MinX[lb[k]] <= ua.MaxX[ai]; k++ {
				keep(ai, lb[k])
			}
			i++
		} else {
			bi := lb[j]
			for k := i; k < len(la) && ua.MinX[la[k]] <= ub.MaxX[bi]; k++ {
				keep(la[k], bi)
			}
			j++
		}
	}
	return n, drops
}

// run returns the candidate run of outer position k, ascending; none
// for k < 0.
func (st *pbsmState) run(k int32) []int32 {
	if k < 0 {
		return nil
	}
	return st.cand[st.off[k]:st.off[k+1]]
}

// candidates returns the inner positions whose envelopes may meet the
// probe window w, ascending: the run of w's outer position, or, for a
// window absent from the build snapshot (a row inserted between build
// and probe), a flat envelope-overlap scan, still candidate-exact.
func (st *pbsmState) candidates(w geom.Rect) []int32 {
	if k, _ := st.slot(w); k >= 0 {
		return st.run(k)
	}
	return st.linear(w)
}

// linear is candidates' fallback scan.
func (st *pbsmState) linear(w geom.Rect) []int32 {
	var ps []int32
	b := &st.inner
	for i := range b.IDs {
		if b.MinX[i] <= w.MaxX && w.MinX <= b.MaxX[i] &&
			b.MinY[i] <= w.MaxY && w.MinY <= b.MaxY[i] {
			ps = append(ps, int32(i))
		}
	}
	return ps
}

// innerEnv returns the stored envelope of inner position i.
func (st *pbsmState) innerEnv(i int32) geom.Rect {
	b := &st.inner
	return geom.Rect{MinX: b.MinX[i], MinY: b.MinY[i], MaxX: b.MaxX[i], MaxY: b.MaxY[i]}
}

// pbsmKey identifies a cacheable sweep state: the physical tables and
// join columns, the window expansion, the grid, the refine mode (it
// decides whether inner geometries are pre-prepared) and the projected
// column sets of the rows it stores: the inner stage's, and stage 0's
// when it holds the outer rows ("" when it does not).
type pbsmKey struct {
	outer, inner       Table
	outerCol, innerCol int
	expand             float64
	gx, gy             int
	mode               byte
	needKey, outerKey  string
}

// pbsmCacheMax bounds the runner's state cache; at the cap the whole
// map is dropped (states are cheap to rebuild relative to churn logic).
const pbsmCacheMax = 16

// pbsmSpecKey derives the cache key.
func pbsmSpecKey(spec *pbsmSpec, need []bool) pbsmKey {
	mode := byte(0)
	if spec.refineFC != nil {
		mode = 1
		if spec.refineDWithin {
			mode = 2
		}
	}
	key := pbsmKey{
		outer: spec.outer, inner: spec.inner,
		outerCol: spec.outerCol, innerCol: spec.innerCol,
		expand: spec.expand, gx: spec.gx, gy: spec.gy,
		mode: mode, needKey: needString(need),
	}
	if spec.outerAt > 0 {
		key.outerKey = "+" + needString(spec.outerNeed)
	}
	return key
}

// needString encodes a column projection as a map key.
func needString(need []bool) string {
	nb := make([]byte, len(need))
	for i, n := range need {
		if n {
			nb[i] = 1
		}
	}
	return string(nb)
}

// acquirePBSM returns the sweep state for the spec: from the runner's
// cache, complete, when both tables' data versions still match the
// state's, else a new one holding only its outer side (collectOuter),
// which completePBSM finishes on the stage's first probe. A plan whose
// state supplies stage 0's rows acquires it before stage 0 runs, so a
// statement whose outer rows all fail stage 0's filters never reads the
// inner table. Versions are read before the build, so a mutation racing
// it at worst stamps the state stale and forces a rebuild on the next
// statement — never a silently reused stale index.
func (r *Runner) acquirePBSM(spec *pbsmSpec, need []bool) (*pbsmState, error) {
	key := pbsmSpecKey(spec, need)
	outerVer, innerVer := spec.outer.DataVersion(), spec.inner.DataVersion()
	r.pbsmMu.Lock()
	st := r.pbsmCache[key]
	r.pbsmMu.Unlock()
	if st != nil && st.outerVer == outerVer && st.innerVer == innerVer {
		r.pbsmHits.Add(1)
		r.pbsmCells.Add(int64(st.cells))
		r.pbsmDedup.Add(st.drops)
		return st, nil
	}
	workers := r.par
	if spec.outer.RowCount() < parallelMinRows {
		workers = 1
	}
	st = &pbsmState{outerVer: outerVer, innerVer: innerVer}
	if err := st.collectOuter(spec, workers); err != nil {
		return nil, err
	}
	return st, nil
}

// completePBSM finishes a state acquirePBSM built — the sweep, then the
// inner rows — and caches it; a state served from the cache is complete
// already. The cells/dedup counters advance on every acquisition of a
// state that is probed, so per-statement deltas stay meaningful whether
// or not the build was reused.
func (r *Runner) completePBSM(st *pbsmState, spec *pbsmSpec, need []bool) error {
	if st.complete {
		return nil
	}
	if err := r.sweepPBSM(st, spec); err != nil {
		return err
	}
	if err := st.materialize(spec.inner, spec, need); err != nil {
		return err
	}
	if spec.outerAt > 0 {
		st.outer, st.slots = storage.MBRBuf{}, nil
	}
	st.complete = true
	r.pbsmCells.Add(int64(st.cells))
	r.pbsmDedup.Add(st.drops)
	key := pbsmSpecKey(spec, need)
	r.pbsmMu.Lock()
	if r.pbsmCache == nil || len(r.pbsmCache) >= pbsmCacheMax {
		r.pbsmCache = make(map[pbsmKey]*pbsmState, pbsmCacheMax)
	}
	r.pbsmCache[key] = st
	r.pbsmMu.Unlock()
	return nil
}

// probePBSM is the probe side of a PBSM join stage: find the outer
// row's candidate run — stored by the build for a row stage 0 read from
// the state, else through the window the INL path would probe with —
// and either emit candidates through the stage filters (safe mode) or
// refine them in-probe (fast mode, join conjunct stripped from the
// filters). full is the stage's scratch tuple holding the outer prefix;
// each emitted candidate's inner columns are copied in at lo, as an
// index nested loop copies its fetched rows (innerReader).
func (op *joinOp) probePBSM(full []storage.Value, emit emitFn) (bool, error) {
	st, path := op.pbsm, &op.path
	var cands []int32
	if at := path.pbsm.outerAt; at > 0 {
		cands = st.run(st.outerPos[full[at].Int])
	} else {
		window, err := path.evalWindow(full, op.r.reg)
		if err != nil {
			return false, err
		}
		if window.IsEmpty() {
			return true, nil
		}
		cands = st.candidates(window)
	}
	if len(cands) == 0 {
		return true, nil
	}
	if path.pbsm.refineFC != nil {
		return op.pbsmRefine(full, cands, emit)
	}
	for _, i := range cands {
		if cont, err := op.emitInner(full, i, emit); err != nil || !cont {
			return cont, err
		}
	}
	return true, nil
}

// emitInner copies the inner row at build position i into full at lo
// and emits full.
func (op *joinOp) emitInner(full []storage.Value, i int32, emit emitFn) (bool, error) {
	op.pbsm.rows.copyTo(full[op.lo:], int(i))
	return emit(full)
}

// pbsmRefine evaluates the stripped join conjunct over the candidate
// run — against the outer geometry prepared once per probe (topology
// predicates), through the same preparedCall.decide as every prepared
// filter, or through the threshold kernel (constant ST_DWithin) — with
// the same NULL and prep-hit semantics as the per-row path, producing
// the same survivors. The inner operand is a bare GEOMETRY column
// reference (findPBSMConjunct guarantees it), so it is read straight
// off the stored inner geometries, and only survivors are copied into
// full.
func (op *joinOp) pbsmRefine(full []storage.Value, cands []int32, emit emitFn) (bool, error) {
	r, st, spec := op.r, op.pbsm, op.path.pbsm
	ov, err := Eval(spec.refineFC.args[spec.refineOuterArg], full, r.reg)
	if err != nil {
		return false, err
	}
	og := geomOf(ov)
	if og == nil {
		// A NULL outer operand makes the predicate NULL for every
		// candidate: nothing survives. (Unreachable after a non-empty
		// window, kept for safety.)
		return true, nil
	}
	// A nil inner geometry is a NULL operand: the predicate is NULL and
	// the candidate dropped.
	if spec.refineDWithin {
		oenv := og.Envelope()
		for _, i := range cands {
			g := st.geoms[i]
			if g == nil || !geom.DWithinEnv(og, oenv, g, st.innerEnv(i), spec.expand) {
				continue
			}
			if cont, err := op.emitInner(full, i, emit); err != nil || !cont {
				return cont, err
			}
		}
		return true, nil
	}
	// The outer geometry is prepared on the first candidate with a
	// geometry. In small-inner mode each inner geometry was prepared
	// once at materialization too, so each pair evaluates between two
	// prepared structures with no per-candidate decomposition.
	pc := preparedCall{pred: spec.refinePred, constIdx: spec.refineOuterArg}
	evals := 0
	for _, i := range cands {
		g := st.geoms[i]
		if g == nil {
			continue
		}
		if pc.p == nil {
			pc.p = topo.Prepare(og)
		}
		evals++
		var hit bool
		switch {
		case st.preps == nil:
			hit = pc.decide(g)
		case pc.constIdx == 0:
			hit = topo.EvalPrepared(pc.pred, pc.p, st.preps[i])
		default:
			hit = topo.EvalPrepared(pc.pred, st.preps[i], pc.p)
		}
		if !hit {
			continue
		}
		if cont, err := op.emitInner(full, i, emit); err != nil || !cont {
			r.reg.prepHits.Add(int64(evals))
			return cont, err
		}
	}
	r.reg.prepHits.Add(int64(evals))
	return true, nil
}
