package sql

import (
	"jackpine/internal/geom"
	"jackpine/internal/storage"
	"jackpine/internal/topo"
)

// preparedCall is the prepared-constant state of one bound topological
// call (callExpr.prep): the constant geometry operand decomposed and
// indexed once, plus enough of the call shape to evaluate the remaining
// variable operand per row. A join stage's per-probe prepared filter
// (joinPrepSpec) and PBSM's refine use the same shape over an outer
// geometry. The fast path reproduces the registry implementation's
// semantics exactly — same NULL propagation, same error precedence,
// same truth values — it only swaps the kernel entry point for the
// prepared one.
type preparedCall struct {
	p        *topo.Prepared
	pred     topo.Predicate
	pattern  string // ST_RELATE only
	relate   bool
	constIdx int // which of Args[0], Args[1] is the prepared constant
}

// eval evaluates the call over a row via the prepared constant.
func (pc *preparedCall) eval(fc *callExpr, row []storage.Value, reg *Registry) (storage.Value, error) {
	g, err := pc.operand(fc, row, reg)
	if g == nil {
		return storage.Null(), err
	}
	reg.prepHits.Add(1)
	return storage.NewBool(pc.decide(g)), nil
}

// operand evaluates the call's variable operand over the row. It is
// nil, with no error, when the operand is NULL or a nil geometry (the
// call is NULL), and an error when it is not a geometry.
func (pc *preparedCall) operand(fc *callExpr, row []storage.Value, reg *Registry) (geom.Geometry, error) {
	varIdx := 1 - pc.constIdx
	v, err := Eval(fc.args[varIdx], row, reg)
	if err != nil {
		return nil, err
	}
	fn := "predicate"
	if pc.relate {
		fn = "ST_RELATE"
	}
	return geomArg(v, varIdx, fn)
}

// decide evaluates the call with the non-nil geometry g as its variable
// operand: the one place the relate and orientation cases meet the
// prepared kernel.
func (pc *preparedCall) decide(g geom.Geometry) bool {
	switch {
	case pc.relate && pc.constIdx == 0:
		return pc.p.RelatePattern(g, pc.pattern)
	case pc.relate:
		return pc.p.RelatePatternReversed(g, pc.pattern)
	case pc.constIdx == 0:
		return pc.p.Eval(pc.pred, g)
	}
	return pc.p.EvalReversed(pc.pred, g)
}

// geomOf returns a value's geometry: nil unless it is a GEOMETRY.
func geomOf(v storage.Value) geom.Geometry {
	if v.Type != storage.TypeGeom {
		return nil
	}
	return v.Geom
}

// prepareCalls prepares the constant geometry side of every topological
// predicate call in the bound expressions (the literal query window of
// the benchmark micro queries). Runs once per execution, on its private
// tree, before any parallel fan-out; workers only read the result.
func (r *Runner) prepareCalls(exprs []Expr) {
	if !r.prep || r.reg.mbr {
		return
	}
	for _, e := range exprs {
		walkExpr(e, func(x Expr) {
			if fc, ok := x.(*callExpr); ok && fc.prep == nil {
				r.tryPrepare(fc)
			}
		})
	}
}

// tryPrepare sets the call's prepared state when exactly one
// geometry operand is constant (no column references) and evaluates
// cleanly to a geometry. Any irregularity — both sides constant,
// neither, evaluation error, NULL, non-geometry, invalid ST_RELATE
// pattern — leaves the call on the unprepared path, which reproduces
// the lazy per-row semantics (a statement whose scan yields no rows
// must not surface the constant's evaluation error).
func (r *Runner) tryPrepare(fc *callExpr) {
	if pred, ok := topoPredicates[fc.src.Name]; ok && len(fc.args) == 2 {
		ci, ok := constGeomSide(fc.args[0], fc.args[1])
		if !ok {
			return
		}
		g, ok := r.evalConstGeom(fc.args[ci])
		if !ok {
			return
		}
		fc.prep = &preparedCall{p: topo.Prepare(g), pred: pred, constIdx: ci}
		return
	}
	if fc.src.Name == "ST_RELATE" && len(fc.args) == 3 {
		pat, ok := r.constRelatePattern(fc.args[2])
		if !ok {
			return
		}
		ci, ok := constGeomSide(fc.args[0], fc.args[1])
		if !ok {
			return
		}
		g, ok := r.evalConstGeom(fc.args[ci])
		if !ok {
			return
		}
		fc.prep = &preparedCall{p: topo.Prepare(g), pattern: pat, relate: true, constIdx: ci}
	}
}

// constGeomSide picks the constant operand when exactly one of the two
// has no column references.
func constGeomSide(a0, a1 Expr) (int, bool) {
	c0, c1 := maxRef(a0) < 0, maxRef(a1) < 0
	switch {
	case c0 && !c1:
		return 0, true
	case c1 && !c0:
		return 1, true
	}
	return 0, false
}

// evalConstGeom evaluates a reference-free expression to a non-nil
// geometry, reporting false on error, NULL or a non-geometry value.
func (r *Runner) evalConstGeom(e Expr) (geom.Geometry, bool) {
	v, err := Eval(e, nil, r.reg)
	g := geomOf(v)
	return g, err == nil && g != nil
}

// constRelatePattern evaluates a reference-free ST_RELATE pattern
// argument, reporting false unless it is valid text.
func (r *Runner) constRelatePattern(e Expr) (string, bool) {
	if maxRef(e) >= 0 {
		return "", false
	}
	v, err := Eval(e, nil, r.reg)
	if err != nil || v.Type != storage.TypeText || !topo.ValidPattern(v.Text) {
		return "", false
	}
	return v.Text, true
}

// joinPrepSpec returns the prepared shape, without its geometry, of a
// join stage's residual filter (stage offset lo > 0) that is a
// topological call whose one geometry operand reads only outer stages
// (offsets < lo) and whose other operand reads this stage; constIdx
// names the outer operand. Per probe — i.e. per outer row — that
// operand is evaluated once, prepared, and reused across every inner
// row of the probe (filterExec.prepareOuter). nil when preparation is
// disabled or the call does not qualify.
func (r *Runner) joinPrepSpec(fc *callExpr, lo int) *preparedCall {
	if !r.prep || r.reg.mbr || lo == 0 {
		return nil
	}
	var pc preparedCall
	if pred, ok := topoPredicates[fc.src.Name]; ok && len(fc.args) == 2 {
		pc.pred = pred
	} else if fc.src.Name == "ST_RELATE" && len(fc.args) == 3 {
		pat, ok := r.constRelatePattern(fc.args[2])
		if !ok {
			return nil
		}
		pc.pattern, pc.relate = pat, true
	} else {
		return nil
	}
	oi, ok := outerGeomSide(fc.args[0], fc.args[1], lo)
	if !ok {
		return nil
	}
	pc.constIdx = oi
	return &pc
}

// outerGeomSide picks the operand fixed by the outer prefix: all of
// its references below lo (with at least one), while the other operand
// reads the current stage.
func outerGeomSide(a0, a1 Expr, lo int) (int, bool) {
	outer0 := maxRef(a0) >= 0 && refsInRange(a0, 0, lo)
	outer1 := maxRef(a1) >= 0 && refsInRange(a1, 0, lo)
	switch {
	case outer0 && maxRef(a1) >= lo:
		return 0, true
	case outer1 && maxRef(a0) >= lo:
		return 1, true
	}
	return 0, false
}
