package sql

import (
	"fmt"

	"jackpine/internal/geom"
	"jackpine/internal/storage"
	"jackpine/internal/topo"
)

// preparedCall is the prepared-constant state of one bound topological
// call (callExpr.prep): the constant geometry operand decomposed and indexed once,
// plus enough of the call shape to evaluate the remaining variable
// operand per row. The fast path reproduces the registry
// implementation's semantics exactly — same NULL propagation, same
// error precedence, same truth values — it only swaps the kernel entry
// point for the prepared one.
type preparedCall struct {
	p        *topo.Prepared
	pred     topo.Predicate
	pattern  string // ST_RELATE only
	relate   bool
	constIdx int // which of Args[0], Args[1] is the prepared constant
}

// eval evaluates the call over a row via the prepared constant.
func (pc *preparedCall) eval(fc *callExpr, row []storage.Value, reg *Registry) (storage.Value, error) {
	varIdx := 1 - pc.constIdx
	v, err := Eval(fc.args[varIdx], row, reg)
	if err != nil {
		return storage.Null(), err
	}
	fn := "predicate"
	if pc.relate {
		fn = "ST_RELATE"
	}
	var g geom.Geometry
	if !v.IsNull() {
		if v.Type != storage.TypeGeom {
			return storage.Null(), fmt.Errorf("sql: %s: argument %d is %s, want GEOMETRY", fn, varIdx+1, v.Type)
		}
		g = v.Geom
	}
	if g == nil {
		return storage.Null(), nil
	}
	reg.prepHits.Add(1)
	if pc.relate {
		if pc.constIdx == 0 {
			return storage.NewBool(pc.p.RelatePattern(g, pc.pattern)), nil
		}
		return storage.NewBool(pc.p.RelatePatternReversed(g, pc.pattern)), nil
	}
	if pc.constIdx == 0 {
		return storage.NewBool(pc.p.Eval(pc.pred, g)), nil
	}
	return storage.NewBool(pc.p.EvalReversed(pc.pred, g)), nil
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
	if err != nil || v.IsNull() || v.Type != storage.TypeGeom || v.Geom == nil {
		return nil, false
	}
	return v.Geom, true
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

// prepFilterSpec marks one residual filter of a join stage as an
// index-nested-loop spatial predicate: a top-level topological call
// whose one geometry operand reads only outer stages (offsets < lo)
// and whose other operand reads this stage. Per probe —
// i.e. per outer row — the outer operand is evaluated once, prepared,
// and reused across every inner row of that probe (see
// preparedFilter).
type prepFilterSpec struct {
	idx      int // position in the stage's filter list
	fc       *callExpr
	pred     topo.Predicate
	pattern  string
	relate   bool
	outerIdx int
}

// joinPrepSpecs analyzes a join stage's residual filters (stage offset
// lo > 0) for specialization candidates. Returns nil when preparation
// is disabled or nothing qualifies, in which case the stage evaluates
// filters on the shared plain path with zero per-invocation cost.
func (r *Runner) joinPrepSpecs(filters []Expr, lo int) []prepFilterSpec {
	if !r.prep || r.reg.mbr || lo == 0 {
		return nil
	}
	var specs []prepFilterSpec
	for i, f := range filters {
		fc, ok := f.(*callExpr)
		if !ok || fc.prep != nil {
			continue
		}
		spec := prepFilterSpec{idx: i, fc: fc}
		if pred, ok := topoPredicates[fc.src.Name]; ok && len(fc.args) == 2 {
			spec.pred = pred
		} else if fc.src.Name == "ST_RELATE" && len(fc.args) == 3 {
			pat, ok := r.constRelatePattern(fc.args[2])
			if !ok {
				continue
			}
			spec.pattern, spec.relate = pat, true
		} else {
			continue
		}
		oi, ok := outerGeomSide(fc.args[0], fc.args[1], lo)
		if !ok {
			continue
		}
		spec.outerIdx = oi
		specs = append(specs, spec)
	}
	return specs
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

// preparedFilter is one worker's evaluator for a marked filter. The
// outer operand is a bare column or a stage slot (hoist.go), so reading
// it here shares the one value the probe window and the select list
// see. The geometry is prepared lazily on the first inner row — an
// empty inner scan must not pay for (or surface errors from) the outer
// side, matching the unprepared path — and reused for the rest of the
// outer row's inner rows; the join stage resets the evaluator to its
// zero state, spec aside, per outer row. If the outer operand is not a
// geometry, every row falls back to plain Eval, which reproduces the
// exact error/NULL precedence.
type preparedFilter struct {
	spec           *prepFilterSpec // nil: the filter evaluates plainly
	inited, failed bool
	pc             preparedCall
}

func (pf *preparedFilter) eval(row []storage.Value, r *Runner) (storage.Value, error) {
	sp := pf.spec
	if !pf.inited {
		pf.inited = true
		v, err := Eval(sp.fc.args[sp.outerIdx], row, r.reg)
		if err != nil || v.IsNull() || v.Type != storage.TypeGeom || v.Geom == nil {
			pf.failed = true
		} else {
			pf.pc = preparedCall{
				p:        topo.Prepare(v.Geom),
				pred:     sp.pred,
				pattern:  sp.pattern,
				relate:   sp.relate,
				constIdx: sp.outerIdx,
			}
		}
	}
	if pf.failed {
		return Eval(sp.fc, row, r.reg)
	}
	return pf.pc.eval(sp.fc, row, r.reg)
}
