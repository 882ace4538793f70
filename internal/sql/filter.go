package sql

import (
	"jackpine/internal/storage"
	"jackpine/internal/topo"
)

// One filter evaluator. Each stage's residual filter conjuncts compile
// once per plan into a filterPlan; every worker evaluates them through
// its own filterExec, whose keepAt decides one conjunct over one row.
// A join stage (execSelect's filterRows) asks keep, all conjuncts in
// order, per row; stage 0's batch cascade (batch.go) asks keepAt
// column-major over a batch's selection vector. Both therefore share
// one set of NULL, type-error and prepared-kernel semantics:
//   - a compiled comparison (compare.go) runs without Eval;
//   - a call with a prepared constant side (callExpr.prep) evaluates
//     its variable operand and decides it through preparedCall;
//   - a join-stage topological call whose one operand is fixed by the
//     outer row prepares that operand once per probe (joinPrepSpec);
//   - any other top-level call evaluates its arguments into the
//     worker's buffer (Value has value semantics and registry functions
//     do not retain the slice), and any other shape goes through Eval.
//
// A prepared decision is counted in the worker's hits and added to the
// registry's prepHits when the driver flushes: once per row in a join
// stage, once per batch in the cascade.

// stageFilter is one compiled residual filter conjunct.
type stageFilter struct {
	expr Expr
	cmp  *comparator // a compiled comparison
	fc   *callExpr   // a top-level call
	// probe, for a join-stage topological call with one operand fixed
	// by the outer row, is the call's prepared shape without its
	// geometry: constIdx names the outer operand.
	probe *preparedCall
}

// filterPlan is one stage's compiled filters: built once per plan,
// read concurrently by every worker.
type filterPlan struct {
	reg     *Registry
	filters []stageFilter
}

// compileFilters compiles the residual filters of the stage at scope
// offset lo.
func (r *Runner) compileFilters(filters []Expr, lo int) *filterPlan {
	fp := &filterPlan{reg: r.reg}
	for _, f := range filters {
		sf := stageFilter{expr: f, cmp: compileComparison(f)}
		sf.fc, _ = f.(*callExpr)
		if sf.fc != nil && sf.fc.prep == nil {
			sf.probe = r.joinPrepSpec(sf.fc, lo)
		}
		fp.filters = append(fp.filters, sf)
	}
	return fp
}

// filterExec is one worker's evaluator of a stage's filters. Nothing
// here is shared.
type filterExec struct {
	plan *filterPlan
	args []storage.Value // argument buffer for plain calls
	// probes holds, per filter, the outer operand a probe shape
	// prepared for the current outer row (allocated on first use): pc.p
	// is nil until the probe's first row, failed when that operand is
	// not a geometry.
	probes []probeState
	hits   int64 // prepared decisions not yet added to prepHits
}

type probeState struct {
	pc     preparedCall
	failed bool
}

// exec returns a worker's evaluator.
func (fp *filterPlan) exec() *filterExec {
	return &filterExec{plan: fp}
}

// newProbe forgets the outer operands prepared for the previous outer
// row; a join stage calls it as each outer row enters.
func (fx *filterExec) newProbe() {
	clear(fx.probes)
}

// flush adds the counted prepared decisions to prepHits.
func (fx *filterExec) flush() {
	if fx.hits != 0 {
		fx.plan.reg.prepHits.Add(fx.hits)
		fx.hits = 0
	}
}

// keep reports whether the row passes every filter, in order.
func (fx *filterExec) keep(row []storage.Value) (bool, error) {
	for i := range fx.plan.filters {
		if ok, err := fx.keepAt(i, row); err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// keepAt reports whether the row passes filter i: false when the
// filter is NULL or false over it.
func (fx *filterExec) keepAt(i int, row []storage.Value) (bool, error) {
	f := &fx.plan.filters[i]
	reg := fx.plan.reg
	switch {
	case f.cmp != nil:
		return f.cmp.keep(row)
	case f.fc == nil:
		v, err := Eval(f.expr, row, reg)
		return err == nil && truthy(v), err
	case f.fc.prep != nil:
		return fx.decide(f.fc.prep, f.fc, row)
	case f.probe != nil:
		if pc := fx.prepareOuter(i, row); pc != nil {
			return fx.decide(pc, f.fc, row)
		}
	}
	if cap(fx.args) < len(f.fc.args) {
		fx.args = make([]storage.Value, len(f.fc.args))
	}
	args := fx.args[:len(f.fc.args)]
	for k, a := range f.fc.args {
		v, err := Eval(a, row, reg)
		if err != nil {
			return false, err
		}
		args[k] = v
	}
	v, err := f.fc.fn(args)
	return err == nil && truthy(v), err
}

// decide evaluates a prepared call over the row: a NULL or nil
// variable operand drops the row, exactly as the unprepared call's
// NULL result would.
func (fx *filterExec) decide(pc *preparedCall, fc *callExpr, row []storage.Value) (bool, error) {
	g, err := pc.operand(fc, row, fx.plan.reg)
	if g == nil {
		return false, err
	}
	fx.hits++
	return pc.decide(g), nil
}

// prepareOuter returns filter i's call prepared on the current outer
// row's operand, preparing it on the probe's first inner row: an empty
// inner side never pays for (or surfaces errors from) the outer one.
// It returns nil when that operand is not a geometry; the filter then
// evaluates plainly, which reproduces the exact error and NULL
// precedence.
func (fx *filterExec) prepareOuter(i int, row []storage.Value) *preparedCall {
	if fx.probes == nil {
		fx.probes = make([]probeState, len(fx.plan.filters))
	}
	ps := &fx.probes[i]
	if ps.pc.p == nil && !ps.failed {
		f := &fx.plan.filters[i]
		v, err := Eval(f.fc.args[f.probe.constIdx], row, fx.plan.reg)
		if g := geomOf(v); err == nil && g != nil {
			ps.pc = *f.probe
			ps.pc.p = topo.Prepare(g)
		} else {
			ps.failed = true
		}
	}
	if ps.failed {
		return nil
	}
	return &ps.pc
}
