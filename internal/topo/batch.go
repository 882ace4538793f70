package topo

import "jackpine/internal/geom"

// Batch entry points for the prepared kernel: one call evaluates a
// prepared constant side against every surviving candidate of a column
// batch, amortizing call dispatch on top of the decomposition and index
// reuse Prepare already provides. Each result is identical to the
// corresponding per-row method — the batch forms route through the same
// evalOp/relateOp kernel with a fresh operand per candidate. The
// pattern forms compute full matrices; the named predicates may stop
// the relate walk early, with the same booleans, exactly as per row.
//
// bs and out must have equal length; out[i] receives the result for
// bs[i]. A nil element evaluates like the per-row form (nil operand).

// EvalBatch evaluates pred(p.Geometry(), bs[i]) for every candidate.
func (p *Prepared) EvalBatch(pred Predicate, bs []geom.Geometry, out []bool) {
	for i, b := range bs {
		bo := newOperand(b)
		out[i] = evalOp(pred, &p.op, &bo)
	}
}

// EvalBatchReversed evaluates pred(bs[i], p.Geometry()) for every
// candidate (the prepared geometry as second operand of a
// non-symmetric predicate).
func (p *Prepared) EvalBatchReversed(pred Predicate, bs []geom.Geometry, out []bool) {
	for i, b := range bs {
		bo := newOperand(b)
		out[i] = evalOp(pred, &bo, &p.op)
	}
}

// RelatePatternBatch reports pattern matches of the DE-9IM matrices of
// (p.Geometry(), bs[i]).
func (p *Prepared) RelatePatternBatch(bs []geom.Geometry, pattern string, out []bool) {
	for i, b := range bs {
		bo := newOperand(b)
		out[i] = relateOp(&p.op, &bo, noExit).Matches(pattern)
	}
}

// RelatePatternBatchReversed reports pattern matches of the DE-9IM
// matrices of (bs[i], p.Geometry()).
func (p *Prepared) RelatePatternBatchReversed(bs []geom.Geometry, pattern string, out []bool) {
	for i, b := range bs {
		bo := newOperand(b)
		out[i] = relateOp(&bo, &p.op, noExit).Matches(pattern)
	}
}
