package topo

import "jackpine/internal/geom"

// operand is one side of a predicate evaluation: the geometry plus the
// values every predicate screen needs (envelope, emptiness) and its
// lazily computed decomposition. The unprepared predicates build two
// throwaway operands per call; Prepare caches one across calls.
type operand struct {
	g     geom.Geometry
	s     *shape
	env   geom.Rect
	empty bool
}

func newOperand(g geom.Geometry) operand {
	if g == nil {
		return operand{empty: true, env: geom.EmptyRect()}
	}
	return operand{g: g, env: g.Envelope(), empty: g.IsEmpty()}
}

func (o *operand) nilOrEmpty() bool { return o.g == nil || o.empty }

// shape returns the decomposition, computing it on first use. Prepared
// operands decompose (and index) at Prepare time, so concurrent readers
// never hit the lazy write.
func (o *operand) shape() *shape {
	if o.s == nil {
		o.s = decompose(o.g)
	}
	return o.s
}

// Prepared is a geometry preprocessed for repeated topological
// evaluation against many other geometries: the decomposition into
// points, segments and polygons is computed once, and large shapes
// carry bulk-loaded segment and point-location indexes. A Prepared is
// immutable after Prepare and safe for concurrent use.
//
// Every method returns exactly what the corresponding package-level
// function returns. Relate and the RelatePattern forms compute the full
// matrix, bit for bit, through the same kernel; Prepare only moves the
// per-call decomposition and index build to construction time. The
// named predicates may stop the relate walk as soon as their answer is
// fixed (see relateShapes), prepared or not, so their booleans are
// identical too. Against a prepared axis-aligned rectangle, Intersects
// and Disjoint first try the rectangle kernel (rect.go), which answers
// what relate answers without decomposing the other geometry.
type Prepared struct {
	op   operand
	rect *rectWindow // nil unless the geometry is an axis-aligned rectangle
}

// Prepare decomposes and indexes g for repeated evaluation.
func Prepare(g geom.Geometry) *Prepared {
	p := &Prepared{op: newOperand(g)}
	p.op.shape().index()
	p.rect = asRect(g, p.op.s.scale)
	return p
}

// Geometry returns the prepared geometry.
func (p *Prepared) Geometry() geom.Geometry { return p.op.g }

// Eval evaluates pred(p.Geometry(), b).
func (p *Prepared) Eval(pred Predicate, b geom.Geometry) bool {
	if v, ok := p.rectEval(pred, b, false); ok {
		return v
	}
	bo := newOperand(b)
	return evalOp(pred, &p.op, &bo)
}

// EvalReversed evaluates pred(a, p.Geometry()), for call sites where
// the prepared geometry is the second operand of a non-symmetric
// predicate.
func (p *Prepared) EvalReversed(pred Predicate, a geom.Geometry) bool {
	if v, ok := p.rectEval(pred, a, true); ok {
		return v
	}
	ao := newOperand(a)
	return evalOp(pred, &ao, &p.op)
}

// rectEval answers Intersects and Disjoint when the kernel decides.
func (p *Prepared) rectEval(pred Predicate, g geom.Geometry, rev bool) (v, ok bool) {
	if p.rect == nil || (pred != PredIntersects && pred != PredDisjoint) {
		return false, false
	}
	hit, ok := p.rect.intersects(g, rev)
	return hit == (pred == PredIntersects), ok
}

// EvalPrepared evaluates pred(a.Geometry(), b.Geometry()) with both
// operands prepared, for joins that reuse each side across many pairs:
// neither side is decomposed per call.
func EvalPrepared(pred Predicate, a, b *Prepared) bool {
	return evalOp(pred, &a.op, &b.op)
}

// Relate computes the DE-9IM matrix of (p.Geometry(), b).
func (p *Prepared) Relate(b geom.Geometry) Matrix {
	bo := newOperand(b)
	return relateOp(&p.op, &bo, noExit)
}

// RelateReversed computes the DE-9IM matrix of (a, p.Geometry()).
func (p *Prepared) RelateReversed(a geom.Geometry) Matrix {
	ao := newOperand(a)
	return relateOp(&ao, &p.op, noExit)
}

// RelatePattern reports whether Relate(b) matches the pattern.
func (p *Prepared) RelatePattern(b geom.Geometry, pattern string) bool {
	return p.Relate(b).Matches(pattern)
}

// RelatePatternReversed reports whether RelateReversed(a) matches the
// pattern.
func (p *Prepared) RelatePatternReversed(a geom.Geometry, pattern string) bool {
	return p.RelateReversed(a).Matches(pattern)
}
