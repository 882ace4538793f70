package topo

import "jackpine/internal/geom"

// Predicate identifies one of the named DE-9IM topological predicates.
type Predicate int

// The named topological predicates.
const (
	PredEquals Predicate = iota
	PredDisjoint
	PredIntersects
	PredTouches
	PredCrosses
	PredWithin
	PredContains
	PredOverlaps
	PredCovers
	PredCoveredBy
)

var predicateNames = [...]string{
	"Equals", "Disjoint", "Intersects", "Touches", "Crosses",
	"Within", "Contains", "Overlaps", "Covers", "CoveredBy",
}

// String returns the predicate's conventional name.
func (p Predicate) String() string {
	if int(p) < len(predicateNames) {
		return predicateNames[p]
	}
	return "Unknown"
}

// Eval evaluates the predicate exactly on the two geometries.
func (p Predicate) Eval(a, b geom.Geometry) bool {
	ao, bo := newOperand(a), newOperand(b)
	return evalOp(p, &ao, &bo)
}

// evalOp dispatches a predicate over prebuilt operands.
func evalOp(p Predicate, a, b *operand) bool {
	switch p {
	case PredEquals:
		return equalsOp(a, b)
	case PredDisjoint:
		return disjointOp(a, b)
	case PredIntersects:
		return intersectsOp(a, b)
	case PredTouches:
		return touchesOp(a, b)
	case PredCrosses:
		return crossesOp(a, b)
	case PredWithin:
		return withinOp(a, b)
	case PredContains:
		return withinOp(b, a)
	case PredOverlaps:
		return overlapsOp(a, b)
	case PredCovers:
		return coversOp(a, b)
	case PredCoveredBy:
		return coversOp(b, a)
	default:
		return false
	}
}

// Equals reports topological equality: the geometries occupy the same
// point set (orientation and vertex order are irrelevant).
func Equals(a, b geom.Geometry) bool {
	ao, bo := newOperand(a), newOperand(b)
	return equalsOp(&ao, &bo)
}

// Disjoint reports whether the geometries share no point.
func Disjoint(a, b geom.Geometry) bool { return !Intersects(a, b) }

// Intersects reports whether the geometries share at least one point.
func Intersects(a, b geom.Geometry) bool {
	ao, bo := newOperand(a), newOperand(b)
	return intersectsOp(&ao, &bo)
}

// Touches reports whether the geometries intersect only at their
// boundaries (their interiors are disjoint). It is always false for two
// points.
func Touches(a, b geom.Geometry) bool {
	ao, bo := newOperand(a), newOperand(b)
	return touchesOp(&ao, &bo)
}

// Crosses reports whether the geometries cross: the intersection has
// lower dimension than the maximum operand dimension, lies in both
// interiors, and is not equal to either geometry.
func Crosses(a, b geom.Geometry) bool {
	ao, bo := newOperand(a), newOperand(b)
	return crossesOp(&ao, &bo)
}

// Within reports whether a lies within b (every point of a is in b and
// their interiors intersect).
func Within(a, b geom.Geometry) bool {
	ao, bo := newOperand(a), newOperand(b)
	return withinOp(&ao, &bo)
}

// Contains reports whether a contains b: Within(b, a).
func Contains(a, b geom.Geometry) bool { return Within(b, a) }

// Overlaps reports whether the geometries overlap: same dimension,
// interiors intersect, and each has interior points outside the other.
func Overlaps(a, b geom.Geometry) bool {
	ao, bo := newOperand(a), newOperand(b)
	return overlapsOp(&ao, &bo)
}

// Covers reports whether every point of b lies in a. Unlike Contains it
// holds when b lies entirely on a's boundary.
func Covers(a, b geom.Geometry) bool {
	ao, bo := newOperand(a), newOperand(b)
	return coversOp(&ao, &bo)
}

// CoveredBy reports Covers(b, a).
func CoveredBy(a, b geom.Geometry) bool { return Covers(b, a) }

// RelatePattern reports whether the DE-9IM matrix of (a, b) matches the
// given pattern. The pattern must be valid per ValidPattern.
func RelatePattern(a, b geom.Geometry, pattern string) bool {
	return Relate(a, b).Matches(pattern)
}

// relateOp computes the DE-9IM matrix over operands, reusing any cached
// decomposition. With an exit set other than noExit the matrix may be
// partial, but the exit set's predicate reads the same answer from it.
func relateOp(a, b *operand, exit cellSet) Matrix {
	return relateShapes(a.shape(), b.shape(), exit)
}

func equalsOp(a, b *operand) bool {
	if !envHitOp(a, b) {
		return false
	}
	return relateOp(a, b, equalsExit).Matches("T*F**FFF*")
}

func disjointOp(a, b *operand) bool { return !intersectsOp(a, b) }

func intersectsOp(a, b *operand) bool {
	if !envHitOp(a, b) {
		return false
	}
	m := relateOp(a, b, intersectsExit)
	return m.Get(Interior, Interior) >= 0 ||
		m.Get(Interior, Boundary) >= 0 ||
		m.Get(Boundary, Interior) >= 0 ||
		m.Get(Boundary, Boundary) >= 0
}

func touchesOp(a, b *operand) bool {
	if !envHitOp(a, b) {
		return false
	}
	m := relateOp(a, b, touchesExit)
	return m.Matches("FT*******") || m.Matches("F**T*****") || m.Matches("F***T****")
}

func crossesOp(a, b *operand) bool {
	if !envHitOp(a, b) {
		return false
	}
	da, db := a.g.Dimension(), b.g.Dimension()
	m := relateOp(a, b, noExit)
	switch {
	case da < db:
		return m.Matches("T*T******")
	case da > db:
		return m.Matches("T*****T**")
	case da == 1 && db == 1:
		return m.Matches("0********")
	default:
		return false
	}
}

func withinOp(a, b *operand) bool {
	if a.nilOrEmpty() || b.nilOrEmpty() {
		return false
	}
	if !b.env.ContainsRect(a.env) {
		return false
	}
	return relateOp(a, b, withinExit).Matches("T*F**F***")
}

func overlapsOp(a, b *operand) bool {
	if !envHitOp(a, b) {
		return false
	}
	da, db := a.g.Dimension(), b.g.Dimension()
	if da != db {
		return false
	}
	m := relateOp(a, b, noExit)
	if da == 1 {
		return m.Matches("1*T***T**")
	}
	return m.Matches("T*T***T**")
}

func coversOp(a, b *operand) bool {
	if a.nilOrEmpty() || b.nilOrEmpty() {
		return false
	}
	if !a.env.ContainsRect(b.env) {
		return false
	}
	m := relateOp(a, b, coversExit)
	return m.Matches("T*****FF*") || m.Matches("*T****FF*") ||
		m.Matches("***T**FF*") || m.Matches("****T*FF*")
}

// envHitOp screens out nil/empty operands and disjoint envelopes.
func envHitOp(a, b *operand) bool {
	if a.nilOrEmpty() || b.nilOrEmpty() {
		return false
	}
	return a.env.Intersects(b.env)
}
