package sql

import (
	"jackpine/internal/geom"
	"jackpine/internal/storage"
)

// This file exports the planner's predicate analysis to distributed
// query routers (internal/cluster), over the tree a router bound with
// Bind: splitting conditions into conjuncts, the scope offsets a
// conjunct reads, a query's constant spatial window for shard pruning
// (found by the planner's spatialProbe, evaluated by its evalWindow),
// and the spatial join predicates PBSM and a semijoin reduce on — found
// by the same spatialProbe, so the spatial-predicate set is matched in
// one place.

// Conjuncts flattens nested ANDs into a conjunct list (nil input yields
// nil). Bind keeps the AND shape, so the k-th conjunct of a bound
// condition is bound from the k-th conjunct of the parsed one.
func Conjuncts(e Expr) []Expr { return splitConjuncts(e) }

// WalkExpr visits every node of the expression tree in prefix order.
func WalkExpr(e Expr, fn func(Expr)) { walkExpr(e, fn) }

// RefsInRange reports whether every column a bound expression reads
// lies at scope offsets [lo, hi).
func RefsInRange(e Expr, lo, hi int) bool { return refsInRange(e, lo, hi) }

// PBSMJoin is the planner's PBSM matcher (findPBSMConjunct) over bound
// conjuncts: a spatial predicate between a bare geometry column of the
// inner table at scope offsets [innerLo, innerHi) and a bare outer one,
// with a finite constant ST_DWithin distance if any. It returns the two
// columns' offsets and d, the envelope distance every true result stays
// within: 0, or the ST_DWithin distance.
func PBSMJoin(scope *Scope, conjuncts []Expr, innerLo, innerHi int, reg *Registry) (outerCol, innerCol int, d float64, ok bool) {
	fc, arg, d, ok := findPBSMConjunct(scope, conjuncts, innerLo, innerHi, reg)
	if !ok {
		return 0, 0, 0, false
	}
	return fc.args[arg].(*colRef).idx, fc.args[1-arg].(*colRef).idx, d, true
}

// JoinProbe matches a bound conjunct as the planner matches an index
// probe (spatialProbe): pred(col, probe) or ST_DWithin(col, probe, d),
// either operand order, with col the column at scope offset col and
// probe reading columns at offsets [lo, hi) only, at least one. It
// returns the probe as parsed and d, the envelope distance every true
// result stays within (0 for a sargable predicate); ok is false unless
// d is a finite constant.
func JoinProbe(c Expr, col, lo, hi int, reg *Registry) (probe Expr, d float64, ok bool) {
	fc, _, arg, ok := spatialProbe(c, col, col+1, lo, hi, func(*colRef) bool { return true })
	if !ok || maxRef(fc.args[arg]) < 0 {
		return nil, 0, false
	}
	if d, ok = constDistance(fc, reg); !ok {
		return nil, 0, false
	}
	return fc.src.Args[arg], d, true
}

// SpatialWindow derives the constant query window a bound WHERE clause
// confines the geometry column at scope offset geomCol to: every
// top-level conjunct the planner would probe an index on that column
// with, using a constant window, contributes that window, and the
// windows intersect. A NULL window operand yields the empty window: the
// predicate can never hold.
//
// ok is false when no conjunct matched, or when a window fails to
// evaluate: the statement's execution then raises the error itself.
func SpatialWindow(where Expr, geomCol int, reg *Registry) (window geom.Rect, ok bool) {
	for _, c := range splitConjuncts(where) {
		fc, _, arg, matched := spatialProbe(c, 0, geomCol+1, 0, 0, func(col *colRef) bool { return col.idx == geomCol })
		if !matched {
			continue
		}
		p := accessPath{window: fc, windowArg: arg}
		w, err := p.evalWindow(nil, reg)
		switch {
		case err != nil:
			return geom.Rect{}, false
		case ok:
			window = window.Intersect(w)
		default:
			window, ok = w, true
		}
	}
	return window, ok
}

// ConstantGeometry evaluates a column-free expression to a geometry (for
// routing INSERT rows by location). ok is false for NULL, non-geometry
// results and evaluation errors, a column reference among them (it does
// not bind); a text result parses as WKT, matching the executor's
// INSERT coercion.
func ConstantGeometry(e Expr, reg *Registry) (geom.Geometry, bool) {
	v, err := evalConst(e, reg)
	if err != nil {
		return nil, false
	}
	switch v.Type {
	case storage.TypeGeom:
		return v.Geom, true
	case storage.TypeText:
		g, err := geom.ParseWKT(v.Text)
		if err != nil {
			return nil, false
		}
		return g, true
	}
	return nil, false
}
