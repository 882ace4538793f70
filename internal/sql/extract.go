package sql

import (
	"strings"

	"jackpine/internal/geom"
	"jackpine/internal/storage"
)

// This file exports the planner's predicate-analysis building blocks
// to distributed query routers (internal/cluster): splitting WHERE
// clauses into conjuncts, recognising sargable spatial predicates, and
// a query's constant spatial window for shard pruning — found by the
// planner's spatialProbe and evaluated by its evalWindow, over the tree
// the router bound with Bind.

// Conjuncts flattens nested ANDs into a conjunct list (nil input yields
// nil).
func Conjuncts(e Expr) []Expr { return splitConjuncts(e) }

// WalkExpr visits every node of the expression tree in prefix order.
func WalkExpr(e Expr, fn func(Expr)) { walkExpr(e, fn) }

// IsSargableSpatial reports whether the named predicate confines true
// results to geometries whose envelopes intersect the probe's envelope
// (ST_DWithin qualifies via its expansion distance, see SpatialWindow).
func IsSargableSpatial(name string) bool { return sargableSpatial[strings.ToUpper(name)] }

// HasColumnRef reports whether the expression references any column.
func HasColumnRef(e Expr) bool {
	found := false
	walkExpr(e, func(x Expr) {
		if _, ok := x.(*ColumnRef); ok {
			found = true
		}
	})
	return found
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
		fc, _, arg, matched := spatialProbe(c, 0, geomCol+1, func(col *colRef) bool { return col.idx == geomCol })
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
// results, evaluation errors, or expressions referencing columns; a text
// result parses as WKT, matching the executor's INSERT coercion.
func ConstantGeometry(e Expr, reg *Registry) (geom.Geometry, bool) {
	if HasColumnRef(e) {
		return nil, false
	}
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
