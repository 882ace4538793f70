package sql

import (
	"strings"

	"jackpine/internal/geom"
	"jackpine/internal/storage"
)

// This file exports the planner's predicate-analysis building blocks for
// use by distributed query routers (internal/cluster): splitting WHERE
// clauses into conjuncts, recognising sargable spatial predicates, and
// evaluating a query's constant spatial window for shard pruning. The
// logic mirrors trySpatialWindow/evalWindow so a router prunes with
// exactly the windows the engine's own planner would use.

// Conjuncts flattens nested ANDs into a conjunct list (nil input yields
// nil).
func Conjuncts(e Expr) []Expr { return splitConjuncts(e) }

// WalkExpr visits every node of the expression tree in prefix order.
func WalkExpr(e Expr, fn func(Expr)) { walkExpr(e, fn) }

// IsSargableSpatial reports whether the named predicate confines true
// results to geometries whose envelopes intersect the probe's envelope
// (ST_DWithin qualifies via its expansion distance and is handled by
// ExtractSpatialWindow).
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

// ExtractSpatialWindow derives the constant spatial query window implied
// by a WHERE clause, for shard pruning: every top-level conjunct of the
// form pred(geomcol, probe) — with pred sargable (or ST_DWithin) and
// probe free of column references — contributes its probe envelope, and
// contributions intersect. isGeomCol classifies column references
// (receiving the reference's table qualifier, possibly empty, and
// column name, both as written). The expression is a parse tree; probes
// are bound and evaluated against reg as constants.
//
// ok is false when no conjunct matched (no pruning possible). A matched
// conjunct with a NULL probe yields an empty window: the predicate can
// never hold, so every shard may be pruned.
func ExtractSpatialWindow(where Expr, isGeomCol func(table, column string) bool, reg *Registry) (geom.Rect, bool) {
	window := geom.Rect{}
	found := false
	for _, c := range splitConjuncts(where) {
		w, ok := conjunctWindow(c, isGeomCol, reg)
		if !ok {
			continue
		}
		if found {
			window = window.Intersect(w)
		} else {
			window = w
			found = true
		}
	}
	return window, found
}

// conjunctWindow matches one conjunct against the pred(geomcol, probe)
// pattern, mirroring trySpatialWindow + evalWindow. Equality on the
// geometry column (geomcol = probe) also contributes a window: equal
// geometries have equal envelopes, so matching rows are confined to the
// probe's envelope.
func conjunctWindow(c Expr, isGeomCol func(table, column string) bool, reg *Registry) (geom.Rect, bool) {
	if be, ok := c.(*BinaryExpr); ok && be.Op == "=" {
		sides := [2]Expr{be.Left, be.Right}
		for i := 0; i < 2; i++ {
			col, isCol := sides[i].(*ColumnRef)
			if !isCol || !isGeomCol(col.Table, col.Column) {
				continue
			}
			probe := sides[1-i]
			if HasColumnRef(probe) {
				continue
			}
			v, err := evalConst(probe, reg)
			if err != nil {
				continue
			}
			if v.IsNull() {
				// geom = NULL is never true.
				return geom.EmptyRect(), true
			}
			if v.Type != storage.TypeGeom {
				continue // engine-side coercion rules unknown: no pruning
			}
			return v.Geom.Envelope(), true
		}
		return geom.Rect{}, false
	}
	fc, ok := c.(*FuncCall)
	if !ok {
		return geom.Rect{}, false
	}
	name := strings.ToUpper(fc.Name)
	isDWithin := name == "ST_DWITHIN"
	if !sargableSpatial[name] && !isDWithin {
		return geom.Rect{}, false
	}
	wantArgs := 2
	if isDWithin {
		wantArgs = 3
	}
	if len(fc.Args) != wantArgs {
		return geom.Rect{}, false
	}
	for i := 0; i < 2; i++ {
		col, isCol := fc.Args[i].(*ColumnRef)
		if !isCol || !isGeomCol(col.Table, col.Column) {
			continue
		}
		probe := fc.Args[1-i]
		if HasColumnRef(probe) {
			continue
		}
		v, err := evalConst(probe, reg)
		if err != nil {
			continue // unevaluable probe: no pruning from this conjunct
		}
		if v.IsNull() || v.Type != storage.TypeGeom {
			return geom.EmptyRect(), true
		}
		w := v.Geom.Envelope()
		if isDWithin {
			if HasColumnRef(fc.Args[2]) {
				continue
			}
			d, err := evalConst(fc.Args[2], reg)
			if err != nil {
				continue
			}
			if f, ok := d.AsFloat(); ok {
				w = w.Expand(f)
			}
		}
		return w, true
	}
	return geom.Rect{}, false
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
