package sql

import (
	"fmt"
	"reflect"
	"slices"
	"strings"

	"jackpine/internal/geom"
	"jackpine/internal/storage"
)

// Stage slots. An expression belongs to the earliest pipeline stage
// that binds all of its column references, and is evaluated there at
// most once per row of that stage. At plan time every subtree of the
// execution's bound tree (bind.go) that contains a function call and is
// owned by an earlier stage than the one consuming it — a join stage's
// filters and probe window, or the sinks (projection, aggregate
// arguments, sort keys), which consume at the last stage — is replaced
// by a slotRef; structurally identical subtrees share one. A statement
// constant is the degenerate case: stage -1, filled at plan time. The
// bound tree is built afresh for every execution, so slots are never
// found in the tree the pass is handed.
//
// A slot of stage s >= 0 lives in that stage's cell, which rides in a
// hidden position of the stage-s row past the scope width. Every tuple
// derived from the row (inner join rows, buffered shard output, sort
// copies) inherits the cell pointer by plain slice copy, so all of them
// read one value, filled on first read: an outer row that never reaches
// a consumer never evaluates the expression or surfaces its error, and
// no state is shared between workers.

// slotVal is one memoized evaluation; the error is kept so it surfaces
// where (and only where) evaluating the statement as written raises it.
type slotVal struct {
	v    storage.Value
	err  error
	done bool
}

// stageCell holds the slots one stage owns for one of its rows. It
// travels as the Geom of a NULL-typed hidden Value — the only
// pointer-shaped field a storage.Value has; the embedded interface is
// never called.
type stageCell struct {
	geom.Geometry
	slots []slotVal
}

// slotRef is the bound node standing in for a hoisted subtree. String
// and walkExpr see through to the subtree, so output names, column
// pruning and the planner's reference analysis are unaffected by the
// rewrite.
type slotRef struct {
	sub   Expr
	stage int     // owning stage, -1 for a statement constant
	pos   int     // row position of the owning stage's cell
	idx   int     // slot within the cell
	uses  string  // consumers in first-read order, for EXPLAIN
	konst slotVal // stage -1 only; filled before any fan-out, read-only after
}

func (*slotRef) expr()            {}
func (s *slotRef) String() string { return s.sub.String() }

func (s *slotRef) eval(row []storage.Value, reg *Registry) (storage.Value, error) {
	sv := &s.konst
	if s.stage >= 0 {
		var cell *stageCell
		if s.pos < len(row) {
			cell, _ = row[s.pos].Geom.(*stageCell)
		}
		if cell == nil {
			// Rows that never passed through the pipeline (the stand-in
			// row of a zero-row global aggregate) carry no cell.
			return Eval(s.sub, row, reg)
		}
		sv = &cell.slots[s.idx]
	}
	if !sv.done {
		sv.v, sv.err = Eval(s.sub, row, reg)
		sv.done = true
	}
	return sv.v, sv.err
}

// markUse records a consumer (window, filter, project, agg, order) when
// e is a slot.
func markUse(e Expr, use string) {
	if s, ok := e.(*slotRef); ok && !strings.Contains(s.uses, use) {
		s.uses = strings.TrimPrefix(s.uses+","+use, ",")
	}
}

// boundTable is one FROM/JOIN table with its scope offsets [lo, hi).
type boundTable struct {
	tbl     Table
	binding string
	lo, hi  int
}

// stageOf maps a scope offset to the pipeline stage that binds it; -1
// (no reference) maps to -1.
func stageOf(tables []boundTable, ref int) int {
	if ref < 0 {
		return -1
	}
	for i, bt := range tables {
		if ref < bt.hi {
			return i
		}
	}
	return len(tables) - 1
}

// hoister is the plan-time rewrite state of one statement.
type hoister struct {
	reg    *Registry
	tables []boundTable
	width  int // scope width; stage s's cell sits at row position width+s
	slots  []*slotRef
	cells  []int // row slots per stage; nil while the statement has none
}

// hasCall reports whether e contains a scalar function call.
func hasCall(e Expr) bool {
	found := false
	walkExpr(e, func(x Expr) {
		if _, ok := x.(*callExpr); ok {
			found = true
		}
	})
	return found
}

// hoist returns e with every call-bearing subtree owned by a stage
// below at replaced by its slot. Nodes are copied only along changed
// paths, so an expression with nothing to hoist costs no allocation.
func (h *hoister) hoist(e Expr, at int, use string) Expr {
	switch e.(type) {
	case nil, *Literal, *colRef:
		return e
	}
	if !hasCall(e) {
		return e
	}
	if own := stageOf(h.tables, maxRef(e)); own < at && !HasAggregate(e) {
		// Calls nested inside the subtree become slots of their own
		// (of this or an earlier stage), so the ST_BUFFER under a
		// projected ST_AREA is the same slot the join's window reads.
		return h.slot(h.hoistChildren(e, own+1, use), own, use)
	}
	return h.hoistChildren(e, at, use)
}

func (h *hoister) hoistChildren(e Expr, at int, use string) Expr {
	switch t := e.(type) {
	case *BinaryExpr:
		l, r := h.hoist(t.Left, at, use), h.hoist(t.Right, at, use)
		if l != t.Left || r != t.Right {
			return &BinaryExpr{Op: t.Op, Left: l, Right: r}
		}
	case *UnaryExpr:
		if x := h.hoist(t.Expr, at, use); x != t.Expr {
			return &UnaryExpr{Op: t.Op, Expr: x}
		}
	case *IsNull:
		if x := h.hoist(t.Expr, at, use); x != t.Expr {
			return &IsNull{Expr: x, Negate: t.Negate}
		}
	case *Between:
		x, lo, hi := h.hoist(t.Expr, at, use), h.hoist(t.Lo, at, use), h.hoist(t.Hi, at, use)
		if x != t.Expr || lo != t.Lo || hi != t.Hi {
			return &Between{Expr: x, Lo: lo, Hi: hi}
		}
	case *aggRef:
		if x := h.hoist(t.arg, at, "agg"); x != t.arg {
			return &aggRef{src: t.src, arg: x, pos: t.pos}
		}
	case *callExpr:
		var args []Expr
		for i, a := range t.args {
			na := h.hoist(a, at, use)
			if na != a && args == nil {
				args = append([]Expr(nil), t.args...)
			}
			if args != nil {
				args[i] = na
			}
		}
		if args != nil {
			return &callExpr{src: t.src, fn: t.fn, args: args}
		}
	}
	return e
}

// slot returns the slot of stage own for e, shared with any structurally
// identical subtree seen before (nested slots were merged bottom-up, so
// they compare equal as the same pointer). Constants are evaluated here,
// once per statement; registry functions are pure, so evaluating one a
// row-at-a-time evaluation would have short-circuited past is
// unobservable.
func (h *hoister) slot(e Expr, own int, use string) *slotRef {
	for _, s := range h.slots {
		if s.stage == own && sameExpr(s.sub, e) {
			markUse(s, use)
			return s
		}
	}
	s := &slotRef{sub: e, stage: own, pos: h.width + own, uses: use}
	if own < 0 {
		s.konst.v, s.konst.err = Eval(e, nil, h.reg)
		s.konst.done = true
	} else {
		if h.cells == nil {
			h.cells = make([]int, len(h.tables))
		}
		s.idx = h.cells[own]
		h.cells[own]++
	}
	h.slots = append(h.slots, s)
	return s
}

// hoistSinks rewrites the bound sink expressions, which consume at the
// last stage: the select list (nil at a star) and the ORDER BY keys (nil
// on the aggregate path, whose keys name output columns).
func (h *hoister) hoistSinks(exprs, order []Expr) {
	last := len(h.tables) - 1
	for i, e := range exprs {
		exprs[i] = h.hoist(e, last, "project")
	}
	for i, e := range order {
		order[i] = h.hoist(e, last, "order")
	}
}

// sameExpr reports whether two bound trees are the same expression: the
// same operators, literals and functions over the same operands, and
// columns at the same offset spelled the same way (w.geo and geo are
// merely not shared). A slot equals only itself. Resolved functions are
// compared by name, never as func values, which are unequal unless nil.
func sameExpr(a, b Expr) bool {
	switch x := a.(type) {
	case *Literal:
		y, ok := b.(*Literal)
		return ok && reflect.DeepEqual(x.Value, y.Value)
	case *colRef:
		y, ok := b.(*colRef)
		return ok && x.idx == y.idx && *x.src == *y.src
	case *callExpr:
		y, ok := b.(*callExpr)
		return ok && x.src.Name == y.src.Name && x.src.Star == y.src.Star &&
			slices.EqualFunc(x.args, y.args, sameExpr)
	case *BinaryExpr:
		y, ok := b.(*BinaryExpr)
		return ok && x.Op == y.Op && sameExpr(x.Left, y.Left) && sameExpr(x.Right, y.Right)
	case *UnaryExpr:
		y, ok := b.(*UnaryExpr)
		return ok && x.Op == y.Op && sameExpr(x.Expr, y.Expr)
	case *IsNull:
		y, ok := b.(*IsNull)
		return ok && x.Negate == y.Negate && sameExpr(x.Expr, y.Expr)
	case *Between:
		y, ok := b.(*Between)
		return ok && sameExpr(x.Expr, y.Expr) && sameExpr(x.Lo, y.Lo) && sameExpr(x.Hi, y.Hi)
	}
	return a == b
}

// explainRows renders one EXPLAIN line per slot: where it is evaluated,
// what it computes and who reads it. The rows column is the bound on
// its evaluations — the owning table's row count, 1 for a constant.
func (h *hoister) explainRows() [][]storage.Value {
	var rows [][]storage.Value
	for _, s := range h.slots {
		stage, n := "const", 1
		if s.stage >= 0 {
			stage, n = h.tables[s.stage].binding, h.tables[s.stage].tbl.RowCount()
		}
		rows = append(rows, []storage.Value{
			storage.NewText("hoisted"),
			storage.NewText(fmt.Sprintf("stage=%s %s consumers=%s", stage, s.sub, s.uses)),
			storage.NewInt(int64(n)),
		})
	}
	return rows
}
