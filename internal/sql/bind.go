package sql

import (
	"fmt"
	"strings"

	"jackpine/internal/storage"
)

// Bound trees. Bind turns a read-only parse tree into an execution's
// private tree: a column reference becomes its row offset, a scalar
// call carries the FuncImpl resolved once, an aggregate call becomes
// the row position its result is placed at. Operators and literals hold
// no execution state, so the bound tree reuses their node types, and a
// subtree with nothing to bind is the parse tree's own. The plan passes
// — stage slots (hoist.go), prepared constants (prepare.go), compiled
// comparisons (compare.go) — rewrite or annotate only bound nodes, and
// every bound node renders as its source, so output column names and
// EXPLAIN text are those of the statement as written.

// colRef is a bound column reference: offset idx of the row.
type colRef struct {
	src *ColumnRef
	idx int
}

// callExpr is a bound scalar call. prep, when set, is the prepared
// constant side of a topological predicate (prepare.go): set on the
// execution's private tree before any fan-out, only read after.
type callExpr struct {
	src  *FuncCall
	fn   FuncImpl
	args []Expr
	prep *preparedCall
}

// aggRef is a bound aggregate call. Aggregation evaluates arg (nil for
// a star call) per row; after it, the call's value is the group row's
// position pos, where the aggregator writes the finalized result.
type aggRef struct {
	src *FuncCall
	arg Expr
	pos int
}

func (*colRef) expr()   {}
func (*callExpr) expr() {}
func (*aggRef) expr()   {}

func (c *colRef) String() string   { return c.src.String() }
func (c *callExpr) String() string { return c.src.String() }
func (a *aggRef) String() string   { return a.src.String() }

// Bind returns the bound tree of e against the scope, verifying that
// every function exists in reg; e itself is only read. Aggregate calls
// are permitted only when aggOK. The i-th aggregate bound against a
// scope is placed at row position Len()+i, past the columns: the
// aggregator, or a router merging shard states, writes its result
// there and evaluates the tree over that row.
func Bind(e Expr, s *Scope, reg *Registry, aggOK bool) (Expr, error) {
	switch t := e.(type) {
	case nil, *Literal:
		return e, nil
	case *ColumnRef:
		idx, err := s.Resolve(strings.ToLower(t.Table), strings.ToLower(t.Column))
		if err != nil {
			return nil, err
		}
		return &colRef{src: t, idx: idx}, nil
	case *BinaryExpr:
		l, err := Bind(t.Left, s, reg, aggOK)
		if err != nil {
			return nil, err
		}
		r, err := Bind(t.Right, s, reg, aggOK)
		switch {
		case err != nil:
			return nil, err
		case l == t.Left && r == t.Right:
			return t, nil
		}
		return &BinaryExpr{Op: t.Op, Left: l, Right: r}, nil
	case *UnaryExpr:
		x, err := Bind(t.Expr, s, reg, aggOK)
		switch {
		case err != nil:
			return nil, err
		case x == t.Expr:
			return t, nil
		}
		return &UnaryExpr{Op: t.Op, Expr: x}, nil
	case *IsNull:
		x, err := Bind(t.Expr, s, reg, aggOK)
		switch {
		case err != nil:
			return nil, err
		case x == t.Expr:
			return t, nil
		}
		return &IsNull{Expr: x, Negate: t.Negate}, nil
	case *Between:
		x, err := bindAll(s, reg, aggOK, t.Expr, t.Lo, t.Hi)
		if err != nil {
			return nil, err
		}
		return &Between{Expr: x[0], Lo: x[1], Hi: x[2]}, nil
	case *FuncCall:
		if IsAggregateCall(t) {
			if !aggOK {
				return nil, fmt.Errorf("sql: aggregate %s not allowed here", t.Name)
			}
			if !t.Star && len(t.Args) != 1 {
				return nil, fmt.Errorf("sql: aggregate %s takes one argument", t.Name)
			}
			// Aggregate arguments must not nest aggregates.
			args, err := bindAll(s, reg, false, t.Args...)
			if err != nil {
				return nil, err
			}
			a := &aggRef{src: t, pos: s.Len() + s.aggs}
			if !t.Star {
				a.arg = args[0]
			}
			s.aggs++
			return a, nil
		}
		fn, ok := reg.funcs[t.Name]
		if !ok {
			return nil, fmt.Errorf("sql: function %s is not supported by this engine", t.Name)
		}
		args, err := bindAll(s, reg, aggOK, t.Args...)
		if err != nil {
			return nil, err
		}
		return &callExpr{src: t, fn: fn, args: args}, nil
	}
	return nil, fmt.Errorf("sql: cannot bind %T", e)
}

// bindAll binds each expression in order, stopping at the first error.
func bindAll(s *Scope, reg *Registry, aggOK bool, es ...Expr) ([]Expr, error) {
	out := make([]Expr, len(es))
	for i, e := range es {
		b, err := Bind(e, s, reg, aggOK)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// evalConst evaluates a parse tree with no column references.
func evalConst(e Expr, reg *Registry) (storage.Value, error) {
	b, err := Bind(e, NewScope(), reg, false)
	if err != nil {
		return storage.Null(), err
	}
	return Eval(b, nil, reg)
}
