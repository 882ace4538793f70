package sql

import (
	"fmt"

	"jackpine/internal/storage"
)

// Compiled comparisons. A filter conjunct `x op y` whose operands are
// each a column reference or a literal is classified once per plan into
// a comparator: the batch cascade runs it column-major over a batch's
// selection vector and each stage's row filter (filterRows in
// execSelect) calls it per row, both without walking the expression
// tree through Eval. evalBinary applies the same compareValues, so the
// comparator and Eval agree by construction.

// cmpOp is one of the six comparison operators.
type cmpOp uint8

const (
	cmpEQ cmpOp = iota
	cmpNE
	cmpLT
	cmpLE
	cmpGT
	cmpGE
)

// parseCmpOp maps an operator token to its cmpOp; ok is false for any
// non-comparison operator.
func parseCmpOp(op string) (cmpOp, bool) {
	switch op {
	case "=":
		return cmpEQ, true
	case "<>":
		return cmpNE, true
	case "<":
		return cmpLT, true
	case "<=":
		return cmpLE, true
	case ">":
		return cmpGT, true
	case ">=":
		return cmpGE, true
	}
	return 0, false
}

// compareValues applies op to two non-NULL values.
func compareValues(op cmpOp, l, r storage.Value) (bool, error) {
	c, ok := storage.Compare(l, r)
	if !ok {
		return false, fmt.Errorf("sql: cannot compare %s with %s", l.Type, r.Type)
	}
	switch op {
	case cmpEQ:
		return c == 0, nil
	case cmpNE:
		return c != 0, nil
	case cmpLT:
		return c < 0, nil
	case cmpLE:
		return c <= 0, nil
	case cmpGT:
		return c > 0, nil
	}
	return c >= 0, nil
}

// comparator is a compiled comparison conjunct. Each operand is a row
// column (col >= 0) or, when col < 0, the constant val.
type comparator struct {
	op         cmpOp
	lcol, rcol int
	lval, rval storage.Value
}

// compileComparison returns the comparator for a comparison of column
// references and literals, or nil for any other expression.
func compileComparison(e Expr) *comparator {
	b, ok := e.(*BinaryExpr)
	if !ok {
		return nil
	}
	op, ok := parseCmpOp(b.Op)
	if !ok {
		return nil
	}
	c := &comparator{op: op}
	if c.lcol, c.lval, ok = cmpOperand(b.Left); !ok {
		return nil
	}
	if c.rcol, c.rval, ok = cmpOperand(b.Right); !ok {
		return nil
	}
	return c
}

// cmpOperand classifies one comparison operand.
func cmpOperand(e Expr) (int, storage.Value, bool) {
	switch t := e.(type) {
	case *ColumnRef:
		return t.Index, storage.Value{}, t.Index >= 0
	case *Literal:
		return -1, t.Value, true
	}
	return 0, storage.Value{}, false
}

// keep reports whether the row passes the comparison: false when either
// operand is NULL, the case in which Eval yields NULL.
func (c *comparator) keep(row []storage.Value) (bool, error) {
	l, r := c.lval, c.rval
	if c.lcol >= 0 {
		l = row[c.lcol]
	}
	if c.rcol >= 0 {
		r = row[c.rcol]
	}
	if l.IsNull() || r.IsNull() {
		return false, nil
	}
	return compareValues(c.op, l, r)
}
