package sql

import (
	"fmt"

	"jackpine/internal/storage"
)

// Compiled comparisons. A bound filter conjunct `x op y` whose operands
// are each a column reference or a literal is classified once per plan
// into a comparator (compileFilters, filter.go): the batch cascade runs
// it column-major over a batch's selection vector and each stage's row
// filter per row, both without walking the expression tree through
// Eval. evalBinary applies the same compareValues, so the
// comparator and Eval agree by construction. A batched full scan also
// pushes stage 0's column-versus-literal comparators into the table
// scan (pushdown), which tests each on the encoded tuple with the same
// storage.Compare and CmpOp.Holds before copying the row.

// parseCmpOp maps an operator token to its storage.CmpOp; ok is false
// for any non-comparison operator.
func parseCmpOp(op string) (storage.CmpOp, bool) {
	switch op {
	case "=":
		return storage.CmpEQ, true
	case "<>":
		return storage.CmpNE, true
	case "<":
		return storage.CmpLT, true
	case "<=":
		return storage.CmpLE, true
	case ">":
		return storage.CmpGT, true
	case ">=":
		return storage.CmpGE, true
	}
	return 0, false
}

// compareValues applies op to two non-NULL values.
func compareValues(op storage.CmpOp, l, r storage.Value) (bool, error) {
	c, ok := storage.Compare(l, r)
	if !ok {
		return false, fmt.Errorf("sql: cannot compare %s with %s", l.Type, r.Type)
	}
	return op.Holds(c), nil
}

// comparator is a compiled comparison conjunct. Each operand is a row
// column (col >= 0) or, when col < 0, the constant val.
type comparator struct {
	op         storage.CmpOp
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
	case *colRef:
		return t.idx, storage.Value{}, true
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

// pushdown returns the storage form of a comparison of one of the first
// nCols columns with a literal, flipping the operator when the literal
// is on the left; ok is false for any other comparator, nil included.
func (c *comparator) pushdown(nCols int) (storage.ColCompare, bool) {
	switch {
	case c == nil:
	case c.lcol >= 0 && c.lcol < nCols && c.rcol < 0:
		return storage.ColCompare{Col: c.lcol, Op: c.op, Lit: c.rval}, true
	case c.rcol >= 0 && c.rcol < nCols && c.lcol < 0:
		return storage.ColCompare{Col: c.rcol, Op: c.op.Flip(), Lit: c.lval}, true
	}
	return storage.ColCompare{}, false
}
