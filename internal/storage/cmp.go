package storage

import (
	"encoding/binary"
	"math"
)

// CmpOp is one of the six SQL comparison operators. The SQL layer's
// comparator and Eval, and a batch scan's pre-copy test, all decide a
// comparison with Compare and Holds, so they agree by construction.
type CmpOp uint8

// The comparison operators.
const (
	CmpEQ CmpOp = iota
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

// Holds reports whether the three-way comparison result c (as returned
// by Compare) satisfies op.
func (op CmpOp) Holds(c int) bool {
	switch op {
	case CmpEQ:
		return c == 0
	case CmpNE:
		return c != 0
	case CmpLT:
		return c < 0
	case CmpLE:
		return c <= 0
	case CmpGT:
		return c > 0
	}
	return c >= 0
}

// Flip returns the operator for swapped operands: a op b holds exactly
// when b op.Flip() a does.
func (op CmpOp) Flip() CmpOp {
	switch op {
	case CmpLT:
		return CmpGT
	case CmpLE:
		return CmpGE
	case CmpGT:
		return CmpLT
	case CmpGE:
		return CmpLE
	}
	return op
}

// ColCompare is the comparison `column Col Op Lit` that a batch scan
// tests on each encoded tuple before copying it (see TupleFilter).
type ColCompare struct {
	Col int
	Op  CmpOp
	Lit Value
}

// drops reports whether the comparison certainly rejects the encoded
// column buf (type tag first): true only when the decoded comparison
// would drop the row without an error, that is for a NULL operand or a
// comparable pair for which Op does not hold. Incomparable pairs are
// kept, so the exact evaluation downstream raises its error, and so are
// two geometries, which compare by re-encoded WKB. Numbers decode and
// text compares its raw bytes without allocating.
func (c *ColCompare) drops(buf []byte) bool {
	if c.Lit.IsNull() {
		return true
	}
	// Compare reads a text or geometry operand's content only when both
	// operands have that type, so the type tag alone stands in for it.
	v := Value{Type: ValueType(buf[0])}
	switch v.Type {
	case TypeNull:
		return true
	case TypeInt, TypeBool:
		v.Int, _ = binary.Varint(buf[1:])
	case TypeFloat:
		v.Float = math.Float64frombits(binary.LittleEndian.Uint64(buf[1:]))
	case TypeText:
		if c.Lit.Type == TypeText {
			s := payloadBytes(buf)
			switch {
			case string(s) < c.Lit.Text:
				return !c.Op.Holds(-1)
			case string(s) > c.Lit.Text:
				return !c.Op.Holds(1)
			}
			return !c.Op.Holds(0)
		}
	case TypeGeom:
		if c.Lit.Type == TypeGeom {
			return false
		}
	}
	r, ok := Compare(v, c.Lit)
	return ok && !c.Op.Holds(r)
}
