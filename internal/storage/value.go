// Package storage implements the table storage substrate of the spatial
// engines: typed column values with a compact tuple encoding, 8 KiB
// slotted pages with overflow chains for large tuples, pluggable page
// stores (memory and file backed), a buffer pool with LRU eviction and
// hit/miss accounting, and heap files built on top.
package storage

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"

	"jackpine/internal/geom"
)

// ValueType identifies the runtime type of a Value.
type ValueType uint8

// The supported column value types.
const (
	TypeNull ValueType = iota
	TypeInt
	TypeFloat
	TypeText
	TypeGeom
	TypeBool
)

// String returns the SQL-facing type name.
func (t ValueType) String() string {
	switch t {
	case TypeNull:
		return "NULL"
	case TypeInt:
		return "INTEGER"
	case TypeFloat:
		return "DOUBLE"
	case TypeText:
		return "TEXT"
	case TypeGeom:
		return "GEOMETRY"
	case TypeBool:
		return "BOOLEAN"
	}
	return fmt.Sprintf("UNKNOWN(%d)", uint8(t))
}

// Value is a single column value. The zero value is SQL NULL.
type Value struct {
	Type  ValueType
	Int   int64 // also carries booleans (0/1)
	Float float64
	Text  string
	Geom  geom.Geometry
}

// Null returns the SQL NULL value.
func Null() Value { return Value{} }

// NewInt wraps an integer.
func NewInt(v int64) Value { return Value{Type: TypeInt, Int: v} }

// NewFloat wraps a float.
func NewFloat(v float64) Value { return Value{Type: TypeFloat, Float: v} }

// NewText wraps a string.
func NewText(s string) Value { return Value{Type: TypeText, Text: s} }

// NewGeom wraps a geometry. A nil geometry becomes NULL.
func NewGeom(g geom.Geometry) Value {
	if g == nil {
		return Null()
	}
	return Value{Type: TypeGeom, Geom: g}
}

// NewBool wraps a boolean.
func NewBool(b bool) Value {
	v := Value{Type: TypeBool}
	if b {
		v.Int = 1
	}
	return v
}

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.Type == TypeNull }

// Bool returns the boolean interpretation (only meaningful for TypeBool).
func (v Value) Bool() bool { return v.Type == TypeBool && v.Int != 0 }

// AsFloat converts numeric values to float64.
func (v Value) AsFloat() (float64, bool) {
	switch v.Type {
	case TypeInt:
		return float64(v.Int), true
	case TypeFloat:
		return v.Float, true
	default:
		return 0, false
	}
}

// String renders the value for display.
func (v Value) String() string {
	switch v.Type {
	case TypeNull:
		return "NULL"
	case TypeInt:
		return fmt.Sprintf("%d", v.Int)
	case TypeFloat:
		return fmt.Sprintf("%g", v.Float)
	case TypeText:
		return v.Text
	case TypeGeom:
		return geom.WKT(v.Geom)
	case TypeBool:
		if v.Int != 0 {
			return "true"
		}
		return "false"
	}
	return "?"
}

// Compare orders two values. NULL sorts before everything; two ints
// compare exactly as int64 (as the B-tree's encoded keys do), and other
// numeric pairs compare numerically across Int/Float, with NaN after
// every number and equal only to NaN (PostgreSQL's rule, and the order
// of the B-tree's float keys); distinct
// non-comparable types order by type tag. Geometries compare by WKB
// bytes (arbitrary but stable). The second result is false when the
// comparison is between incompatible types (still ordered, for sort
// stability).
func Compare(a, b Value) (int, bool) {
	if a.Type == TypeInt && b.Type == TypeInt {
		return cmp.Compare(a.Int, b.Int), true
	}
	if a.IsNull() || b.IsNull() {
		switch {
		case a.IsNull() && b.IsNull():
			return 0, true
		case a.IsNull():
			return -1, true
		default:
			return 1, true
		}
	}
	af, aNum := a.AsFloat()
	bf, bNum := b.AsFloat()
	if aNum && bNum {
		return compareFloat(af, bf), true
	}
	if a.Type != b.Type {
		if a.Type < b.Type {
			return -1, false
		}
		return 1, false
	}
	switch a.Type {
	case TypeText:
		switch {
		case a.Text < b.Text:
			return -1, true
		case a.Text > b.Text:
			return 1, true
		default:
			return 0, true
		}
	case TypeBool:
		switch {
		case a.Int < b.Int:
			return -1, true
		case a.Int > b.Int:
			return 1, true
		default:
			return 0, true
		}
	case TypeGeom:
		wa, wb := geom.MarshalWKB(a.Geom), geom.MarshalWKB(b.Geom)
		switch {
		case string(wa) < string(wb):
			return -1, false
		case string(wa) > string(wb):
			return 1, false
		default:
			return 0, true
		}
	}
	return 0, false
}

// compareFloat orders two floats numerically, NaN last and equal to
// itself.
func compareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	case a != a && b != b:
		return 0
	case a != a:
		return 1
	}
	return -1
}

// EncodeTuple serializes a row of values.
func EncodeTuple(vals []Value) []byte {
	out := make([]byte, 0, 16*len(vals))
	for _, v := range vals {
		out = append(out, byte(v.Type))
		switch v.Type {
		case TypeNull:
		case TypeInt, TypeBool:
			out = binary.AppendVarint(out, v.Int)
		case TypeFloat:
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v.Float))
		case TypeText:
			out = binary.AppendUvarint(out, uint64(len(v.Text)))
			out = append(out, v.Text...)
		case TypeGeom:
			wkb := geom.MarshalWKB(v.Geom)
			out = binary.AppendUvarint(out, uint64(len(wkb)))
			out = append(out, wkb...)
		}
	}
	return out
}

// DecodeTuple deserializes a row of exactly n values.
func DecodeTuple(data []byte, n int) ([]Value, error) {
	vals := make([]Value, 0, n)
	pos := 0
	for i := 0; i < n; i++ {
		if pos >= len(data) {
			return nil, fmt.Errorf("storage: tuple truncated at column %d", i)
		}
		t := ValueType(data[pos])
		pos++
		switch t {
		case TypeNull:
			vals = append(vals, Null())
		case TypeInt, TypeBool:
			v, read := binary.Varint(data[pos:])
			if read <= 0 {
				return nil, fmt.Errorf("storage: bad varint in column %d", i)
			}
			pos += read
			vals = append(vals, Value{Type: t, Int: v})
		case TypeFloat:
			if pos+8 > len(data) {
				return nil, fmt.Errorf("storage: truncated float in column %d", i)
			}
			bits := binary.LittleEndian.Uint64(data[pos:])
			pos += 8
			vals = append(vals, NewFloat(math.Float64frombits(bits)))
		case TypeText:
			l, read := binary.Uvarint(data[pos:])
			if read <= 0 || pos+read+int(l) > len(data) {
				return nil, fmt.Errorf("storage: truncated text in column %d", i)
			}
			pos += read
			vals = append(vals, NewText(string(data[pos:pos+int(l)])))
			pos += int(l)
		case TypeGeom:
			l, read := binary.Uvarint(data[pos:])
			if read <= 0 || pos+read+int(l) > len(data) {
				return nil, fmt.Errorf("storage: truncated geometry in column %d", i)
			}
			pos += read
			g, err := geom.UnmarshalWKB(data[pos : pos+int(l)])
			if err != nil {
				return nil, fmt.Errorf("storage: column %d: %w", i, err)
			}
			pos += int(l)
			vals = append(vals, NewGeom(g))
		default:
			return nil, fmt.Errorf("storage: unknown value type %d in column %d", t, i)
		}
	}
	if pos != len(data) {
		return nil, fmt.Errorf("storage: %d trailing bytes after tuple", len(data)-pos)
	}
	return vals, nil
}
