package storage

import (
	"encoding/binary"
	"fmt"
	"math"

	"jackpine/internal/geom"
)

// LazyTuple is a decode-on-demand view over an encoded tuple. Reset
// walks the encoding once, recording where each column starts, without
// materializing any value; callers then decode only the columns a plan
// references, and can read a geometry column's envelope straight from
// its WKB bytes (EnvelopeWKB) before deciding to pay for UnmarshalWKB.
//
// The view aliases the tuple bytes it was Reset with, so it is subject
// to the same lifetime rules (a heap scan's tuple slice is only valid
// during the callback). The zero value is ready for Reset; reusing one
// LazyTuple across the rows of a scan amortizes the offset slice.
type LazyTuple struct {
	data []byte
	offs []int // offs[i] is the byte offset of column i's type tag
	ends []int // ends[i] is the byte offset just past column i
}

// Reset points the view at a new encoded tuple of exactly n columns,
// validating the same structural properties DecodeTuple checks (column
// count, varint health, length prefixes, trailing bytes) but deferring
// all value materialization — including WKB decoding.
func (lt *LazyTuple) Reset(data []byte, n int) error {
	lt.data = data
	if cap(lt.offs) < n {
		lt.offs = make([]int, n)
		lt.ends = make([]int, n)
	}
	lt.offs = lt.offs[:n]
	lt.ends = lt.ends[:n]
	pos := 0
	for i := 0; i < n; i++ {
		if pos >= len(data) {
			return fmt.Errorf("storage: tuple truncated at column %d", i)
		}
		lt.offs[i] = pos
		t := ValueType(data[pos])
		pos++
		switch t {
		case TypeNull:
		case TypeInt, TypeBool:
			_, read := binary.Varint(data[pos:])
			if read <= 0 {
				return fmt.Errorf("storage: bad varint in column %d", i)
			}
			pos += read
		case TypeFloat:
			if pos+8 > len(data) {
				return fmt.Errorf("storage: truncated float in column %d", i)
			}
			pos += 8
		case TypeText:
			l, read := binary.Uvarint(data[pos:])
			if read <= 0 || pos+read+int(l) > len(data) {
				return fmt.Errorf("storage: truncated text in column %d", i)
			}
			pos += read + int(l)
		case TypeGeom:
			l, read := binary.Uvarint(data[pos:])
			if read <= 0 || pos+read+int(l) > len(data) {
				return fmt.Errorf("storage: truncated geometry in column %d", i)
			}
			pos += read + int(l)
		default:
			return fmt.Errorf("storage: unknown value type %d in column %d", t, i)
		}
		lt.ends[i] = pos
	}
	if pos != len(data) {
		return fmt.Errorf("storage: %d trailing bytes after tuple", len(data)-pos)
	}
	return nil
}

// Len returns the number of columns in the current tuple.
func (lt *LazyTuple) Len() int { return len(lt.offs) }

// Offsets exposes the per-column byte ranges of the current tuple:
// column i spans data[offs[i]:ends[i]]. The returned slices alias the
// view's internal state and are valid only until the next Reset; batch
// views copy them into their own flat offset arrays.
func (lt *LazyTuple) Offsets() (offs, ends []int) { return lt.offs, lt.ends }

// ColType returns the stored type tag of column i (TypeNull for NULL).
func (lt *LazyTuple) ColType(i int) ValueType {
	return ValueType(lt.data[lt.offs[i]])
}

// GeomWKB returns the raw WKB payload of geometry column i, aliasing
// the tuple bytes. It must only be called when ColType(i) == TypeGeom.
func (lt *LazyTuple) GeomWKB(i int) []byte {
	pos := lt.offs[i] + 1 // past the type tag
	_, read := binary.Uvarint(lt.data[pos:])
	return lt.data[pos+read : lt.ends[i]]
}

// GeomEnvelope returns the envelope of geometry column i computed
// directly from its WKB bytes, without decoding the geometry. ok is
// false when the column is NULL (a stored empty geometry reports
// ok=true with an empty rect, matching Envelope() on the decoded form).
func (lt *LazyTuple) GeomEnvelope(i int) (geom.Rect, bool, error) {
	if lt.ColType(i) != TypeGeom {
		return geom.EmptyRect(), false, nil
	}
	r, err := geom.EnvelopeWKB(lt.GeomWKB(i))
	if err != nil {
		return geom.EmptyRect(), false, fmt.Errorf("storage: column %d: %w", i, err)
	}
	return r, true, nil
}

// Col materializes column i, decoding geometries with UnmarshalWKB.
// Values are decoded fresh on every call; callers wanting memoization
// layer it above this.
func (lt *LazyTuple) Col(i int) (Value, error) {
	return decodeColBytes(lt.col(i), i)
}

// col returns the encoded byte range of column i (type tag first).
func (lt *LazyTuple) col(i int) []byte { return lt.data[lt.offs[i]:lt.ends[i]] }

// decodeColBytes materializes one encoded column from its byte range
// (type tag through end); i is used only for error text. Shared by
// LazyTuple and ColBatch so both decode — and report errors —
// identically.
func decodeColBytes(buf []byte, i int) (Value, error) {
	t := ValueType(buf[0])
	pos := 1
	switch t {
	case TypeNull:
		return Null(), nil
	case TypeInt, TypeBool:
		v, _ := binary.Varint(buf[pos:])
		return Value{Type: t, Int: v}, nil
	case TypeFloat:
		bits := binary.LittleEndian.Uint64(buf[pos:])
		return NewFloat(math.Float64frombits(bits)), nil
	case TypeText:
		l, read := binary.Uvarint(buf[pos:])
		pos += read
		return NewText(string(buf[pos : pos+int(l)])), nil
	case TypeGeom:
		g, err := geom.UnmarshalWKB(payloadBytes(buf))
		if err != nil {
			return Null(), fmt.Errorf("storage: column %d: %w", i, err)
		}
		return NewGeom(g), nil
	}
	return Null(), fmt.Errorf("storage: unknown value type %d in column %d", t, i)
}

// payloadBytes returns the payload of an encoded text or geometry
// column — the WKB of a geometry (buf starts at the type tag).
func payloadBytes(buf []byte) []byte {
	l, read := binary.Uvarint(buf[1:])
	return buf[1+read : 1+read+int(l)]
}
