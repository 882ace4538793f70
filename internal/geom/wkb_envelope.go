package geom

import (
	"encoding/binary"
	"fmt"
	"math"
)

// EnvelopeWKB computes the envelope of a WKB-encoded geometry in one
// pass over the encoded bytes, without materializing coordinate slices
// or geometry values. The result is identical (bit for bit) to
// UnmarshalWKB(data) followed by Envelope() — including the
// all-rings polygon envelope and the NaN-ordinate empty-point
// convention — so scan prefilters can use it interchangeably with the
// decoded form.
func EnvelopeWKB(data []byte) (Rect, error) {
	d := &wkbDecoder{data: data}
	r, err := d.envelope(0)
	if err != nil {
		return EmptyRect(), err
	}
	if d.pos != len(data) {
		return EmptyRect(), fmt.Errorf("%w: %d trailing bytes", ErrCorruptWKB, len(data)-d.pos)
	}
	return r, nil
}

func (d *wkbDecoder) envelope(depth int) (Rect, error) {
	if depth > maxWKBNesting {
		return EmptyRect(), fmt.Errorf("%w: nesting deeper than %d", ErrCorruptWKB, maxWKBNesting)
	}
	bo, err := d.byteOrder()
	if err != nil {
		return EmptyRect(), err
	}
	typ, err := d.uint32(bo)
	if err != nil {
		return EmptyRect(), err
	}
	switch Type(typ) {
	case TypePoint:
		x, err := d.float64(bo)
		if err != nil {
			return EmptyRect(), err
		}
		y, err := d.float64(bo)
		if err != nil {
			return EmptyRect(), err
		}
		if math.IsNaN(x) && math.IsNaN(y) {
			return EmptyRect(), nil
		}
		return Rect{x, y, x, y}, nil

	case TypeLineString:
		return d.coordsEnvelope(bo)

	case TypePolygon:
		n, err := d.uint32(bo)
		if err != nil {
			return EmptyRect(), err
		}
		if int(n) > d.remaining()/4 {
			return EmptyRect(), fmt.Errorf("%w: ring count %d exceeds input", ErrCorruptWKB, n)
		}
		// A polygon's envelope is the union of its rings' envelopes, unless
		// its shell is empty, which empties the polygon; the holes are
		// walked either way to keep the decoder position honest.
		env := EmptyRect()
		for i := uint32(0); i < n; i++ {
			r, err := d.coordsEnvelope(bo)
			if err != nil {
				return EmptyRect(), err
			}
			if i == 0 {
				env = r
			} else if !env.IsEmpty() {
				env = env.Union(r)
			}
		}
		return env, nil

	case TypeMultiPoint, TypeMultiLineString, TypeMultiPolygon, TypeGeometryCollection:
		n, err := d.uint32(bo)
		if err != nil {
			return EmptyRect(), err
		}
		if int(n) > d.remaining()/5 {
			return EmptyRect(), fmt.Errorf("%w: element count %d exceeds input", ErrCorruptWKB, n)
		}
		env := EmptyRect()
		for i := uint32(0); i < n; i++ {
			sub, err := d.envelope(depth + 1)
			if err != nil {
				return EmptyRect(), err
			}
			env = env.Union(sub)
		}
		return env, nil

	default:
		return EmptyRect(), fmt.Errorf("%w: unknown geometry type code %d", ErrCorruptWKB, typ)
	}
}

// coordsEnvelope folds a WKB coordinate sequence into its envelope with
// the same first-coordinate initialization and min/max comparisons as
// the in-memory coordsEnvelope, so NaN ordinates propagate identically.
func (d *wkbDecoder) coordsEnvelope(bo binary.ByteOrder) (Rect, error) {
	n, err := d.uint32(bo)
	if err != nil {
		return EmptyRect(), err
	}
	if int(n) > d.remaining()/16 {
		return EmptyRect(), fmt.Errorf("%w: coordinate count %d exceeds input", ErrCorruptWKB, n)
	}
	if n == 0 {
		return EmptyRect(), nil
	}
	x, err := d.float64(bo)
	if err != nil {
		return EmptyRect(), err
	}
	y, err := d.float64(bo)
	if err != nil {
		return EmptyRect(), err
	}
	r := Rect{x, y, x, y}
	for i := uint32(1); i < n; i++ {
		if x, err = d.float64(bo); err != nil {
			return EmptyRect(), err
		}
		if y, err = d.float64(bo); err != nil {
			return EmptyRect(), err
		}
		if x < r.MinX {
			r.MinX = x
		}
		if x > r.MaxX {
			r.MaxX = x
		}
		if y < r.MinY {
			r.MinY = y
		}
		if y > r.MaxY {
			r.MaxY = y
		}
	}
	return r, nil
}
