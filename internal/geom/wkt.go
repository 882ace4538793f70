package geom

import (
	"strconv"
	"sync"
)

// coordWKTMax bounds one coordinate's text and its separator: two
// shortest-form float64s of at most 24 bytes each, a space and ", ".
const coordWKTMax = 2*24 + 3

// wktBufMax caps the scratch buffers wktBufs keeps.
const wktBufMax = 64 << 10

// wktBufs recycles WKT's scratch buffers.
var wktBufs = sync.Pool{New: func() any { return new([]byte) }}

// WKT serializes the geometry to Well-Known Text. It formats into a
// pooled scratch buffer sized from the coordinate count, so the text
// never grows a buffer, and the string is its one allocation.
func WKT(g Geometry) string {
	if g == nil {
		return "GEOMETRYCOLLECTION EMPTY"
	}
	bp := wktBufs.Get().(*[]byte)
	buf := *bp
	if need := 64 + g.NumCoords()*coordWKTMax; cap(buf) < need {
		buf = make([]byte, 0, need)
	}
	buf = g.appendWKT(buf[:0])
	s := string(buf)
	if cap(buf) <= wktBufMax {
		*bp = buf
		wktBufs.Put(bp)
	}
	return s
}

func appendFloat(dst []byte, v float64) []byte {
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}

func appendCoord(dst []byte, c Coord) []byte {
	dst = appendFloat(dst, c.X)
	dst = append(dst, ' ')
	return appendFloat(dst, c.Y)
}

func appendCoords(dst []byte, cs []Coord) []byte {
	dst = append(dst, '(')
	for i, c := range cs {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = appendCoord(dst, c)
	}
	return append(dst, ')')
}

func (p Point) appendWKT(dst []byte) []byte {
	if p.Empty {
		return append(dst, "POINT EMPTY"...)
	}
	dst = append(dst, "POINT ("...)
	dst = appendCoord(dst, p.Coord)
	return append(dst, ')')
}

func (m MultiPoint) appendWKT(dst []byte) []byte {
	if len(m) == 0 {
		return append(dst, "MULTIPOINT EMPTY"...)
	}
	dst = append(dst, "MULTIPOINT ("...)
	for i, p := range m {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		if p.Empty {
			dst = append(dst, "EMPTY"...)
			continue
		}
		dst = append(dst, '(')
		dst = appendCoord(dst, p.Coord)
		dst = append(dst, ')')
	}
	return append(dst, ')')
}

func (l LineString) appendWKT(dst []byte) []byte {
	if len(l) == 0 {
		return append(dst, "LINESTRING EMPTY"...)
	}
	dst = append(dst, "LINESTRING "...)
	return appendCoords(dst, l)
}

func (m MultiLineString) appendWKT(dst []byte) []byte {
	if len(m) == 0 {
		return append(dst, "MULTILINESTRING EMPTY"...)
	}
	dst = append(dst, "MULTILINESTRING ("...)
	for i, l := range m {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = appendCoords(dst, l)
	}
	return append(dst, ')')
}

func appendPolygonBody(dst []byte, p Polygon) []byte {
	dst = append(dst, '(')
	for i, r := range p {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = appendCoords(dst, r)
	}
	return append(dst, ')')
}

func (p Polygon) appendWKT(dst []byte) []byte {
	if p.IsEmpty() {
		return append(dst, "POLYGON EMPTY"...)
	}
	dst = append(dst, "POLYGON "...)
	return appendPolygonBody(dst, p)
}

func (m MultiPolygon) appendWKT(dst []byte) []byte {
	if len(m) == 0 {
		return append(dst, "MULTIPOLYGON EMPTY"...)
	}
	dst = append(dst, "MULTIPOLYGON ("...)
	for i, p := range m {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = appendPolygonBody(dst, p)
	}
	return append(dst, ')')
}

func (c Collection) appendWKT(dst []byte) []byte {
	if len(c) == 0 {
		return append(dst, "GEOMETRYCOLLECTION EMPTY"...)
	}
	dst = append(dst, "GEOMETRYCOLLECTION ("...)
	for i, g := range c {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = g.appendWKT(dst)
	}
	return append(dst, ')')
}
