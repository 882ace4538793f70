// Package geom provides the planar geometry model used throughout the
// Jackpine reproduction: the seven OGC Simple Features geometry types,
// envelopes, measures (area, length, centroid), low-level computational
// geometry primitives, and WKT/WKB codecs.
//
// Coordinates are planar float64 pairs. Rings follow the Simple Features
// convention: a polygon's exterior ring plus zero or more interior rings
// (holes), each ring closed (first coordinate equals last coordinate).
package geom

import "fmt"

// Type identifies the concrete geometry type, with values matching the
// OGC/WKB geometry type codes.
type Type uint32

// Geometry type codes (identical to the WKB type codes).
const (
	TypePoint              Type = 1
	TypeLineString         Type = 2
	TypePolygon            Type = 3
	TypeMultiPoint         Type = 4
	TypeMultiLineString    Type = 5
	TypeMultiPolygon       Type = 6
	TypeGeometryCollection Type = 7
)

// String returns the WKT keyword for the type.
func (t Type) String() string {
	switch t {
	case TypePoint:
		return "POINT"
	case TypeLineString:
		return "LINESTRING"
	case TypePolygon:
		return "POLYGON"
	case TypeMultiPoint:
		return "MULTIPOINT"
	case TypeMultiLineString:
		return "MULTILINESTRING"
	case TypeMultiPolygon:
		return "MULTIPOLYGON"
	case TypeGeometryCollection:
		return "GEOMETRYCOLLECTION"
	}
	return fmt.Sprintf("UNKNOWN(%d)", uint32(t))
}

// Eps is the absolute tolerance used when comparing derived quantities
// (areas, distances). Raw coordinate comparisons are exact: the data
// generator and codecs preserve coordinates bit-for-bit, so shared
// vertices compare equal without a tolerance.
const Eps = 1e-9

// Coord is a planar coordinate.
type Coord struct {
	X, Y float64
}

// Sub returns c - o as a vector.
func (c Coord) Sub(o Coord) Coord { return Coord{c.X - o.X, c.Y - o.Y} }

// Add returns c + o.
func (c Coord) Add(o Coord) Coord { return Coord{c.X + o.X, c.Y + o.Y} }

// Scale returns c scaled by f.
func (c Coord) Scale(f float64) Coord { return Coord{c.X * f, c.Y * f} }

// Equal reports exact coordinate equality.
func (c Coord) Equal(o Coord) bool { return ExactEq(c.X, o.X) && ExactEq(c.Y, o.Y) }

// Geometry is implemented by all geometry types in this package.
type Geometry interface {
	// GeomType returns the concrete type code.
	GeomType() Type
	// Envelope returns the minimum bounding rectangle. Empty geometries
	// return an empty Rect (see Rect.IsEmpty).
	Envelope() Rect
	// IsEmpty reports whether the geometry contains no coordinates.
	IsEmpty() bool
	// Dimension returns the topological dimension: 0 for points, 1 for
	// curves, 2 for surfaces. Collections return the maximum dimension
	// of their elements; empty geometries return their nominal dimension.
	Dimension() int
	// NumCoords returns the total number of coordinates stored.
	NumCoords() int
	// Clone returns a deep copy.
	Clone() Geometry

	appendWKT(dst []byte) []byte
}

// Point is a zero-dimensional geometry. The zero value is the point (0,0);
// an explicitly empty point (WKT "POINT EMPTY") has Empty set.
type Point struct {
	Coord
	Empty bool
}

// Pt is shorthand for constructing a non-empty Point.
func Pt(x, y float64) Point { return Point{Coord: Coord{x, y}} }

// GeomType implements Geometry.
func (p Point) GeomType() Type { return TypePoint }

// IsEmpty implements Geometry.
func (p Point) IsEmpty() bool { return p.Empty }

// Dimension implements Geometry.
func (p Point) Dimension() int { return 0 }

// NumCoords implements Geometry.
func (p Point) NumCoords() int {
	if p.Empty {
		return 0
	}
	return 1
}

// Envelope implements Geometry.
func (p Point) Envelope() Rect {
	if p.Empty {
		return EmptyRect()
	}
	return Rect{p.X, p.Y, p.X, p.Y}
}

// Clone implements Geometry.
func (p Point) Clone() Geometry { return p }

// MultiPoint is a collection of points.
type MultiPoint []Point

// GeomType implements Geometry.
func (m MultiPoint) GeomType() Type { return TypeMultiPoint }

// IsEmpty implements Geometry.
func (m MultiPoint) IsEmpty() bool {
	for _, p := range m {
		if !p.Empty {
			return false
		}
	}
	return true
}

// Dimension implements Geometry.
func (m MultiPoint) Dimension() int { return 0 }

// NumCoords implements Geometry.
func (m MultiPoint) NumCoords() int {
	n := 0
	for _, p := range m {
		n += p.NumCoords()
	}
	return n
}

// Envelope implements Geometry.
func (m MultiPoint) Envelope() Rect {
	r := EmptyRect()
	for _, p := range m {
		r = r.Union(p.Envelope())
	}
	return r
}

// Clone implements Geometry.
func (m MultiPoint) Clone() Geometry {
	out := make(MultiPoint, len(m))
	copy(out, m)
	return out
}

// LineString is a one-dimensional geometry: a polyline with at least two
// coordinates when non-empty.
type LineString []Coord

// GeomType implements Geometry.
func (l LineString) GeomType() Type { return TypeLineString }

// IsEmpty implements Geometry.
func (l LineString) IsEmpty() bool { return len(l) == 0 }

// Dimension implements Geometry.
func (l LineString) Dimension() int { return 1 }

// NumCoords implements Geometry.
func (l LineString) NumCoords() int { return len(l) }

// Envelope implements Geometry.
func (l LineString) Envelope() Rect { return coordsEnvelope(l) }

// Clone implements Geometry.
func (l LineString) Clone() Geometry {
	out := make(LineString, len(l))
	copy(out, l)
	return out
}

// IsClosed reports whether the linestring's endpoints coincide.
func (l LineString) IsClosed() bool {
	return len(l) >= 3 && l[0].Equal(l[len(l)-1])
}

// MultiLineString is a collection of linestrings.
type MultiLineString []LineString

// GeomType implements Geometry.
func (m MultiLineString) GeomType() Type { return TypeMultiLineString }

// IsEmpty implements Geometry.
func (m MultiLineString) IsEmpty() bool {
	for _, l := range m {
		if !l.IsEmpty() {
			return false
		}
	}
	return true
}

// Dimension implements Geometry.
func (m MultiLineString) Dimension() int { return 1 }

// NumCoords implements Geometry.
func (m MultiLineString) NumCoords() int {
	n := 0
	for _, l := range m {
		n += len(l)
	}
	return n
}

// Envelope implements Geometry.
func (m MultiLineString) Envelope() Rect {
	r := EmptyRect()
	for _, l := range m {
		r = r.Union(l.Envelope())
	}
	return r
}

// Clone implements Geometry.
func (m MultiLineString) Clone() Geometry {
	out := make(MultiLineString, len(m))
	for i, l := range m {
		out[i] = l.Clone().(LineString)
	}
	return out
}

// Ring is a closed sequence of coordinates (first equals last). A valid
// ring has at least four coordinates.
type Ring []Coord

// IsClosed reports whether the ring's endpoints coincide.
func (r Ring) IsClosed() bool {
	return len(r) >= 4 && r[0].Equal(r[len(r)-1])
}

// Envelope returns the ring's bounding rectangle.
func (r Ring) Envelope() Rect { return coordsEnvelope(r) }

// Polygon is a two-dimensional geometry: an exterior ring followed by zero
// or more interior rings (holes).
type Polygon []Ring

// GeomType implements Geometry.
func (p Polygon) GeomType() Type { return TypePolygon }

// IsEmpty implements Geometry.
func (p Polygon) IsEmpty() bool { return len(p) == 0 || len(p[0]) == 0 }

// Dimension implements Geometry.
func (p Polygon) Dimension() int { return 2 }

// NumCoords implements Geometry.
func (p Polygon) NumCoords() int {
	n := 0
	for _, r := range p {
		n += len(r)
	}
	return n
}

// Envelope implements Geometry: the union of every ring's envelope, so
// it covers a hole that strays outside the shell too.
func (p Polygon) Envelope() Rect {
	if p.IsEmpty() {
		return EmptyRect()
	}
	r := p[0].Envelope()
	for _, hole := range p[1:] {
		r = r.Union(hole.Envelope())
	}
	return r
}

// Clone implements Geometry.
func (p Polygon) Clone() Geometry {
	out := make(Polygon, len(p))
	for i, r := range p {
		out[i] = append(Ring(nil), r...)
	}
	return out
}

// Shell returns the exterior ring, or nil for an empty polygon.
func (p Polygon) Shell() Ring {
	if len(p) == 0 {
		return nil
	}
	return p[0]
}

// Holes returns the interior rings.
func (p Polygon) Holes() []Ring {
	if len(p) <= 1 {
		return nil
	}
	return p[1:]
}

// MultiPolygon is a collection of polygons.
type MultiPolygon []Polygon

// GeomType implements Geometry.
func (m MultiPolygon) GeomType() Type { return TypeMultiPolygon }

// IsEmpty implements Geometry.
func (m MultiPolygon) IsEmpty() bool {
	for _, p := range m {
		if !p.IsEmpty() {
			return false
		}
	}
	return true
}

// Dimension implements Geometry.
func (m MultiPolygon) Dimension() int { return 2 }

// NumCoords implements Geometry.
func (m MultiPolygon) NumCoords() int {
	n := 0
	for _, p := range m {
		n += p.NumCoords()
	}
	return n
}

// Envelope implements Geometry.
func (m MultiPolygon) Envelope() Rect {
	r := EmptyRect()
	for _, p := range m {
		r = r.Union(p.Envelope())
	}
	return r
}

// Clone implements Geometry.
func (m MultiPolygon) Clone() Geometry {
	out := make(MultiPolygon, len(m))
	for i, p := range m {
		out[i] = p.Clone().(Polygon)
	}
	return out
}

// Collection is a heterogeneous collection of geometries.
type Collection []Geometry

// GeomType implements Geometry.
func (c Collection) GeomType() Type { return TypeGeometryCollection }

// IsEmpty implements Geometry.
func (c Collection) IsEmpty() bool {
	for _, g := range c {
		if !g.IsEmpty() {
			return false
		}
	}
	return true
}

// Dimension implements Geometry.
func (c Collection) Dimension() int {
	d := 0
	for _, g := range c {
		if gd := g.Dimension(); gd > d {
			d = gd
		}
	}
	return d
}

// NumCoords implements Geometry.
func (c Collection) NumCoords() int {
	n := 0
	for _, g := range c {
		n += g.NumCoords()
	}
	return n
}

// Envelope implements Geometry.
func (c Collection) Envelope() Rect {
	r := EmptyRect()
	for _, g := range c {
		r = r.Union(g.Envelope())
	}
	return r
}

// Clone implements Geometry.
func (c Collection) Clone() Geometry {
	out := make(Collection, len(c))
	for i, g := range c {
		out[i] = g.Clone()
	}
	return out
}

func coordsEnvelope(cs []Coord) Rect {
	if len(cs) == 0 {
		return EmptyRect()
	}
	r := Rect{cs[0].X, cs[0].Y, cs[0].X, cs[0].Y}
	for _, c := range cs[1:] {
		if c.X < r.MinX {
			r.MinX = c.X
		}
		if c.X > r.MaxX {
			r.MaxX = c.X
		}
		if c.Y < r.MinY {
			r.MinY = c.Y
		}
		if c.Y > r.MaxY {
			r.MaxY = c.Y
		}
	}
	return r
}

// Compile-time interface checks.
var (
	_ Geometry = Point{}
	_ Geometry = MultiPoint{}
	_ Geometry = LineString{}
	_ Geometry = MultiLineString{}
	_ Geometry = Polygon{}
	_ Geometry = MultiPolygon{}
	_ Geometry = Collection{}
)
