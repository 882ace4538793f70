package geom

import "math"

// Rect is an axis-aligned rectangle (a minimum bounding rectangle). The
// empty rectangle is represented with inverted bounds; use EmptyRect to
// construct it and IsEmpty to test for it.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// EmptyRect returns the canonical empty rectangle.
func EmptyRect() Rect {
	return Rect{
		MinX: math.Inf(1), MinY: math.Inf(1),
		MaxX: math.Inf(-1), MaxY: math.Inf(-1),
	}
}

// RectFromPoints returns the smallest rectangle containing both coords.
func RectFromPoints(a, b Coord) Rect {
	return Rect{
		MinX: math.Min(a.X, b.X), MinY: math.Min(a.Y, b.Y),
		MaxX: math.Max(a.X, b.X), MaxY: math.Max(a.Y, b.Y),
	}
}

// IsEmpty reports whether the rectangle contains no points.
func (r Rect) IsEmpty() bool { return r.MinX > r.MaxX || r.MinY > r.MaxY }

// Width returns the extent along X (zero if empty).
func (r Rect) Width() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.MaxX - r.MinX
}

// Height returns the extent along Y (zero if empty).
func (r Rect) Height() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.MaxY - r.MinY
}

// Area returns the rectangle's area (zero if empty).
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Perimeter returns the rectangle's perimeter (zero if empty).
func (r Rect) Perimeter() float64 { return 2 * (r.Width() + r.Height()) }

// Center returns the rectangle's center point.
func (r Rect) Center() Coord {
	return Coord{(r.MinX + r.MaxX) / 2, (r.MinY + r.MaxY) / 2}
}

// Union returns the smallest rectangle containing both r and o.
func (r Rect) Union(o Rect) Rect {
	if r.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return r
	}
	return Rect{
		MinX: math.Min(r.MinX, o.MinX), MinY: math.Min(r.MinY, o.MinY),
		MaxX: math.Max(r.MaxX, o.MaxX), MaxY: math.Max(r.MaxY, o.MaxY),
	}
}

// Intersect returns the overlap of r and o (possibly empty).
func (r Rect) Intersect(o Rect) Rect {
	out := Rect{
		MinX: math.Max(r.MinX, o.MinX), MinY: math.Max(r.MinY, o.MinY),
		MaxX: math.Min(r.MaxX, o.MaxX), MaxY: math.Min(r.MaxY, o.MaxY),
	}
	if out.IsEmpty() {
		return EmptyRect()
	}
	return out
}

// Intersects reports whether r and o share at least one point (boundary
// contact counts).
func (r Rect) Intersects(o Rect) bool {
	if r.IsEmpty() || o.IsEmpty() {
		return false
	}
	return r.MinX <= o.MaxX && o.MinX <= r.MaxX &&
		r.MinY <= o.MaxY && o.MinY <= r.MaxY
}

// ContainsCoord reports whether the coordinate lies inside or on the
// boundary of r.
func (r Rect) ContainsCoord(c Coord) bool {
	return c.X >= r.MinX && c.X <= r.MaxX && c.Y >= r.MinY && c.Y <= r.MaxY
}

// ContainsCoordStrict reports whether the coordinate lies strictly inside r.
func (r Rect) ContainsCoordStrict(c Coord) bool {
	return c.X > r.MinX && c.X < r.MaxX && c.Y > r.MinY && c.Y < r.MaxY
}

// ContainsRect reports whether o lies entirely within r (boundaries may
// touch). An empty o is contained in any non-empty r.
func (r Rect) ContainsRect(o Rect) bool {
	if r.IsEmpty() {
		return false
	}
	if o.IsEmpty() {
		return true
	}
	return o.MinX >= r.MinX && o.MaxX <= r.MaxX &&
		o.MinY >= r.MinY && o.MaxY <= r.MaxY
}

// Expand returns r grown by d on every side. Expanding an empty rectangle
// yields an empty rectangle.
func (r Rect) Expand(d float64) Rect {
	if r.IsEmpty() {
		return r
	}
	out := Rect{r.MinX - d, r.MinY - d, r.MaxX + d, r.MaxY + d}
	if out.IsEmpty() {
		return EmptyRect()
	}
	return out
}

// ExpandCoord returns the smallest rectangle containing r and c.
func (r Rect) ExpandCoord(c Coord) Rect {
	return r.Union(Rect{c.X, c.Y, c.X, c.Y})
}

// Distance returns the minimum distance between two rectangles (zero if
// they intersect).
func (r Rect) Distance(o Rect) float64 {
	if r.IsEmpty() || o.IsEmpty() {
		return math.Inf(1)
	}
	dx := math.Max(0, math.Max(o.MinX-r.MaxX, r.MinX-o.MaxX))
	dy := math.Max(0, math.Max(o.MinY-r.MaxY, r.MinY-o.MaxY))
	return math.Hypot(dx, dy)
}

// ToPolygon converts the rectangle to a counter-clockwise Polygon.
// Degenerate (zero-extent) rectangles still yield a closed ring.
func (r Rect) ToPolygon() Polygon {
	if r.IsEmpty() {
		return Polygon{}
	}
	return Polygon{Ring{
		{r.MinX, r.MinY},
		{r.MaxX, r.MinY},
		{r.MaxX, r.MaxY},
		{r.MinX, r.MaxY},
		{r.MinX, r.MinY},
	}}
}
