package cluster

import (
	"fmt"

	"jackpine/internal/geom"
)

// Partitioner maps geometries to shards by location: the configured
// extent is tiled into a Gx × Gy grid with one cell per shard, and a
// feature belongs to the shard whose cell contains its envelope centre.
// Assignment is disjoint — every feature lives on exactly one shard —
// so counts, sums and DML semantics survive partitioning unchanged;
// features may of course overhang their cell, which is why shard
// pruning uses measured data MBRs rather than cell rectangles.
type Partitioner struct {
	// Extent is the tiled region. Features whose centre falls outside
	// are clamped to the border cells.
	Extent geom.Rect
	// Gx, Gy are the grid dimensions; Gx*Gy is the shard count.
	Gx, Gy int
}

// NewPartitioner tiles the extent into shards cells, choosing the
// squarest factorisation (1→1×1, 2→1×2, 4→2×2, 8→2×4, 6→2×3 …).
func NewPartitioner(extent geom.Rect, shards int) (Partitioner, error) {
	if shards < 1 {
		return Partitioner{}, fmt.Errorf("cluster: need at least 1 shard, got %d", shards)
	}
	gx := 1
	for d := 2; d*d <= shards; d++ {
		if shards%d == 0 {
			gx = d
		}
	}
	return Partitioner{Extent: extent, Gx: gx, Gy: shards / gx}, nil
}

// Shards returns the number of shards (grid cells).
func (p Partitioner) Shards() int { return p.Gx * p.Gy }

// Assign returns the owning shard of a geometry. NULL-like (nil or
// empty) geometries deterministically map to shard 0.
func (p Partitioner) Assign(g geom.Geometry) int {
	if g == nil {
		return 0
	}
	env := g.Envelope()
	if env.IsEmpty() {
		return 0
	}
	return p.AssignPoint(env.Center())
}

// AssignPoint returns the owning shard of a reference point.
func (p Partitioner) AssignPoint(c geom.Coord) int {
	cx := cellIndex(c.X, p.Extent.MinX, p.Extent.MaxX, p.Gx)
	cy := cellIndex(c.Y, p.Extent.MinY, p.Extent.MaxY, p.Gy)
	return cy*p.Gx + cx
}

// CellRect returns shard i's grid cell rectangle. Rows are assigned by
// envelope centre, so a row's geometry may overhang its cell, and a
// border cell also owns everything beyond the extent on its outer
// sides. The join-pushdown spill test therefore reads only the edges
// this rectangle shares with another cell, never the outer ones, and
// never trusts the rectangle as a data bound.
func (p Partitioner) CellRect(shard int) geom.Rect {
	cx, cy := shard%p.Gx, shard/p.Gx
	w := (p.Extent.MaxX - p.Extent.MinX) / float64(p.Gx)
	h := (p.Extent.MaxY - p.Extent.MinY) / float64(p.Gy)
	return geom.Rect{
		MinX: p.Extent.MinX + float64(cx)*w,
		MinY: p.Extent.MinY + float64(cy)*h,
		MaxX: p.Extent.MinX + float64(cx+1)*w,
		MaxY: p.Extent.MinY + float64(cy+1)*h,
	}
}

// cellIndex locates v in [lo, hi) split into n equal cells, clamped.
func cellIndex(v, lo, hi float64, n int) int {
	if n <= 1 || hi <= lo {
		return 0
	}
	i := int((v - lo) / (hi - lo) * float64(n))
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}
