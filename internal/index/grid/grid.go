// Package grid implements a fixed uniform grid spatial index: the
// indexed extent is divided into nx × ny cells, and each entry's
// rectangle is registered in every cell it overlaps. Window searches
// collect candidates from the covered cells and deduplicate.
//
// The grid reproduces the index style of systems that predate R-trees or
// use quadtree/grid tessellation; it degrades on skewed data, which is
// one of the effects the Jackpine benchmark surfaces.
package grid

import (
	"container/heap"
	"math"

	"jackpine/internal/geom"
)

// Entry is a grid record: a bounding rectangle and its identifier.
type Entry struct {
	Rect geom.Rect
	ID   int64
}

// Index is a fixed uniform grid. Create with New; not safe for concurrent
// mutation.
type Index struct {
	extent   geom.Rect
	nx, ny   int
	cellW    float64
	cellH    float64
	cells    [][]Entry
	overflow []Entry // entries outside the declared extent
	size     int
}

// New creates a grid over extent with nx × ny cells. Dimensions below 1
// are clamped to 1; an empty extent yields a grid where every entry lands
// in the overflow list (searches still work, at O(n)).
func New(extent geom.Rect, nx, ny int) *Index {
	if nx < 1 {
		nx = 1
	}
	if ny < 1 {
		ny = 1
	}
	g := &Index{extent: extent, nx: nx, ny: ny}
	if !extent.IsEmpty() && extent.Width() > 0 && extent.Height() > 0 {
		g.cellW = extent.Width() / float64(nx)
		g.cellH = extent.Height() / float64(ny)
		g.cells = make([][]Entry, nx*ny)
	}
	return g
}

// Len returns the number of entries.
func (g *Index) Len() int { return g.size }

// cellRange returns the covered cell index ranges, or ok=false when the
// rectangle is outside the grid extent entirely.
func (g *Index) cellRange(r geom.Rect) (x0, x1, y0, y1 int, ok bool) {
	if g.cells == nil || !r.Intersects(g.extent) {
		return 0, 0, 0, 0, false
	}
	x0, x1, y0, y1 = g.clampedRange(r)
	return x0, x1, y0, y1, true
}

// clampedRange returns the cell index ranges covering r, each clamped to
// the grid: a rectangle outside the extent maps to the nearest cells.
// The clamp happens in float: converting a cell number beyond int's
// range (an infinite or ~1e19-cell side) to int is undefined.
func (g *Index) clampedRange(r geom.Rect) (x0, x1, y0, y1 int) {
	cell := func(v, lo, size float64, n int) int {
		return int(max(0, min(float64(n-1), math.Floor((v-lo)/size))))
	}
	return cell(r.MinX, g.extent.MinX, g.cellW, g.nx), cell(r.MaxX, g.extent.MinX, g.cellW, g.nx),
		cell(r.MinY, g.extent.MinY, g.cellH, g.ny), cell(r.MaxY, g.extent.MinY, g.cellH, g.ny)
}

// Insert adds an entry. Rectangles that do not intersect the grid extent
// go to the overflow list.
func (g *Index) Insert(r geom.Rect, id int64) {
	if r.IsEmpty() {
		return
	}
	g.size++
	x0, x1, y0, y1, ok := g.cellRange(r)
	if !ok {
		g.overflow = append(g.overflow, Entry{Rect: r, ID: id})
		return
	}
	e := Entry{Rect: r, ID: id}
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			idx := y*g.nx + x
			g.cells[idx] = append(g.cells[idx], e)
		}
	}
	// Entries partially outside the extent must also be findable by
	// queries entirely outside it.
	if !g.extent.ContainsRect(r) {
		g.overflow = append(g.overflow, e)
	}
}

// Delete removes the entry, reporting whether it was present.
func (g *Index) Delete(r geom.Rect, id int64) bool {
	found := false
	remove := func(list []Entry) []Entry {
		for i := range list {
			if list[i].ID == id && list[i].Rect == r {
				found = true
				return append(list[:i], list[i+1:]...)
			}
		}
		return list
	}
	if x0, x1, y0, y1, ok := g.cellRange(r); ok {
		for y := y0; y <= y1; y++ {
			for x := x0; x <= x1; x++ {
				g.cells[y*g.nx+x] = remove(g.cells[y*g.nx+x])
			}
		}
	}
	g.overflow = remove(g.overflow)
	if found {
		g.size--
	}
	return found
}

// Search invokes fn for every entry whose rectangle intersects query,
// stopping early if fn returns false. Entries spanning multiple cells are
// reported once.
func (g *Index) Search(query geom.Rect, fn func(Entry) bool) {
	if query.IsEmpty() {
		return
	}
	seen := make(map[int64]bool)
	emit := func(e Entry) bool {
		if seen[e.ID] || !e.Rect.Intersects(query) {
			return true
		}
		seen[e.ID] = true
		return fn(e)
	}
	if x0, x1, y0, y1, ok := g.cellRange(query); ok {
		for y := y0; y <= y1; y++ {
			for x := x0; x <= x1; x++ {
				for _, e := range g.cells[y*g.nx+x] {
					if !emit(e) {
						return
					}
				}
			}
		}
	}
	for _, e := range g.overflow {
		if !emit(e) {
			return
		}
	}
}

// SearchAll returns the ids of all entries intersecting query.
func (g *Index) SearchAll(query geom.Rect) []int64 {
	var out []int64
	g.Search(query, func(e Entry) bool {
		out = append(out, e.ID)
		return true
	})
	return out
}

// Nearest visits entries in non-decreasing rectangle-to-rectangle
// distance from q (MINDIST), calling fn with each entry and its distance
// until fn returns false. It searches square rings of cells outward from
// the cells q covers; every entry found, and every overflow entry from
// the start, waits in a queue ordered by distance, and the queue's head is
// delivered only once no entry in an unsearched cell can be nearer: its
// distance is at most q's distance to the part of the extent outside the
// rings searched so far.
func (g *Index) Nearest(q geom.Rect, fn func(Entry, float64) bool) {
	if g.size == 0 || q.IsEmpty() {
		return
	}
	seen := make(map[int64]bool)
	pq := &entryQueue{}
	push := func(es []Entry) {
		for _, e := range es {
			if !seen[e.ID] {
				seen[e.ID] = true
				heap.Push(pq, queued{e, e.Rect.Distance(q)})
			}
		}
	}
	// deliver hands over every queued entry within reach.
	deliver := func(reach float64) bool {
		for pq.Len() > 0 && (*pq)[0].d <= reach {
			c := heap.Pop(pq).(queued)
			if !fn(c.e, c.d) {
				return false
			}
		}
		return true
	}
	push(g.overflow)
	if g.cells != nil {
		x0, x1, y0, y1 := g.clampedRange(q)
		for ring := 0; ; ring++ {
			for y := y0 - ring; y <= y1+ring; y++ {
				if y < 0 || y >= g.ny {
					continue
				}
				// Rows strictly inside the ring contribute its two end cells.
				step := 1
				if ring > 0 && y > y0-ring && y < y1+ring {
					step = x1 - x0 + 2*ring
				}
				for x := x0 - ring; x <= x1+ring; x += step {
					if x >= 0 && x < g.nx {
						push(g.cells[y*g.nx+x])
					}
				}
			}
			reach := g.reach(q, x0-ring, x1+ring, y0-ring, y1+ring)
			if !deliver(reach) || math.IsInf(reach, 1) {
				return
			}
		}
	}
	deliver(math.Inf(1))
}

// reach is a lower bound on the distance from q to any entry registered
// only in cells outside columns x0..x1 and rows y0..y1: q's distance to
// the strips of the extent beyond them, less a margin for the rounding
// of cell assignment; +Inf when those cells cover the whole grid.
func (g *Index) reach(q geom.Rect, x0, x1, y0, y1 int) float64 {
	e := g.extent
	d := math.Inf(1)
	strip := func(ok bool, s geom.Rect) {
		if ok {
			d = math.Min(d, q.Distance(s))
		}
	}
	strip(x0 > 0, geom.Rect{MinX: e.MinX, MinY: e.MinY, MaxX: e.MinX + float64(x0)*g.cellW, MaxY: e.MaxY})
	strip(x1 < g.nx-1, geom.Rect{MinX: e.MinX + float64(x1+1)*g.cellW, MinY: e.MinY, MaxX: e.MaxX, MaxY: e.MaxY})
	strip(y0 > 0, geom.Rect{MinX: e.MinX, MinY: e.MinY, MaxX: e.MaxX, MaxY: e.MinY + float64(y0)*g.cellH})
	strip(y1 < g.ny-1, geom.Rect{MinX: e.MinX, MinY: e.MinY + float64(y1+1)*g.cellH, MaxX: e.MaxX, MaxY: e.MaxY})
	return d - 1e-9*(math.Abs(e.MinX)+math.Abs(e.MaxX)+math.Abs(e.MinY)+math.Abs(e.MaxY))
}

// queued is an entry waiting in Nearest's queue at distance d.
type queued struct {
	e Entry
	d float64
}

// entryQueue is a min-heap of queued entries by distance.
type entryQueue []queued

func (q entryQueue) Len() int           { return len(q) }
func (q entryQueue) Less(i, j int) bool { return q[i].d < q[j].d }
func (q entryQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *entryQueue) Push(x any)        { *q = append(*q, x.(queued)) }
func (q *entryQueue) Pop() any          { old := *q; n := len(old); c := old[n-1]; *q = old[:n-1]; return c }
