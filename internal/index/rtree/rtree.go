// Package rtree implements an in-memory R-tree spatial index with
// quadratic node splitting, deletion with subtree reinsertion, window and
// k-nearest-neighbour search, and Sort-Tile-Recursive (STR) bulk loading.
//
// Entries associate an axis-aligned rectangle with an opaque int64
// identifier (typically a row id). The tree is not safe for concurrent
// mutation; concurrent readers are safe once loading has finished.
package rtree

import (
	"math"
	"sort"

	"jackpine/internal/geom"
)

// Default node capacity constants.
const (
	defaultMaxEntries = 16
	minFillRatio      = 0.4
)

// Entry is a leaf record: a bounding rectangle and its identifier.
type Entry struct {
	Rect geom.Rect
	ID   int64
}

type node struct {
	leaf     bool
	rects    []geom.Rect
	children []*node // internal nodes
	ids      []int64 // leaf nodes
	rect     geom.Rect
}

// Tree is an R-tree. The zero value is not usable; call New or BulkLoad.
type Tree struct {
	root       *node
	size       int
	maxEntries int
	minEntries int
}

// New returns an empty tree with the given node capacity (entries per
// node). Capacities below 4 use the default of 16.
func New(maxEntries int) *Tree {
	if maxEntries < 4 {
		maxEntries = defaultMaxEntries
	}
	t := &Tree{
		maxEntries: maxEntries,
		minEntries: int(math.Ceil(float64(maxEntries) * minFillRatio)),
	}
	t.root = &node{leaf: true, rect: geom.EmptyRect()}
	return t
}

// Len returns the number of entries.
func (t *Tree) Len() int { return t.size }

// Bounds returns the bounding rectangle of all entries.
func (t *Tree) Bounds() geom.Rect { return t.root.rect }

// Height returns the tree height (1 for a tree that is a single leaf).
func (t *Tree) Height() int {
	h := 1
	for n := t.root; !n.leaf; n = n.children[0] {
		h++
	}
	return h
}

// Insert adds an entry.
func (t *Tree) Insert(r geom.Rect, id int64) {
	if r.IsEmpty() {
		return
	}
	// Descend to the best leaf, recording the path and expanding
	// covering rectangles on the way down.
	n := t.root
	var path []*node
	n.rect = n.rect.Union(r)
	for !n.leaf {
		best := 0
		bestEnl := math.Inf(1)
		bestArea := math.Inf(1)
		for i, cr := range n.rects {
			enl := cr.Union(r).Area() - cr.Area()
			area := cr.Area()
			if enl < bestEnl || (enl == bestEnl && area < bestArea) {
				best, bestEnl, bestArea = i, enl, area
			}
		}
		n.rects[best] = n.rects[best].Union(r)
		path = append(path, n)
		n = n.children[best]
		n.rect = n.rect.Union(r)
	}
	n.rects = append(n.rects, r)
	n.ids = append(n.ids, id)
	t.size++

	// Propagate splits up the recorded path.
	for len(n.rects) > t.maxEntries {
		left, right := t.splitNode(n)
		if len(path) == 0 {
			t.root = &node{
				leaf:     false,
				rects:    []geom.Rect{left.rect, right.rect},
				children: []*node{left, right},
				rect:     left.rect.Union(right.rect),
			}
			return
		}
		p := path[len(path)-1]
		path = path[:len(path)-1]
		for i, c := range p.children {
			if c == n {
				p.children[i] = left
				p.rects[i] = left.rect
				break
			}
		}
		p.children = append(p.children, right)
		p.rects = append(p.rects, right.rect)
		recalcRect(p)
		n = p
	}
}

func recalcRect(n *node) {
	r := geom.EmptyRect()
	for _, cr := range n.rects {
		r = r.Union(cr)
	}
	n.rect = r
}

// splitNode performs a quadratic split, returning two replacement nodes.
func (t *Tree) splitNode(n *node) (*node, *node) {
	count := len(n.rects)
	// Pick seeds: the pair wasting the most area together.
	seed1, seed2 := 0, 1
	worst := math.Inf(-1)
	for i := 0; i < count; i++ {
		for j := i + 1; j < count; j++ {
			waste := n.rects[i].Union(n.rects[j]).Area() - n.rects[i].Area() - n.rects[j].Area()
			if waste > worst {
				worst, seed1, seed2 = waste, i, j
			}
		}
	}
	left := &node{leaf: n.leaf, rect: geom.EmptyRect()}
	right := &node{leaf: n.leaf, rect: geom.EmptyRect()}
	assign := func(dst *node, i int) {
		dst.rects = append(dst.rects, n.rects[i])
		dst.rect = dst.rect.Union(n.rects[i])
		if n.leaf {
			dst.ids = append(dst.ids, n.ids[i])
		} else {
			dst.children = append(dst.children, n.children[i])
		}
	}
	assign(left, seed1)
	assign(right, seed2)
	for i := 0; i < count; i++ {
		if i == seed1 || i == seed2 {
			continue
		}
		remaining := count - i
		switch {
		case len(left.rects)+remaining <= t.minEntries:
			assign(left, i)
		case len(right.rects)+remaining <= t.minEntries:
			assign(right, i)
		default:
			enlL := left.rect.Union(n.rects[i]).Area() - left.rect.Area()
			enlR := right.rect.Union(n.rects[i]).Area() - right.rect.Area()
			switch {
			case enlL < enlR:
				assign(left, i)
			case enlR < enlL:
				assign(right, i)
			case len(left.rects) <= len(right.rects):
				assign(left, i)
			default:
				assign(right, i)
			}
		}
	}
	return left, right
}

// Search invokes fn for every entry whose rectangle intersects query,
// stopping early if fn returns false.
func (t *Tree) Search(query geom.Rect, fn func(Entry) bool) {
	if query.IsEmpty() {
		return
	}
	t.search(t.root, query, fn)
}

func (t *Tree) search(n *node, query geom.Rect, fn func(Entry) bool) bool {
	if !n.rect.Intersects(query) {
		return true
	}
	if n.leaf {
		for i, r := range n.rects {
			if r.Intersects(query) {
				if !fn(Entry{Rect: r, ID: n.ids[i]}) {
					return false
				}
			}
		}
		return true
	}
	for i, r := range n.rects {
		if r.Intersects(query) {
			if !t.search(n.children[i], query, fn) {
				return false
			}
		}
	}
	return true
}

// SearchAll returns the ids of all entries intersecting query.
func (t *Tree) SearchAll(query geom.Rect) []int64 {
	var out []int64
	t.Search(query, func(e Entry) bool {
		out = append(out, e.ID)
		return true
	})
	return out
}

// Delete removes the entry with the given rectangle and id, reporting
// whether it was found. Underfull nodes along the path are dissolved and
// their remaining entries reinserted.
func (t *Tree) Delete(r geom.Rect, id int64) bool {
	leaf, path := t.findLeaf(t.root, nil, r, id)
	if leaf == nil {
		return false
	}
	idx := -1
	for i := range leaf.ids {
		if leaf.ids[i] == id && leaf.rects[i] == r {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false
	}
	leaf.rects = append(leaf.rects[:idx], leaf.rects[idx+1:]...)
	leaf.ids = append(leaf.ids[:idx], leaf.ids[idx+1:]...)
	recalcRect(leaf)
	t.size--

	// Condense: collect orphans from underfull nodes bottom-up.
	var orphans []Entry
	for i := len(path) - 1; i >= 0; i-- {
		p := path[i]
		childIdx := -1
		for j, c := range p.children {
			if (i == len(path)-1 && c == leaf) || (i < len(path)-1 && c == path[i+1]) {
				childIdx = j
				break
			}
		}
		if childIdx < 0 {
			continue
		}
		child := p.children[childIdx]
		if child.leaf && len(child.ids) < t.minEntries ||
			!child.leaf && len(child.children) < 2 {
			collectEntries(child, &orphans)
			p.children = append(p.children[:childIdx], p.children[childIdx+1:]...)
			p.rects = append(p.rects[:childIdx], p.rects[childIdx+1:]...)
		} else {
			p.rects[childIdx] = child.rect
		}
		recalcRect(p)
	}
	// Shrink the root if it has a single child.
	for !t.root.leaf && len(t.root.children) == 1 {
		t.root = t.root.children[0]
	}
	if !t.root.leaf && len(t.root.children) == 0 {
		t.root = &node{leaf: true, rect: geom.EmptyRect()}
	}
	t.size -= len(orphans)
	for _, e := range orphans {
		t.Insert(e.Rect, e.ID)
	}
	return true
}

func collectEntries(n *node, out *[]Entry) {
	if n.leaf {
		for i := range n.ids {
			*out = append(*out, Entry{Rect: n.rects[i], ID: n.ids[i]})
		}
		return
	}
	for _, c := range n.children {
		collectEntries(c, out)
	}
}

// findLeaf locates the leaf containing (r, id), returning it and the path
// of internal nodes from the root.
func (t *Tree) findLeaf(n *node, path []*node, r geom.Rect, id int64) (*node, []*node) {
	if !n.rect.ContainsRect(r) && !n.rect.Intersects(r) {
		return nil, nil
	}
	if n.leaf {
		for i := range n.ids {
			if n.ids[i] == id && n.rects[i] == r {
				return n, path
			}
		}
		return nil, nil
	}
	for i, cr := range n.rects {
		if cr.ContainsRect(r) || cr.Intersects(r) {
			if leaf, p := t.findLeaf(n.children[i], append(path, n), r, id); leaf != nil {
				return leaf, p
			}
		}
	}
	return nil, nil
}

// nnItem is a priority-queue element for nearest-neighbour search.
type nnItem struct {
	dist  float64
	node  *node // nil for entry items
	entry Entry
}

// nnQueue is a binary min-heap on dist. Its push and pop move items
// exactly as container/heap's Push and Pop do, without boxing each item
// in an interface.
type nnQueue []nnItem

func (q *nnQueue) push(it nnItem) {
	h := append(*q, it)
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	*q = h
}

func (q *nnQueue) pop() nnItem {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].dist < h[j].dist {
			j = j2
		}
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	*q = h[:n]
	return h[n]
}

// Nearest visits entries in order of increasing rectangle-to-rectangle
// distance from q (MINDIST, a lower bound on the distance from q to any
// shape inside an entry's rectangle), calling fn with each entry and its
// distance until fn returns false or the tree is exhausted. This is the
// best-first traversal of Hjaltason and Samet's distance browsing.
func (t *Tree) Nearest(q geom.Rect, fn func(Entry, float64) bool) {
	if t.size == 0 {
		return
	}
	pq := append(make(nnQueue, 0, 64), nnItem{dist: t.root.rect.Distance(q), node: t.root})
	for len(pq) > 0 {
		it := pq.pop()
		if it.node == nil {
			if !fn(it.entry, it.dist) {
				return
			}
			continue
		}
		n := it.node
		for i, r := range n.rects {
			if n.leaf {
				pq.push(nnItem{dist: r.Distance(q), entry: Entry{Rect: r, ID: n.ids[i]}})
			} else {
				pq.push(nnItem{dist: r.Distance(q), node: n.children[i]})
			}
		}
	}
}

// KNearest returns the ids of the k entries whose rectangles are nearest
// to p, in increasing distance order.
func (t *Tree) KNearest(p geom.Coord, k int) []int64 {
	if k <= 0 {
		return nil
	}
	out := make([]int64, 0, k)
	t.Nearest(geom.RectFromPoints(p, p), func(e Entry, _ float64) bool {
		out = append(out, e.ID)
		return len(out) < k
	})
	return out
}

// BulkLoad builds a tree from entries using Sort-Tile-Recursive packing,
// which produces near-optimally packed leaves and is much faster than
// repeated insertion.
func BulkLoad(entries []Entry, maxEntries int) *Tree {
	t := New(maxEntries)
	if len(entries) == 0 {
		return t
	}
	es := make([]Entry, len(entries))
	copy(es, entries)
	t.size = len(es)
	t.root = strPack(es, t.maxEntries)
	return t
}

// strPack recursively packs entries into nodes.
func strPack(es []Entry, cap int) *node {
	if len(es) <= cap {
		n := &node{leaf: true, rect: geom.EmptyRect()}
		for _, e := range es {
			n.rects = append(n.rects, e.Rect)
			n.ids = append(n.ids, e.ID)
			n.rect = n.rect.Union(e.Rect)
		}
		return n
	}
	leafCount := int(math.Ceil(float64(len(es)) / float64(cap)))
	sliceCount := int(math.Ceil(math.Sqrt(float64(leafCount))))
	sliceSize := sliceCount * cap

	sort.Slice(es, func(i, j int) bool { return es[i].Rect.Center().X < es[j].Rect.Center().X })
	var children []*node
	for start := 0; start < len(es); start += sliceSize {
		end := start + sliceSize
		if end > len(es) {
			end = len(es)
		}
		slice := es[start:end]
		sort.Slice(slice, func(i, j int) bool { return slice[i].Rect.Center().Y < slice[j].Rect.Center().Y })
		for ls := 0; ls < len(slice); ls += cap {
			le := ls + cap
			if le > len(slice) {
				le = len(slice)
			}
			leaf := &node{leaf: true, rect: geom.EmptyRect()}
			for _, e := range slice[ls:le] {
				leaf.rects = append(leaf.rects, e.Rect)
				leaf.ids = append(leaf.ids, e.ID)
				leaf.rect = leaf.rect.Union(e.Rect)
			}
			children = append(children, leaf)
		}
	}
	return packUp(children, cap)
}

// packUp builds internal levels above the packed leaves.
func packUp(nodes []*node, cap int) *node {
	for len(nodes) > 1 {
		sort.Slice(nodes, func(i, j int) bool { return nodes[i].rect.Center().X < nodes[j].rect.Center().X })
		var next []*node
		groupCount := int(math.Ceil(float64(len(nodes)) / float64(cap)))
		sliceCount := int(math.Ceil(math.Sqrt(float64(groupCount))))
		sliceSize := sliceCount * cap
		for start := 0; start < len(nodes); start += sliceSize {
			end := start + sliceSize
			if end > len(nodes) {
				end = len(nodes)
			}
			slice := nodes[start:end]
			sort.Slice(slice, func(i, j int) bool { return slice[i].rect.Center().Y < slice[j].rect.Center().Y })
			for ls := 0; ls < len(slice); ls += cap {
				le := ls + cap
				if le > len(slice) {
					le = len(slice)
				}
				parent := &node{leaf: false, rect: geom.EmptyRect()}
				for _, c := range slice[ls:le] {
					parent.children = append(parent.children, c)
					parent.rects = append(parent.rects, c.rect)
					parent.rect = parent.rect.Union(c.rect)
				}
				next = append(next, parent)
			}
		}
		nodes = next
	}
	return nodes[0]
}
