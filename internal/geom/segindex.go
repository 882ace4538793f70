package geom

// indexMinSegs is the segment count below which a SegIndex builds no
// tree: for small lists the plain loop over the envelopes beats the
// tree probes.
const indexMinSegs = 32

// segFanout is the number of entries under each tree node, 1<<segShift.
const (
	segShift  = 3
	segFanout = 1 << segShift
)

// SegIndex is a read-only index over the envelopes of a segment list,
// built once by NewSegIndex: the segment-level MBR filter of
// filter-then-refine. It answers window searches and enumerates the
// segment pairs whose envelopes intersect; the caller refines each
// candidate with exact segment geometry. Both visit exactly the
// positions Rect.Intersects accepts, in ascending order, so an index
// never changes a caller's candidates or their order. A SegIndex is
// safe for concurrent readers.
//
// Lists of indexMinSegs or more segments get a tree packed in list
// order: each node bounds segFanout consecutive entries of the level
// below. The lists indexed here are rings and lines, whose consecutive
// segments are neighbours, so runs along the chain make tight nodes
// (the idea of monotone chains) without the sort an STR packing needs,
// and a depth-first search yields positions in list order. Shorter
// lists are scanned.
//
// It does not reuse index/rtree, which imports geom, and it needs none
// of rtree's insertion, deletion, reordering or int64 ids.
type SegIndex struct {
	envs   []Rect // the segments' envelopes, in list order
	bounds Rect   // union of envs

	// The tree above envs, nil below indexMinSegs: entry k of a level
	// bounds entries k*segFanout up to (k+1)*segFanout of the level
	// below, levels[0] bounding envs. The last level has at most
	// segFanout entries. Keeping envs out of it lets a caller's stack
	// buffer of envelopes stay on the stack.
	levels [][]Rect
}

// NewSegIndex indexes envs, which the index keeps and the caller must
// not change afterwards.
func NewSegIndex(envs []Rect) SegIndex {
	x := SegIndex{envs: envs, bounds: EmptyRect()}
	for _, e := range envs {
		x.bounds = grow(x.bounds, e)
	}
	if len(envs) < indexMinSegs {
		return x
	}
	for level := envs; len(level) > segFanout; {
		up := make([]Rect, (len(level)+segFanout-1)/segFanout)
		for k := range up {
			r := EmptyRect()
			for _, e := range level[k*segFanout : min((k+1)*segFanout, len(level))] {
				r = grow(r, e)
			}
			up[k] = r
		}
		x.levels = append(x.levels, up)
		level = up
	}
	return x
}

// grow extends r by e with plain comparisons, which skip NaN bounds: the
// result still covers every envelope Rect.Intersects can accept, and no
// NaN reaches the bounds, which Pairs tests first, and hides a match.
func grow(r, e Rect) Rect {
	if e.MinX < r.MinX {
		r.MinX = e.MinX
	}
	if e.MinY < r.MinY {
		r.MinY = e.MinY
	}
	if e.MaxX > r.MaxX {
		r.MaxX = e.MaxX
	}
	if e.MaxY > r.MaxY {
		r.MaxY = e.MaxY
	}
	return r
}

// Packed reports whether the index holds a tree, that is whether the
// list has at least indexMinSegs segments.
func (x *SegIndex) Packed() bool { return x.levels != nil }

// Search calls fn with the list position of every segment whose
// envelope intersects q, in ascending order, until fn returns false,
// and reports whether it ran to the end.
func (x *SegIndex) Search(q Rect, fn func(j int) bool) bool {
	if x.levels == nil {
		for j := range x.envs {
			if q.Intersects(x.envs[j]) && !fn(j) {
				return false
			}
		}
		return true
	}
	return q.IsEmpty() || x.searchTree(q, 0, fn)
}

// searchTree is Search through the tree from position from up, for a
// non-empty q.
func (x *SegIndex) searchTree(q Rect, from int, fn func(j int) bool) bool {
	top := len(x.levels)
	return x.search(top, 0, len(x.levels[top-1]), from, q, fn)
}

// search visits entries lo..hi-1 of one level for a non-empty q,
// skipping those that bound only positions below from. Level 0 is
// envs, level l above it levels[l-1]. A node is skipped only when q
// lies wholly to one side of it, so that no envelope it bounds can
// meet q; segments run the exact test.
func (x *SegIndex) search(level, lo, hi, from int, q Rect, fn func(j int) bool) bool {
	// Entry k of this level bounds positions k<<(segShift*level) up to
	// (k+1)<<(segShift*level).
	k := max(lo, from>>(segShift*level))
	if level == 0 {
		for ; k < hi; k++ {
			if q.Intersects(x.envs[k]) && !fn(k) {
				return false
			}
		}
		return true
	}
	rs, below := x.levels[level-1], len(x.envs)
	if level > 1 {
		below = len(x.levels[level-2])
	}
	for ; k < hi; k++ {
		if r := &rs[k]; r.MinX > q.MaxX || q.MinX > r.MaxX || r.MinY > q.MaxY || q.MinY > r.MaxY {
			continue
		}
		if !x.search(level-1, k<<segShift, min((k+1)<<segShift, below), from, q, fn) {
			return false
		}
	}
	return true
}

// Pairs calls fn(i, j) for every envs[i] and indexed segment j whose
// envelopes intersect, in nested-loop order: i ascending, then j
// ascending. It stops when fn returns false and reports whether it ran
// to the end. The index is over the second operand: a caller holding
// an index for one side (cached, or the cheaper to build) passes that
// side second and swaps the positions back in fn.
func (x *SegIndex) Pairs(envs []Rect, fn func(i, j int) bool) bool {
	return x.pairs(envs, false, fn)
}

// SelfPairs is Pairs of the indexed list against itself, restricted to
// i < j: every unordered pair of distinct positions once.
func (x *SegIndex) SelfPairs(fn func(i, j int) bool) bool {
	return x.pairs(x.envs, true, fn)
}

// pairs is Pairs, visiting only j > i when self is set.
func (x *SegIndex) pairs(envs []Rect, self bool, fn func(i, j int) bool) bool {
	for i, e := range envs {
		if !e.Intersects(x.bounds) {
			continue
		}
		from := 0
		if self {
			from = i + 1
		}
		if x.levels != nil {
			if !x.searchTree(e, from, func(j int) bool { return fn(i, j) }) {
				return false
			}
			continue
		}
		// The scan inline: for short lists the calls would cost more
		// than the envelope tests.
		for j := from; j < len(x.envs); j++ {
			if e.Intersects(x.envs[j]) && !fn(i, j) {
				return false
			}
		}
	}
	return true
}
