// Package btree implements an in-memory B+tree over byte-comparable keys
// mapped to int64 row identifiers. Keys are arbitrary byte strings whose
// lexicographic order defines the index order; the encoding helpers in
// this package produce order-preserving encodings for the SQL layer's
// integer, float and string types.
//
// Duplicate keys are supported: each (key, rowid) pair is a distinct
// entry, kept in (key, rowid) order.
package btree

import (
	"bytes"
	"encoding/binary"
	"math"
)

const order = 64 // max entries per leaf / children per internal node

// Tree is a B+tree index. The zero value is not usable; call New.
type Tree struct {
	root *bnode
	size int
}

type bnode struct {
	leaf     bool
	keys     [][]byte // leaf: entry keys; internal: separator keys
	rowids   []int64  // leaf: entry rowids; internal: separator rowids
	children []*bnode // internal only, len(children) == len(keys)+1
	next     *bnode   // leaf chain for range scans
}

// New returns an empty tree.
func New() *Tree {
	return &Tree{root: &bnode{leaf: true}}
}

// Len returns the number of entries.
func (t *Tree) Len() int { return t.size }

// cmp orders entries by (key, rowid).
func cmp(k1 []byte, r1 int64, k2 []byte, r2 int64) int {
	if c := bytes.Compare(k1, k2); c != 0 {
		return c
	}
	switch {
	case r1 < r2:
		return -1
	case r1 > r2:
		return 1
	default:
		return 0
	}
}

// Insert adds a (key, rowid) entry. Duplicate pairs are stored once.
func (t *Tree) Insert(key []byte, rowid int64) {
	k := append([]byte(nil), key...)
	newChild, sepKey, sepRid := t.insert(t.root, k, rowid)
	if newChild != nil {
		t.root = &bnode{
			leaf:     false,
			keys:     [][]byte{sepKey},
			rowids:   []int64{sepRid},
			children: []*bnode{t.root, newChild},
		}
	}
}

// insert descends and returns a new right sibling and separator when the
// child split.
func (t *Tree) insert(n *bnode, key []byte, rowid int64) (*bnode, []byte, int64) {
	if n.leaf {
		i := n.leafLowerBound(key, rowid)
		if i < len(n.keys) && cmp(n.keys[i], n.rowids[i], key, rowid) == 0 {
			return nil, nil, 0 // duplicate pair
		}
		n.keys = append(n.keys, nil)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = key
		n.rowids = append(n.rowids, 0)
		copy(n.rowids[i+1:], n.rowids[i:])
		n.rowids[i] = rowid
		t.size++
		if len(n.keys) > order {
			return n.splitLeaf()
		}
		return nil, nil, 0
	}
	ci := n.childIndex(key, rowid)
	newChild, sepKey, sepRid := t.insert(n.children[ci], key, rowid)
	if newChild == nil {
		return nil, nil, 0
	}
	n.keys = append(n.keys, nil)
	copy(n.keys[ci+1:], n.keys[ci:])
	n.keys[ci] = sepKey
	n.rowids = append(n.rowids, 0)
	copy(n.rowids[ci+1:], n.rowids[ci:])
	n.rowids[ci] = sepRid
	n.children = append(n.children, nil)
	copy(n.children[ci+2:], n.children[ci+1:])
	n.children[ci+1] = newChild
	if len(n.children) > order {
		return n.splitInternal()
	}
	return nil, nil, 0
}

// leafLowerBound returns the first position with entry >= (key, rowid).
func (n *bnode) leafLowerBound(key []byte, rowid int64) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if cmp(n.keys[mid], n.rowids[mid], key, rowid) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// keyLowerBound returns the first position with key >= the given key,
// ignoring rowids (for range scans).
func (n *bnode) keyLowerBound(key []byte) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(n.keys[mid], key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// childIndex picks the child subtree for (key, rowid). Separators are
// full (key, rowid) pairs, so entries with duplicate keys route
// deterministically.
func (n *bnode) childIndex(key []byte, rowid int64) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if cmp(key, rowid, n.keys[mid], n.rowids[mid]) < 0 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

func (n *bnode) splitLeaf() (*bnode, []byte, int64) {
	mid := len(n.keys) / 2
	right := &bnode{
		leaf:   true,
		keys:   append([][]byte(nil), n.keys[mid:]...),
		rowids: append([]int64(nil), n.rowids[mid:]...),
		next:   n.next,
	}
	n.keys = n.keys[:mid]
	n.rowids = n.rowids[:mid]
	n.next = right
	return right, append([]byte(nil), right.keys[0]...), right.rowids[0]
}

func (n *bnode) splitInternal() (*bnode, []byte, int64) {
	midKey := len(n.keys) / 2
	sep, sepRid := n.keys[midKey], n.rowids[midKey]
	right := &bnode{
		leaf:     false,
		keys:     append([][]byte(nil), n.keys[midKey+1:]...),
		rowids:   append([]int64(nil), n.rowids[midKey+1:]...),
		children: append([]*bnode(nil), n.children[midKey+1:]...),
	}
	n.keys = n.keys[:midKey]
	n.rowids = n.rowids[:midKey]
	n.children = n.children[:midKey+1]
	return right, sep, sepRid
}

// Delete removes the (key, rowid) entry, reporting whether it existed.
// Leaves may become underfull; the tree does not rebalance on delete
// (acceptable for the workloads here, where deletes are rare), but empty
// leaves remain linked and are skipped by scans.
func (t *Tree) Delete(key []byte, rowid int64) bool {
	n := t.root
	for !n.leaf {
		n = n.children[n.childIndex(key, rowid)]
	}
	i := n.leafLowerBound(key, rowid)
	if i >= len(n.keys) || cmp(n.keys[i], n.rowids[i], key, rowid) != 0 {
		return false
	}
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	n.rowids = append(n.rowids[:i], n.rowids[i+1:]...)
	t.size--
	return true
}

// Seek invokes fn for every entry with key exactly equal to key, in rowid
// order, stopping early if fn returns false.
func (t *Tree) Seek(key []byte, fn func(rowid int64) bool) {
	t.Range(key, key, true, true, func(_ []byte, rowid int64) bool {
		return fn(rowid)
	})
}

// SeekAll returns all rowids with the exact key.
func (t *Tree) SeekAll(key []byte) []int64 {
	var out []int64
	t.Seek(key, func(r int64) bool {
		out = append(out, r)
		return true
	})
	return out
}

// Range invokes fn for entries with lo <= key <= hi (bounds inclusive
// according to loInc/hiInc; a nil lo means unbounded below, nil hi
// unbounded above), in key order, stopping early if fn returns false.
func (t *Tree) Range(lo, hi []byte, loInc, hiInc bool, fn func(key []byte, rowid int64) bool) {
	n := t.root
	for !n.leaf {
		idx := 0
		if lo != nil {
			idx = n.keyLowerBound(lo)
			// Descend left of the first separator >= lo.
		}
		n = n.children[idx]
	}
	start := 0
	if lo != nil {
		start = n.keyLowerBound(lo)
	}
	for ; n != nil; n = n.next {
		for i := start; i < len(n.keys); i++ {
			k := n.keys[i]
			if lo != nil {
				c := bytes.Compare(k, lo)
				if c < 0 || (c == 0 && !loInc) {
					continue
				}
			}
			if hi != nil {
				c := bytes.Compare(k, hi)
				if c > 0 || (c == 0 && !hiInc) {
					return
				}
			}
			if !fn(k, n.rowids[i]) {
				return
			}
		}
		start = 0
	}
}

// Min returns the smallest key and its rowid, or ok=false when empty.
func (t *Tree) Min() (key []byte, rowid int64, ok bool) {
	n := t.root
	for !n.leaf {
		n = n.children[0]
	}
	for ; n != nil; n = n.next {
		if len(n.keys) > 0 {
			return n.keys[0], n.rowids[0], true
		}
	}
	return nil, 0, false
}

// --- order-preserving key encodings -----------------------------------

// EncodeInt encodes a signed integer so byte order matches numeric order.
func EncodeInt(v int64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(v)^(1<<63))
	return b[:]
}

// EncodeFloat encodes a float64 so byte order matches numeric order.
// It follows storage.Compare: -0 encodes as +0, and every NaN, whatever
// its sign and payload, encodes as one key that sorts after +Inf.
func EncodeFloat(v float64) []byte {
	switch {
	case v == 0:
		v = 0
	case math.IsNaN(v):
		v = math.NaN()
	}
	bits := math.Float64bits(v)
	if bits&(1<<63) != 0 {
		bits = ^bits
	} else {
		bits |= 1 << 63
	}
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], bits)
	return b[:]
}

// EncodeString encodes a string; raw bytes already sort correctly.
// Only safe for single-component keys — composite keys must use
// AppendText, whose framing keeps components from bleeding into each
// other.
func EncodeString(s string) []byte { return []byte(s) }

// --- composite-key component encodings ---------------------------------
//
// Composite keys concatenate per-column components. Fixed-width numeric
// components concatenate directly; text components are escaped
// (0x00 → 0x00 0xFF) and terminated (0x00 0x00) so that ("ab","c") and
// ("a","bc") encode differently and order is preserved.

// AppendInt appends the order-preserving integer encoding.
func AppendInt(dst []byte, v int64) []byte {
	return append(dst, EncodeInt(v)...)
}

// AppendFloat appends the order-preserving float encoding.
func AppendFloat(dst []byte, v float64) []byte {
	return append(dst, EncodeFloat(v)...)
}

// AppendText appends the escaped, terminated text encoding.
func AppendText(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if s[i] == 0x00 {
			dst = append(dst, 0x00, 0xFF)
		} else {
			dst = append(dst, s[i])
		}
	}
	return append(dst, 0x00, 0x00)
}

// PrefixSuccessor returns the smallest key greater than every key with
// the given prefix, or nil when no such key exists (all-0xFF prefixes).
// Range(prefix, PrefixSuccessor(prefix), true, false) scans exactly the
// keys sharing the prefix.
func PrefixSuccessor(prefix []byte) []byte {
	out := append([]byte(nil), prefix...)
	for i := len(out) - 1; i >= 0; i-- {
		if out[i] != 0xFF {
			out[i]++
			return out[:i+1]
		}
	}
	return nil
}
