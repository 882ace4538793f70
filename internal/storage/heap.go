package storage

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// overflowMarker is the first byte of an inline record that points to an
// overflow chain. Tuple encodings always begin with a ValueType byte
// (< 0x80), so the marker cannot collide.
const overflowMarker = 0xFF

// Overflow chain page layout: next page id (u32), the page-LSN stamp
// word (u32, bytes 4-8 as in every page type — see SetPageLSN), data
// length (u16), then data.
const (
	ovfHeaderSize = 10
	ovfDataCap    = PageSize - ovfHeaderSize
	ovfNoNext     = 0xFFFFFFFF
)

// HeapFile stores tuples in slotted pages obtained from a buffer pool.
// Tuples larger than MaxInlineTuple spill to overflow page chains.
// Safe for concurrent use.
type HeapFile struct {
	pool *BufferPool

	mu       sync.RWMutex
	pages    []uint32 // data pages, in allocation order
	lastPage int      // index into pages with likely free space
	count    int
}

// NewHeapFile creates an empty heap over the pool.
func NewHeapFile(pool *BufferPool) *HeapFile {
	return &HeapFile{pool: pool, lastPage: -1}
}

// OpenHeapFile reattaches a heap to data pages persisted earlier (see
// Pages/LastPage): the page list and insertion cursor are restored
// verbatim, so record ids and future insert placement match the heap
// that was closed, and the live-tuple count is recomputed by scanning
// the slot directories (tombstones excluded, overflow chains not
// followed — the inline pointer is the live record).
func OpenHeapFile(pool *BufferPool, pages []uint32, lastPage int) (*HeapFile, error) {
	if lastPage < -1 || lastPage >= len(pages) {
		return nil, fmt.Errorf("storage: heap cursor %d out of range (%d pages)", lastPage, len(pages))
	}
	h := &HeapFile{pool: pool, pages: append([]uint32(nil), pages...), lastPage: lastPage}
	for _, pid := range h.pages {
		buf, err := pool.Pin(pid)
		if err != nil {
			return nil, err
		}
		p := page{buf}
		n := p.numSlots()
		for s := 0; s < n; s++ {
			if p.read(s) != nil {
				h.count++
			}
		}
		pool.Unpin(pid, false)
	}
	return h, nil
}

// Pages returns a copy of the heap's data page ids in allocation order
// (excluding overflow pages), for persisting in a catalog.
func (h *HeapFile) Pages() []uint32 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return append([]uint32(nil), h.pages...)
}

// LastPage returns the index into Pages of the insertion cursor
// (-1 for an empty heap).
func (h *HeapFile) LastPage() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.lastPage
}

// Count returns the number of live tuples.
func (h *HeapFile) Count() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.count
}

// NumPages returns the number of data pages (excluding overflow pages).
func (h *HeapFile) NumPages() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.pages)
}

// Insert stores a tuple and returns its record id.
func (h *HeapFile) Insert(tuple []byte) (RecordID, error) {
	inline := tuple
	if len(tuple) > MaxInlineTuple {
		ptr, err := h.writeOverflow(tuple)
		if err != nil {
			return RecordID{}, err
		}
		inline = ptr
	}
	h.mu.Lock()
	defer h.mu.Unlock()

	try := func(pageIdx int) (RecordID, bool, error) {
		pid := h.pages[pageIdx]
		buf, err := h.pool.Pin(pid)
		if err != nil {
			return RecordID{}, false, err
		}
		slot := page{buf}.insert(inline)
		h.pool.Unpin(pid, slot >= 0)
		if slot < 0 {
			return RecordID{}, false, nil
		}
		h.lastPage = pageIdx
		h.count++
		return RecordID{Page: pid, Slot: uint16(slot)}, true, nil
	}

	if h.lastPage >= 0 && h.lastPage < len(h.pages) {
		if rid, ok, err := try(h.lastPage); err != nil || ok {
			return rid, err
		}
	}
	// Allocate a fresh page.
	pid, err := h.pool.Allocate()
	if err != nil {
		return RecordID{}, err
	}
	buf, err := h.pool.Pin(pid)
	if err != nil {
		return RecordID{}, err
	}
	initPage(buf)
	slot := page{buf}.insert(inline)
	h.pool.Unpin(pid, true)
	if slot < 0 {
		return RecordID{}, fmt.Errorf("storage: tuple of %d bytes does not fit a fresh page", len(inline))
	}
	h.pages = append(h.pages, pid)
	h.lastPage = len(h.pages) - 1
	h.count++
	return RecordID{Page: pid, Slot: uint16(slot)}, nil
}

// writeOverflow stores data across a chain of overflow pages and returns
// the inline pointer record.
func (h *HeapFile) writeOverflow(data []byte) ([]byte, error) {
	// Allocate the chain first so each page can point to the next.
	n := (len(data) + ovfDataCap - 1) / ovfDataCap
	ids := make([]uint32, n)
	for i := range ids {
		id, err := h.pool.Allocate()
		if err != nil {
			return nil, err
		}
		ids[i] = id
	}
	rest := data
	for i, id := range ids {
		chunk := rest
		if len(chunk) > ovfDataCap {
			chunk = chunk[:ovfDataCap]
		}
		rest = rest[len(chunk):]
		buf, err := h.pool.Pin(id)
		if err != nil {
			return nil, err
		}
		next := uint32(ovfNoNext)
		if i+1 < len(ids) {
			next = ids[i+1]
		}
		binary.LittleEndian.PutUint32(buf[0:], next)
		binary.LittleEndian.PutUint16(buf[8:], uint16(len(chunk)))
		copy(buf[ovfHeaderSize:], chunk)
		h.pool.Unpin(id, true)
	}
	ptr := make([]byte, 1+4+4)
	ptr[0] = overflowMarker
	binary.LittleEndian.PutUint32(ptr[1:], ids[0])
	binary.LittleEndian.PutUint32(ptr[5:], uint32(len(data)))
	return ptr, nil
}

// readOverflow follows an overflow chain.
func (h *HeapFile) readOverflow(ptr []byte) ([]byte, error) {
	if len(ptr) != 9 {
		return nil, fmt.Errorf("storage: bad overflow pointer length %d", len(ptr))
	}
	id := binary.LittleEndian.Uint32(ptr[1:])
	total := int(binary.LittleEndian.Uint32(ptr[5:]))
	out := make([]byte, 0, total)
	for id != ovfNoNext {
		buf, err := h.pool.Pin(id)
		if err != nil {
			return nil, err
		}
		next := binary.LittleEndian.Uint32(buf[0:])
		l := int(binary.LittleEndian.Uint16(buf[8:]))
		out = append(out, buf[ovfHeaderSize:ovfHeaderSize+l]...)
		h.pool.Unpin(id, false)
		id = next
		if len(out) > total {
			return nil, fmt.Errorf("storage: overflow chain longer than declared %d bytes", total)
		}
	}
	if len(out) != total {
		return nil, fmt.Errorf("storage: overflow chain has %d bytes, declared %d", len(out), total)
	}
	return out, nil
}

// Get returns a copy of the tuple at rid, or an error if the slot is
// empty or out of range.
func (h *HeapFile) Get(rid RecordID) ([]byte, error) {
	buf, err := h.pool.Pin(rid.Page)
	if err != nil {
		return nil, err
	}
	raw := page{buf}.read(int(rid.Slot))
	if raw == nil {
		h.pool.Unpin(rid.Page, false)
		return nil, fmt.Errorf("storage: no tuple at %s", rid)
	}
	if raw[0] == overflowMarker {
		ptr := append([]byte(nil), raw...)
		h.pool.Unpin(rid.Page, false)
		return h.readOverflow(ptr)
	}
	out := append([]byte(nil), raw...)
	h.pool.Unpin(rid.Page, false)
	return out, nil
}

// GetAppend appends the tuple at rid to dst and returns the extended
// slice. It is Get without the per-call allocation: batch fetches reuse
// one scratch buffer across an id chunk instead of allocating a copy
// per row.
func (h *HeapFile) GetAppend(dst []byte, rid RecordID) ([]byte, error) {
	buf, err := h.pool.Pin(rid.Page)
	if err != nil {
		return dst, err
	}
	raw := page{buf}.read(int(rid.Slot))
	if raw == nil {
		h.pool.Unpin(rid.Page, false)
		return dst, fmt.Errorf("storage: no tuple at %s", rid)
	}
	if raw[0] == overflowMarker {
		ptr := append([]byte(nil), raw...)
		h.pool.Unpin(rid.Page, false)
		full, err := h.readOverflow(ptr)
		if err != nil {
			return dst, err
		}
		return append(dst, full...), nil
	}
	dst = append(dst, raw...)
	h.pool.Unpin(rid.Page, false)
	return dst, nil
}

// Delete removes the tuple at rid. Overflow pages are abandoned (they
// are reclaimed only by rebuilding the table).
func (h *HeapFile) Delete(rid RecordID) error {
	buf, err := h.pool.Pin(rid.Page)
	if err != nil {
		return err
	}
	ok := page{buf}.delete(int(rid.Slot))
	h.pool.Unpin(rid.Page, ok)
	if !ok {
		return fmt.Errorf("storage: no tuple at %s", rid)
	}
	h.mu.Lock()
	h.count--
	h.mu.Unlock()
	return nil
}

// Scan calls fn for every live tuple in heap order, stopping early when
// fn returns false. The tuple slice passed to fn is only valid during
// the call.
func (h *HeapFile) Scan(fn func(rid RecordID, tuple []byte) bool) error {
	h.mu.RLock()
	pages := append([]uint32(nil), h.pages...)
	h.mu.RUnlock()
	return h.scanPages(pages, fn)
}

// ScanShard calls fn for every live tuple in the shard'th of nshards
// page partitions. Partitions are contiguous page ranges, so visiting
// shards 0..nshards-1 in order reproduces exactly the tuples (and
// order) of Scan. Shards are disjoint; safe for concurrent use.
func (h *HeapFile) ScanShard(shard, nshards int, fn func(rid RecordID, tuple []byte) bool) error {
	if nshards < 1 || shard < 0 || shard >= nshards {
		return fmt.Errorf("storage: shard %d of %d out of range", shard, nshards)
	}
	h.mu.RLock()
	lo := shard * len(h.pages) / nshards
	hi := (shard + 1) * len(h.pages) / nshards
	pages := append([]uint32(nil), h.pages[lo:hi]...)
	h.mu.RUnlock()
	return h.scanPages(pages, fn)
}

// scanPages drives Scan/ScanShard over the given data pages.
func (h *HeapFile) scanPages(pages []uint32, fn func(rid RecordID, tuple []byte) bool) error {
	for _, pid := range pages {
		buf, err := h.pool.Pin(pid)
		if err != nil {
			return err
		}
		p := page{buf}
		n := p.numSlots()
		for s := 0; s < n; s++ {
			raw := p.read(s)
			if raw == nil {
				continue
			}
			rid := RecordID{Page: pid, Slot: uint16(s)}
			if raw[0] == overflowMarker {
				ptr := append([]byte(nil), raw...)
				h.pool.Unpin(pid, false)
				full, err := h.readOverflow(ptr)
				if err != nil {
					return err
				}
				if !fn(rid, full) {
					return nil
				}
				if buf, err = h.pool.Pin(pid); err != nil {
					return err
				}
				p = page{buf}
				continue
			}
			if !fn(rid, raw) {
				h.pool.Unpin(pid, false)
				return nil
			}
		}
		h.pool.Unpin(pid, false)
	}
	return nil
}
