package storage

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
)

// TestHeapErrorPathsReleasePins drives every HeapFile success path, error
// return and early exit, then requires DropAll to succeed. DropAll refuses
// while any page is pinned, so a path that forgets its Unpin fails here.
// Covered: an empty slot, a slot past the directory and a page past the
// store in Get, GetAppend and Delete; a truncated and an overlong
// overflow chain in Get, GetAppend, Scan and ScanShard; Scan and
// ScanShard callbacks that stop on an inline and on an overflow tuple.
func TestHeapErrorPathsReleasePins(t *testing.T) {
	pool := NewBufferPool(NewMemStore(), 64)
	h := NewHeapFile(pool)
	big := strings.Repeat("jackpine ", 4000) // spills to an overflow chain
	const n = 300
	var rids []RecordID
	for i := 0; i < n; i++ {
		val := NewText(fmt.Sprintf("row %d", i))
		if i == 150 || i == 151 {
			val = NewText(big)
		}
		rid, err := h.Insert(EncodeTuple([]Value{NewInt(int64(i)), val}))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	for _, rid := range rids {
		if _, err := h.Get(rid); err != nil {
			t.Fatal(err)
		}
		if _, err := h.GetAppend(nil, rid); err != nil {
			t.Fatal(err)
		}
	}
	for _, stopAt := range []int64{3, 150} {
		stop := func(_ RecordID, tuple []byte) bool {
			vals, err := DecodeTuple(tuple, 2)
			return err == nil && vals[0].Int != stopAt
		}
		if err := h.Scan(stop); err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 3; s++ {
			if err := h.ScanShard(s, 3, stop); err != nil {
				t.Fatal(err)
			}
		}
	}

	if err := h.Delete(rids[0]); err != nil {
		t.Fatal(err)
	}
	for _, rid := range []RecordID{
		rids[0],                         // tombstone
		{Page: rids[1].Page, Slot: 999}, // past the slot directory
		{Page: 1 << 20},                 // past the store
	} {
		if _, err := h.Get(rid); err == nil {
			t.Errorf("Get(%s) succeeded", rid)
		}
		if _, err := h.GetAppend(nil, rid); err == nil {
			t.Errorf("GetAppend(%s) succeeded", rid)
		}
		if err := h.Delete(rid); err == nil {
			t.Errorf("Delete(%s) succeeded", rid)
		}
	}

	// Row 150's chain ends after its first page; row 151's inline pointer
	// declares fewer bytes than that first page holds.
	editPage := func(pid uint32, edit func(buf []byte)) {
		buf, err := pool.Pin(pid)
		if err != nil {
			t.Fatal(err)
		}
		edit(buf)
		pool.Unpin(pid, true)
	}
	var firstOvf uint32
	editPage(rids[150].Page, func(buf []byte) {
		firstOvf = binary.LittleEndian.Uint32(page{buf}.read(int(rids[150].Slot))[1:])
	})
	editPage(firstOvf, func(buf []byte) { binary.LittleEndian.PutUint32(buf, ovfNoNext) })
	editPage(rids[151].Page, func(buf []byte) {
		binary.LittleEndian.PutUint32(page{buf}.read(int(rids[151].Slot))[5:], 10)
	})
	for _, rid := range rids[150:152] {
		if _, err := h.Get(rid); err == nil {
			t.Errorf("Get(%s) over a corrupt overflow chain succeeded", rid)
		}
		if _, err := h.GetAppend(nil, rid); err == nil {
			t.Errorf("GetAppend(%s) over a corrupt overflow chain succeeded", rid)
		}
	}
	all := func(RecordID, []byte) bool { return true }
	if err := h.Scan(all); err == nil {
		t.Error("Scan over a corrupt overflow chain succeeded")
	}
	failed := 0
	for s := 0; s < 3; s++ {
		if h.ScanShard(s, 3, all) != nil {
			failed++
		}
	}
	if failed == 0 {
		t.Error("no ScanShard met the corrupt overflow chains")
	}

	if err := pool.DropAll(); err != nil {
		t.Fatalf("a HeapFile path leaked a pin: %v", err)
	}
}
