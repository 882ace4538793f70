package storage

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"jackpine/internal/geom"
)

func TestValueConstructorsAndString(t *testing.T) {
	cases := []struct {
		v    Value
		s    string
		null bool
	}{
		{Null(), "NULL", true},
		{NewInt(-42), "-42", false},
		{NewFloat(2.5), "2.5", false},
		{NewText("hi"), "hi", false},
		{NewBool(true), "true", false},
		{NewBool(false), "false", false},
		{NewGeom(geom.Pt(1, 2)), "POINT (1 2)", false},
		{NewGeom(nil), "NULL", true},
	}
	for _, tc := range cases {
		if tc.v.String() != tc.s {
			t.Errorf("String() = %q, want %q", tc.v.String(), tc.s)
		}
		if tc.v.IsNull() != tc.null {
			t.Errorf("%q: IsNull() = %v", tc.s, tc.v.IsNull())
		}
	}
}

func TestValueCompare(t *testing.T) {
	lt := [][2]Value{
		{Null(), NewInt(0)},
		{NewInt(1), NewInt(2)},
		{NewInt(1), NewFloat(1.5)},
		{NewFloat(-1), NewInt(0)},
		{NewText("a"), NewText("b")},
		{NewBool(false), NewBool(true)},
	}
	for _, pair := range lt {
		if c, _ := Compare(pair[0], pair[1]); c != -1 {
			t.Errorf("Compare(%v, %v) = %d, want -1", pair[0], pair[1], c)
		}
		if c, _ := Compare(pair[1], pair[0]); c != 1 {
			t.Errorf("Compare(%v, %v) = %d, want 1", pair[1], pair[0], c)
		}
	}
	if c, ok := Compare(NewInt(3), NewFloat(3)); c != 0 || !ok {
		t.Error("numeric cross-type equality failed")
	}
	if c, _ := Compare(Null(), Null()); c != 0 {
		t.Error("NULL should equal NULL in sort order")
	}
}

// TestValueCompareIntExact pins int x int comparison to exact int64
// order: 2^53 and 2^53+1 are one float64 apart from nothing (both round
// to 2^53), so a comparison through AsFloat calls them equal while the
// B-tree's encoded keys order them.
func TestValueCompareIntExact(t *testing.T) {
	const p53 = int64(1) << 53
	cases := []struct {
		a, b int64
		want int
	}{
		{p53 + 1, p53, 1},
		{p53, p53 + 1, -1},
		{-p53 - 1, -p53, -1},
		{math.MaxInt64, math.MaxInt64 - 1, 1},
		{math.MinInt64, math.MinInt64 + 1, -1},
		{p53 + 1, p53 + 1, 0},
	}
	for _, tc := range cases {
		c, ok := Compare(NewInt(tc.a), NewInt(tc.b))
		if c != tc.want || !ok {
			t.Errorf("Compare(%d, %d) = %d, %v; want %d, true", tc.a, tc.b, c, ok, tc.want)
		}
	}
	// Int against float still compares as float64: 2^53+1 rounds to 2^53.
	if c, ok := Compare(NewInt(p53+1), NewFloat(float64(p53))); c != 0 || !ok {
		t.Errorf("Compare(2^53+1, 2^53 as float) = %d, %v; want 0, true", c, ok)
	}
}

func sampleTuples() [][]Value {
	big := make(geom.LineString, 600)
	for i := range big {
		big[i] = geom.Coord{X: float64(i), Y: float64(i % 7)}
	}
	return [][]Value{
		{NewInt(1), NewText("main st"), NewFloat(3.25), NewGeom(geom.Pt(1, 2))},
		{Null(), NewText(""), NewBool(true), NewGeom(geom.LineString{{X: 0, Y: 0}, {X: 5, Y: 5}})},
		{NewInt(math.MaxInt64), NewInt(math.MinInt64), Null(), Null()},
		{NewText(strings.Repeat("x", 5000)), NewInt(7), NewFloat(-0.5), NewBool(false)},
		{NewInt(9), NewText("big geom"), NewFloat(1), NewGeom(big)},
	}
}

func TestTupleRoundTrip(t *testing.T) {
	for i, vals := range sampleTuples() {
		enc := EncodeTuple(vals)
		dec, err := DecodeTuple(enc, len(vals))
		if err != nil {
			t.Fatalf("tuple %d: %v", i, err)
		}
		if !reflect.DeepEqual(dec, vals) {
			t.Errorf("tuple %d round trip mismatch", i)
		}
	}
}

func TestTupleDecodeErrors(t *testing.T) {
	enc := EncodeTuple([]Value{NewInt(1), NewText("abc")})
	if _, err := DecodeTuple(enc[:len(enc)-1], 2); err == nil {
		t.Error("truncated tuple decoded")
	}
	if _, err := DecodeTuple(enc, 3); err == nil {
		t.Error("column over-read decoded")
	}
	if _, err := DecodeTuple(enc, 1); err == nil {
		t.Error("trailing bytes accepted")
	}
	if _, err := DecodeTuple([]byte{200}, 1); err == nil {
		t.Error("unknown type byte accepted")
	}
}

func TestTuplePropertyRoundTrip(t *testing.T) {
	prop := func(i int64, f float64, s string, b bool) bool {
		if math.IsNaN(f) {
			f = 0
		}
		vals := []Value{NewInt(i), NewFloat(f), NewText(s), NewBool(b), Null()}
		dec, err := DecodeTuple(EncodeTuple(vals), len(vals))
		return err == nil && reflect.DeepEqual(dec, vals)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestPageInsertReadDelete(t *testing.T) {
	buf := make([]byte, PageSize)
	initPage(buf)
	p := page{buf}
	var slots []int
	for i := 0; i < 10; i++ {
		s := p.insert([]byte(fmt.Sprintf("tuple-%d", i)))
		if s < 0 {
			t.Fatalf("insert %d failed", i)
		}
		slots = append(slots, s)
	}
	for i, s := range slots {
		got := p.read(s)
		if string(got) != fmt.Sprintf("tuple-%d", i) {
			t.Errorf("slot %d = %q", s, got)
		}
	}
	if !p.delete(slots[3]) {
		t.Fatal("delete failed")
	}
	if p.read(slots[3]) != nil {
		t.Error("tombstoned slot still readable")
	}
	if p.delete(slots[3]) {
		t.Error("double delete returned true")
	}
	if p.read(999) != nil || p.delete(999) {
		t.Error("out-of-range slot access misbehaved")
	}
}

func TestPageFillsUp(t *testing.T) {
	buf := make([]byte, PageSize)
	initPage(buf)
	p := page{buf}
	tuple := bytes.Repeat([]byte{7}, 100)
	inserted := 0
	for p.insert(tuple) >= 0 {
		inserted++
	}
	// 8192 bytes with 8-byte header and 104 per tuple (100 + 4 slot).
	want := (PageSize - pageHeaderSize) / (100 + slotSize)
	if inserted != want {
		t.Errorf("inserted %d tuples per page, want %d", inserted, want)
	}
}

func TestStoresReadWrite(t *testing.T) {
	stores := map[string]PageStore{
		"mem": NewMemStore(),
	}
	fs, err := NewFileStore(filepath.Join(t.TempDir(), "pages.db"))
	if err != nil {
		t.Fatal(err)
	}
	stores["file"] = fs
	for name, s := range stores {
		t.Run(name, func(t *testing.T) {
			id0, err := s.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			id1, err := s.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			if id0 == id1 || s.NumPages() != 2 {
				t.Fatalf("allocation ids %d %d, pages %d", id0, id1, s.NumPages())
			}
			w := bytes.Repeat([]byte{0xAB}, PageSize)
			if err := s.WritePage(id1, w); err != nil {
				t.Fatal(err)
			}
			r := make([]byte, PageSize)
			if err := s.ReadPage(id1, r); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(w, r) {
				t.Error("read back mismatch")
			}
			if err := s.ReadPage(99, r); err == nil {
				t.Error("read of unallocated page succeeded")
			}
			if err := s.WritePage(99, w); err == nil {
				t.Error("write of unallocated page succeeded")
			}
			if err := s.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
		})
	}
}

func TestFileStoreReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	fs, err := NewFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := fs.Allocate()
	w := bytes.Repeat([]byte{0x5C}, PageSize)
	if err := fs.WritePage(id, w); err != nil {
		t.Fatal(err)
	}
	fs.Close()

	fs2, err := NewFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	if fs2.NumPages() != 1 {
		t.Fatalf("reopened store has %d pages", fs2.NumPages())
	}
	r := make([]byte, PageSize)
	if err := fs2.ReadPage(id, r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w, r) {
		t.Error("persisted page mismatch")
	}
}

func TestBufferPoolHitsMissesEviction(t *testing.T) {
	store := NewMemStore()
	pool := NewBufferPool(store, 4) // 4 frames per shard after clamping
	// Use page ids that all land in one shard so eviction is forced.
	var all []uint32
	for i := 0; i < 8*poolShards; i++ {
		id, _ := pool.Allocate()
		all = append(all, id)
	}
	var ids []uint32
	for i := 0; i < 8; i++ {
		ids = append(ids, all[i*poolShards]) // same shard: id % poolShards == 0
	}
	for i, id := range ids {
		buf, err := pool.Pin(id)
		if err != nil {
			t.Fatal(err)
		}
		buf[0] = byte(i)
		pool.Unpin(id, true)
	}
	st := pool.Stats()
	if st.Misses != 8 {
		t.Errorf("misses = %d, want 8", st.Misses)
	}
	if st.Evictions != 4 {
		t.Errorf("evictions = %d, want 4", st.Evictions)
	}
	// Re-reading an evicted page must return the flushed content.
	buf, err := pool.Pin(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0 {
		t.Errorf("evicted page content = %d, want 0", buf[0])
	}
	pool.Unpin(ids[0], false)
	// Immediately repinning is a hit.
	before := pool.Stats().Hits
	if _, err := pool.Pin(ids[0]); err != nil {
		t.Fatal(err)
	}
	pool.Unpin(ids[0], false)
	if pool.Stats().Hits != before+1 {
		t.Error("expected a cache hit")
	}
}

func TestBufferPoolPinnedPagesNotEvicted(t *testing.T) {
	pool := NewBufferPool(NewMemStore(), 4) // 4 frames per shard
	// Allocate enough pages to pick 5 ids in the same shard.
	var all []uint32
	for i := 0; i < 5*poolShards; i++ {
		id, _ := pool.Allocate()
		all = append(all, id)
	}
	var pinned []uint32
	for i := 0; i < 4; i++ {
		id := all[i*poolShards]
		if _, err := pool.Pin(id); err != nil {
			t.Fatal(err)
		}
		pinned = append(pinned, id)
	}
	id := all[4*poolShards]
	if _, err := pool.Pin(id); err == nil {
		t.Error("shard should be exhausted with all frames pinned")
	}
	pool.Unpin(pinned[0], false)
	if _, err := pool.Pin(id); err != nil {
		t.Errorf("pin after release failed: %v", err)
	}
	pool.Unpin(id, false)
	for _, p := range pinned[1:] {
		pool.Unpin(p, false)
	}
}

func TestBufferPoolDropAll(t *testing.T) {
	pool := NewBufferPool(NewMemStore(), 8)
	id, _ := pool.Allocate()
	buf, _ := pool.Pin(id)
	buf[17] = 0x42
	pool.Unpin(id, true)
	if err := pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	if pool.CachedPages() != 0 {
		t.Error("cache not empty after DropAll")
	}
	pool.ResetStats()
	buf, err := pool.Pin(id)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Unpin(id, false)
	if buf[17] != 0x42 {
		t.Error("dirty page lost by DropAll")
	}
	if pool.Stats().Misses != 1 || pool.Stats().Hits != 0 {
		t.Error("re-read after DropAll should be a miss")
	}
}

func TestHeapInsertGetScanDelete(t *testing.T) {
	pool := NewBufferPool(NewMemStore(), 32)
	h := NewHeapFile(pool)
	var rids []RecordID
	for i := 0; i < 1000; i++ {
		rid, err := h.Insert(EncodeTuple([]Value{NewInt(int64(i)), NewText(fmt.Sprintf("row %d", i))}))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if h.Count() != 1000 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.NumPages() < 2 {
		t.Errorf("expected multiple pages, got %d", h.NumPages())
	}
	// Random access.
	for _, i := range []int{0, 1, 499, 999} {
		raw, err := h.Get(rids[i])
		if err != nil {
			t.Fatal(err)
		}
		vals, err := DecodeTuple(raw, 2)
		if err != nil {
			t.Fatal(err)
		}
		if vals[0].Int != int64(i) {
			t.Errorf("row %d: got %d", i, vals[0].Int)
		}
	}
	// Scan sees everything in insertion order.
	seen := 0
	if err := h.Scan(func(rid RecordID, tuple []byte) bool {
		vals, err := DecodeTuple(tuple, 2)
		if err != nil || vals[0].Int != int64(seen) {
			t.Fatalf("scan order broken at %d", seen)
		}
		seen++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if seen != 1000 {
		t.Fatalf("scan saw %d tuples", seen)
	}
	// Delete half and rescan.
	for i := 0; i < 1000; i += 2 {
		if err := h.Delete(rids[i]); err != nil {
			t.Fatal(err)
		}
	}
	if h.Count() != 500 {
		t.Fatalf("Count after deletes = %d", h.Count())
	}
	seen = 0
	h.Scan(func(rid RecordID, tuple []byte) bool { seen++; return true })
	if seen != 500 {
		t.Fatalf("scan after deletes saw %d", seen)
	}
	if _, err := h.Get(rids[0]); err == nil {
		t.Error("Get of deleted tuple succeeded")
	}
	if err := h.Delete(rids[0]); err == nil {
		t.Error("double delete succeeded")
	}
}

func TestHeapOverflowTuples(t *testing.T) {
	pool := NewBufferPool(NewMemStore(), 64)
	h := NewHeapFile(pool)
	// A tuple much larger than a page.
	big := strings.Repeat("jackpine ", 4000) // ~36 KB
	rid, err := h.Insert(EncodeTuple([]Value{NewText(big), NewInt(1)}))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := h.Get(rid)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := DecodeTuple(raw, 2)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0].Text != big || vals[1].Int != 1 {
		t.Error("overflow tuple corrupted")
	}
	// Scan must deliver it too.
	found := false
	h.Scan(func(_ RecordID, tuple []byte) bool {
		v, err := DecodeTuple(tuple, 2)
		if err == nil && v[0].Text == big {
			found = true
		}
		return true
	})
	if !found {
		t.Error("overflow tuple not seen by scan")
	}
}

func TestHeapScanEarlyStop(t *testing.T) {
	pool := NewBufferPool(NewMemStore(), 16)
	h := NewHeapFile(pool)
	for i := 0; i < 100; i++ {
		if _, err := h.Insert(EncodeTuple([]Value{NewInt(int64(i))})); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	h.Scan(func(RecordID, []byte) bool { n++; return n < 10 })
	if n != 10 {
		t.Errorf("early stop saw %d", n)
	}
}

func TestHeapWithSmallPoolThrashes(t *testing.T) {
	// A pool smaller than the table forces evictions during scans but
	// must stay correct.
	pool := NewBufferPool(NewMemStore(), 4)
	h := NewHeapFile(pool)
	payload := strings.Repeat("z", 1000)
	for i := 0; i < 2000; i++ {
		if _, err := h.Insert(EncodeTuple([]Value{NewInt(int64(i)), NewText(payload)})); err != nil {
			t.Fatal(err)
		}
	}
	sum := int64(0)
	h.Scan(func(_ RecordID, tuple []byte) bool {
		vals, err := DecodeTuple(tuple, 2)
		if err != nil {
			t.Fatal(err)
		}
		sum += vals[0].Int
		return true
	})
	if sum != 1999*2000/2 {
		t.Errorf("sum = %d", sum)
	}
	if pool.Stats().Evictions == 0 {
		t.Error("expected evictions with a tiny pool")
	}
}

func TestHeapScanShard(t *testing.T) {
	pool := NewBufferPool(NewMemStore(), 32)
	h := NewHeapFile(pool)
	// Mix in one overflow tuple so shard scans cross the overflow path.
	big := strings.Repeat("jackpine ", 4000)
	for i := 0; i < 500; i++ {
		val := NewText(fmt.Sprintf("row %d", i))
		if i == 123 {
			val = NewText(big)
		}
		if _, err := h.Insert(EncodeTuple([]Value{NewInt(int64(i)), val})); err != nil {
			t.Fatal(err)
		}
	}
	full := func(scan func(fn func(RecordID, []byte) bool) error) []int64 {
		var ids []int64
		if err := scan(func(_ RecordID, tuple []byte) bool {
			vals, err := DecodeTuple(tuple, 2)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, vals[0].Int)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return ids
	}
	want := full(h.Scan)
	if len(want) != 500 {
		t.Fatalf("scan saw %d", len(want))
	}
	// Concatenating shards 0..n-1 reproduces the Scan order exactly, for
	// any shard count (including more shards than pages).
	for _, nshards := range []int{1, 2, 3, 7, 64, 10000} {
		var got []int64
		for s := 0; s < nshards; s++ {
			got = append(got, full(func(fn func(RecordID, []byte) bool) error {
				return h.ScanShard(s, nshards, fn)
			})...)
		}
		if len(got) != len(want) {
			t.Fatalf("nshards=%d: %d tuples, want %d", nshards, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("nshards=%d: order diverges at %d: %d vs %d", nshards, i, got[i], want[i])
			}
		}
	}
	// Early stop applies within a shard (a shard may own zero pages, so
	// walk shards in order until tuples appear).
	n := 0
	for s := 0; s < 2 && n < 3; s++ {
		if err := h.ScanShard(s, 2, func(RecordID, []byte) bool { n++; return n < 3 }); err != nil {
			t.Fatal(err)
		}
	}
	if n != 3 {
		t.Errorf("early stop saw %d", n)
	}
	// Out-of-range shards are rejected.
	for _, bad := range [][2]int{{-1, 4}, {4, 4}, {0, 0}} {
		if err := h.ScanShard(bad[0], bad[1], func(RecordID, []byte) bool { return true }); err == nil {
			t.Errorf("ScanShard(%d, %d) accepted", bad[0], bad[1])
		}
	}
}
