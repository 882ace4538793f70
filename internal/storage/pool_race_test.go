package storage

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// slowStore widens the window between a frame entering the pool's table
// and its page being read: ReadPage copies half the page, yields, then
// copies the rest. failing makes reads of one page id fail instead.
type slowStore struct {
	*MemStore
	failing atomic.Int64 // page id whose reads fail; -1 for none
}

var errSlowRead = errors.New("slowstore: injected read failure")

func (s *slowStore) ReadPage(id uint32, buf []byte) error {
	if int64(id) == s.failing.Load() {
		time.Sleep(200 * time.Microsecond)
		return errSlowRead
	}
	var page [PageSize]byte
	if err := s.MemStore.ReadPage(id, page[:]); err != nil {
		return err
	}
	copy(buf[:PageSize/2], page[:PageSize/2])
	time.Sleep(50 * time.Microsecond)
	copy(buf[PageSize/2:], page[PageSize/2:])
	return nil
}

func pagePattern(id uint32, i int) byte { return byte(id)*31 + byte(i) }

func newPatternStore(t *testing.T, pages int) *slowStore {
	t.Helper()
	s := &slowStore{MemStore: NewMemStore()}
	s.failing.Store(-1)
	buf := make([]byte, PageSize)
	for p := 0; p < pages; p++ {
		id, err := s.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] = pagePattern(id, i)
		}
		if err := s.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestBufferPoolPinWaitsForFill is the regression test for Pin handing
// out a frame another goroutine was still reading into. Eight
// goroutines pin overlapping ids through the eight frames of two pool
// shards (four each, six pages competing per shard, so frames are
// constantly evicted and refilled) over a store that fills pages in two
// halves; every returned page must carry its own pattern end to end.
// Run under -race the old code also reports the unsynchronized buffer
// access directly.
func TestBufferPoolPinWaitsForFill(t *testing.T) {
	const perShard = 6
	store := newPatternStore(t, poolShards*perShard)
	pool := NewBufferPool(store, 8) // clamps to 4 frames per shard
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			shard := uint32(g % 2) // 4 goroutines per shard never exhaust its 4 frames
			for n := 0; n < 300; n++ {
				id := shard + poolShards*uint32((n*(g/2+1)+g)%perShard)
				buf, err := pool.Pin(id)
				if err != nil {
					t.Errorf("pin %d: %v", id, err)
					return
				}
				for i := 0; i < PageSize; i += 97 {
					if buf[i] != pagePattern(id, i) {
						t.Errorf("page %d byte %d = %#x, want %#x (frame handed out before its fill finished)",
							id, i, buf[i], pagePattern(id, i))
						pool.Unpin(id, false)
						return
					}
				}
				pool.Unpin(id, false)
			}
		}(g)
	}
	wg.Wait()
}

// TestBufferPoolPinReadError: every pinner that joined a failing fill
// gets the read error, the frame is withdrawn once the last of them has
// left, and a later Pin reads the page afresh.
func TestBufferPoolPinReadError(t *testing.T) {
	store := newPatternStore(t, 4)
	pool := NewBufferPool(store, 8)
	store.failing.Store(2)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := pool.Pin(2); !errors.Is(err, errSlowRead) {
				t.Errorf("pin of failing page: err = %v, want the injected read error", err)
			}
		}()
	}
	wg.Wait()
	store.failing.Store(-1)
	buf, err := pool.Pin(2)
	if err != nil {
		t.Fatalf("pin after the failure cleared: %v", err)
	}
	if buf[100] != pagePattern(2, 100) {
		t.Errorf("page 2 byte 100 = %#x, want %#x", buf[100], pagePattern(2, 100))
	}
	pool.Unpin(2, false)
	if err := pool.DropAll(); err != nil {
		t.Errorf("DropAll after a withdrawn frame: %v", err)
	}
}
