package cache

import (
	"fmt"
	"sync"
	"testing"
)

func TestPutGet(t *testing.T) {
	c := New(1 << 20)
	k := Key{FileNum: 1, Offset: 0}
	c.Put(k, []byte("hello"))
	got, ok := c.Get(k)
	if !ok || string(got) != "hello" {
		t.Fatalf("get = %q %v", got, ok)
	}
	if _, ok := c.Get(Key{FileNum: 2, Offset: 0}); ok {
		t.Fatal("phantom hit")
	}
}

func TestEvictionUnderPressure(t *testing.T) {
	// Small cache: inserting far more than capacity must bound usage.
	c := New(16 * 1024)
	blk := make([]byte, 512)
	for i := 0; i < 1000; i++ {
		c.Put(Key{FileNum: 1, Offset: uint64(i * 512)}, blk)
	}
	if used := c.Used(); used > 16*1024 {
		t.Fatalf("used %d exceeds capacity", used)
	}
	if c.Len() == 0 {
		t.Fatal("cache empty after inserts")
	}
}

func TestLRUOrderWithinShard(t *testing.T) {
	// Single shard via identical hash inputs is hard to force; instead use
	// a cache sized so each shard holds ~2 entries and verify recently
	// used entries survive.
	c := New(numShards * 2 * 100)
	keys := make([]Key, 40)
	for i := range keys {
		keys[i] = Key{FileNum: uint64(i), Offset: 0}
		c.Put(keys[i], make([]byte, 90))
	}
	// Touch first key repeatedly — but it may already be evicted; just
	// check the global invariant: capacity respected, hits counted.
	c.Get(keys[len(keys)-1])
	h, m := c.Counters()
	if h+m == 0 {
		t.Fatal("counters not updated")
	}
}

func TestUpdateExistingKey(t *testing.T) {
	c := New(1 << 20)
	k := Key{FileNum: 3, Offset: 128}
	c.Put(k, []byte("v1"))
	c.Put(k, []byte("v2-longer"))
	got, ok := c.Get(k)
	if !ok || string(got) != "v2-longer" {
		t.Fatalf("update lost: %q", got)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestInvalidateFile(t *testing.T) {
	c := New(1 << 20)
	for i := 0; i < 10; i++ {
		c.Put(Key{FileNum: 7, Offset: uint64(i)}, []byte("x"))
		c.Put(Key{FileNum: 8, Offset: uint64(i)}, []byte("y"))
	}
	c.InvalidateFile(7)
	for i := 0; i < 10; i++ {
		if _, ok := c.Get(Key{FileNum: 7, Offset: uint64(i)}); ok {
			t.Fatal("file 7 block survived invalidation")
		}
		if _, ok := c.Get(Key{FileNum: 8, Offset: uint64(i)}); !ok {
			t.Fatal("file 8 block wrongly dropped")
		}
	}
}

func TestOversizedBlockNotCached(t *testing.T) {
	c := New(1024) // 64 B per shard
	c.Put(Key{FileNum: 1, Offset: 0}, make([]byte, 4096))
	if c.Len() != 0 {
		t.Fatal("oversized block cached")
	}
}

func TestZeroCapacityDisables(t *testing.T) {
	c := New(0)
	c.Put(Key{FileNum: 1, Offset: 0}, []byte("x"))
	if _, ok := c.Get(Key{FileNum: 1, Offset: 0}); ok {
		t.Fatal("zero-capacity cache stored a block")
	}
}

func TestHitRatio(t *testing.T) {
	c := New(1 << 20)
	k := Key{FileNum: 1, Offset: 0}
	c.Put(k, []byte("x"))
	c.Get(k)         // hit
	c.Get(Key{2, 0}) // miss
	c.Get(k)         // hit
	if r := c.HitRatio(); r < 0.66 || r > 0.67 {
		t.Fatalf("hit ratio = %f", r)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(1 << 20)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				k := Key{FileNum: uint64(g), Offset: uint64(i % 64)}
				c.Put(k, []byte(fmt.Sprint(i)))
				c.Get(k)
			}
		}(g)
	}
	wg.Wait()
	if c.Used() < 0 {
		t.Fatal("accounting went negative")
	}
}

// TestConcurrentRefreshOneKey is a -race regression: Get used to return
// e.data after dropping the shard lock while a Put refreshing the same key
// rewrote it under the lock.
func TestConcurrentRefreshOneKey(t *testing.T) {
	c := New(1 << 20)
	k := Key{FileNum: 1, Offset: 0}
	c.Put(k, []byte("v"))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if g%2 == 0 {
					c.Put(k, []byte{byte(i)})
				} else if v, ok := c.Get(k); !ok || len(v) != 1 {
					t.Errorf("Get = %q, %v; the key is always present with a 1-byte value", v, ok)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestSmallCapacityRoundsUp(t *testing.T) {
	// A capacity below numShards bytes used to floor the per-shard budget
	// to zero, silently disabling every shard. Rounding up must keep tiny
	// caches functional.
	c := New(numShards - 1)
	k := Key{FileNum: 7, Offset: 0}
	c.Put(k, []byte("v"))
	if _, ok := c.Get(k); !ok {
		t.Fatalf("capacity %d dropped a %d-byte block", numShards-1, 1)
	}
	for i := range c.shards {
		if c.shards[i].capacity <= 0 {
			t.Fatalf("shard %d capacity = %d, want > 0", i, c.shards[i].capacity)
		}
	}
	// Capacity <= 0 still disables caching entirely.
	off := New(0)
	off.Put(k, []byte("v"))
	if _, ok := off.Get(k); ok {
		t.Fatal("zero-capacity cache admitted a block")
	}
}
