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

// sinkLog records what a cache demotes.
type sinkLog struct {
	mu   sync.Mutex
	seen map[Key]string
}

func (l *sinkLog) sink(k Key, body []byte) {
	l.mu.Lock()
	l.seen[k] = string(body)
	l.mu.Unlock()
}

func newSinkCache(capacity int64) (*Cache, *sinkLog) {
	l := &sinkLog{seen: map[Key]string{}}
	return NewWithSink(capacity, l.sink), l
}

func TestDemoteOnEviction(t *testing.T) {
	// Each shard holds two 100-byte blocks. Cloud blocks go in first and
	// local ones push them out: everything evicted was a cloud block and
	// reaches the sink with its own bytes, and nothing still resident does.
	c, l := newSinkCache(numShards * 2 * 100)
	body := func(k Key) []byte { return []byte(fmt.Sprintf("%03d/%093d", k.FileNum, k.Offset)) }
	var cloud []Key
	for i := 0; i < 64; i++ {
		k := Key{FileNum: 1, Offset: uint64(i)}
		cloud = append(cloud, k)
		c.PutCloud(k, body(k))
	}
	for i := 0; i < 256; i++ {
		k := Key{FileNum: 2, Offset: uint64(i)}
		c.Put(k, body(k))
	}
	for k, got := range l.seen {
		if k.FileNum != 1 {
			t.Fatalf("sink called for local-tier block %v", k)
		}
		if got != string(body(k)) {
			t.Fatalf("sink got %q for %v", got, k)
		}
	}
	for _, k := range cloud {
		_, resident := c.Get(k)
		if _, demoted := l.seen[k]; demoted == resident {
			t.Fatalf("cloud block %v: resident=%v demoted=%v, want exactly one", k, resident, demoted)
		}
	}
}

func TestDemoteDeclinedAtOnce(t *testing.T) {
	// A cache that cannot hold a cloud block hands it straight down, or a
	// store without a block cache would never fill its persistent cache.
	k := Key{FileNum: 1, Offset: 0}
	for _, capacity := range []int64{0, 1024} { // disabled; 64 B per shard
		c, l := newSinkCache(capacity)
		c.Put(Key{FileNum: 2, Offset: 0}, make([]byte, 4096))
		if len(l.seen) != 0 {
			t.Fatalf("capacity %d: declined local block reached the sink", capacity)
		}
		c.PutCloud(k, make([]byte, 4096))
		if _, ok := l.seen[k]; !ok || c.Len() != 0 {
			t.Fatalf("capacity %d: declined cloud block not demoted (cached %d)", capacity, c.Len())
		}
	}
}

func TestInvalidateFileDoesNotDemote(t *testing.T) {
	c, l := newSinkCache(1 << 20)
	for i := 0; i < 50; i++ {
		c.PutCloud(Key{FileNum: 7, Offset: uint64(i)}, []byte("dead"))
		c.PutCloud(Key{FileNum: 8, Offset: uint64(i)}, []byte("live"))
	}
	c.InvalidateFile(7)
	if len(l.seen) != 0 {
		t.Fatalf("InvalidateFile demoted %d blocks of a deleted table", len(l.seen))
	}
	// What a clean shutdown hands down is what is still resident.
	c.DemoteAll()
	if len(l.seen) != 50 {
		t.Fatalf("DemoteAll handed down %d blocks, want the 50 of the live table", len(l.seen))
	}
	for k := range l.seen {
		if k.FileNum != 8 {
			t.Fatalf("DemoteAll handed down %v", k)
		}
	}
}

func TestSinkRunsUnlocked(t *testing.T) {
	// The sink takes the persistent cache's lock in the store; here it
	// re-enters the cache, which deadlocks if a shard lock is still held.
	var c *Cache
	c = NewWithSink(numShards*2*100, func(k Key, _ []byte) { c.Get(k) })
	for i := 0; i < 256; i++ {
		c.PutCloud(Key{FileNum: 1, Offset: uint64(i)}, make([]byte, 100))
	}
	c.DemoteAll()
}

func TestEvictingPutAllocatesNoMore(t *testing.T) {
	// Victims travel to the sink in a buffer on Put's frame: an evicting
	// Put costs what a Put into free space costs (the entry and its list
	// element).
	blk := make([]byte, 100)
	discard := func(Key, []byte) {}
	roomy := NewWithSink(1<<30, discard)
	full := NewWithSink(numShards*2*100, discard)
	var i uint64
	put := func(c *Cache) func() {
		return func() {
			i++
			c.PutCloud(Key{FileNum: 1, Offset: i}, blk)
		}
	}
	for n := 0; n < 256; n++ {
		put(full)()
	}
	free := testing.AllocsPerRun(1000, put(roomy))
	evicting := testing.AllocsPerRun(1000, put(full))
	if evicting > free {
		t.Fatalf("an evicting Put allocates %.2f objects, one into free space %.2f", evicting, free)
	}
}
