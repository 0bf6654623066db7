package cache

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"rocksmash/internal/block"
	"rocksmash/internal/keys"
)

func TestPutGet(t *testing.T) {
	c := New(1 << 20)
	k := Key{FileNum: 1, Offset: 0}
	c.Put(k, []byte("hello"))
	got, _, ok := c.Get(k)
	if !ok || string(got) != "hello" {
		t.Fatalf("get = %q %v", got, ok)
	}
	if _, _, ok := c.Get(Key{FileNum: 2, Offset: 0}); ok {
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

// shardKeys returns n keys of file 1 that c places in one shard.
func shardKeys(c *Cache, n int) []Key {
	var ks []Key
	for off := uint64(0); len(ks) < n; off++ {
		if k := (Key{FileNum: 1, Offset: off}); c.shardFor(k) == &c.shards[0] {
			ks = append(ks, k)
		}
	}
	return ks
}

// TestClockSecondChance: a shard holding four blocks evicts by CLOCK. A
// block hit since the hand last passed survives the sweep that takes an
// unhit one, and loses its bit to it; a new block goes in behind the hand,
// so the hand reaches it after every block that was there before it.
func TestClockSecondChance(t *testing.T) {
	c, l := newSinkCache(numShards * 4 * 100)
	ks := shardKeys(c, 7)
	put := func(k Key) { c.PutCloud(k, make([]byte, 100)) }
	resident := func(k Key) bool {
		s := c.shardFor(k)
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.items[k] != nil
	}
	for _, k := range ks[:4] {
		put(k)
	}
	if _, _, ok := c.Get(ks[0]); !ok {
		t.Fatal("block 0 missing before any eviction")
	}
	put(ks[4]) // the hand passes 0 (clearing its bit) and takes 1
	if !resident(ks[0]) || resident(ks[1]) {
		t.Fatalf("after block 4: block 0 resident=%v, block 1 resident=%v; want the hit block kept and the unhit one evicted",
			resident(ks[0]), resident(ks[1]))
	}
	if _, ok := l.seen[ks[1]]; !ok || len(l.seen) != 1 {
		t.Fatalf("demoted %v, want block 1 only", l.seen)
	}
	put(ks[5]) // takes 2, the next unhit block
	put(ks[6]) // takes 3; 4 and 5 sit behind the hand
	for i, want := range []bool{true, false, false, false, true, true, true} {
		if resident(ks[i]) != want {
			t.Errorf("block %d resident=%v, want %v", i, !want, want)
		}
	}
	// Block 4 came in ahead of the hand's wrap, so the hand reaches it
	// first; then it comes round to block 0, whose bit it cleared on the
	// first pass: unhit since, it goes, ahead of the blocks behind it.
	put(ks[1])
	if resident(ks[4]) || !resident(ks[0]) {
		t.Errorf("third sweep: block 4 resident=%v, block 0 resident=%v; want 4 evicted", resident(ks[4]), resident(ks[0]))
	}
	put(ks[2])
	if resident(ks[0]) || !resident(ks[5]) || !resident(ks[6]) {
		t.Errorf("after the wrap: blocks 0, 5, 6 resident=%v %v %v; want 0 evicted",
			resident(ks[0]), resident(ks[5]), resident(ks[6]))
	}
	if used := c.Used(); used > numShards*4*100 {
		t.Errorf("used %d over capacity", used)
	}
}

func TestUpdateExistingKey(t *testing.T) {
	c := New(1 << 20)
	k := Key{FileNum: 3, Offset: 128}
	c.Put(k, []byte("v1"))
	c.Put(k, []byte("v2-longer"))
	got, _, ok := c.Get(k)
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
		if _, _, ok := c.Get(Key{FileNum: 7, Offset: uint64(i)}); ok {
			t.Fatal("file 7 block survived invalidation")
		}
		if _, _, ok := c.Get(Key{FileNum: 8, Offset: uint64(i)}); !ok {
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
	if _, _, ok := c.Get(Key{FileNum: 1, Offset: 0}); ok {
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
				} else if v, _, ok := c.Get(k); !ok || len(v) != 1 {
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
	if _, _, ok := c.Get(k); !ok {
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
	if _, _, ok := off.Get(k); ok {
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
		_, _, resident := c.Get(k)
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
	// Victims travel to the sink in a buffer on Put's frame, a victim's ring
	// slot takes the next block and entries are born SlabEntries at a time:
	// n admissions allocate n/SlabEntries slabs, one partly used slab per
	// shard, and whatever the shard's map, ring and free list need to grow
	// to the blocks it holds — at most a few per doubling — evicting or not.
	const n = 64 * SlabEntries
	blk := make([]byte, 100)
	discard := func(Key, []byte) {}
	roomy := NewWithSink(1<<30, discard)
	full := NewWithSink(numShards*2*100, discard)
	var next uint64
	puts := func(c *Cache, n int) uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		for i := 0; i < n; i++ {
			next++
			c.PutCloud(Key{FileNum: 1, Offset: next}, blk)
		}
		runtime.ReadMemStats(&ms)
		return ms.Mallocs - before
	}
	puts(full, 256)
	growth := uint64(numShards * 3 * bits.Len(n/numShards))
	limit := n/SlabEntries + numShards + growth
	free, evicting := puts(roomy, n), puts(full, n)
	t.Logf("%d Puts allocate %d objects into free space, %d evicting (limit %d)", n, free, evicting, limit)
	if free > limit || evicting > limit {
		t.Fatalf("%d Puts into free space allocate %d objects, %d evicting ones %d; want at most %d (%d slabs, %d partly used, %d growth)",
			n, free, n, evicting, limit, n/SlabEntries, numShards, growth)
	}
}

// TestEvictedEntryKeepsNoBlock: an entry the cache lets go of — evicted,
// invalidated or replaced — keeps neither its block nor its seek table, so
// the slab it shares with resident entries retains nothing evicted. A
// reader's (bytes, cell) pair taken before still matches: its seek finds
// the block's keys.
func TestEvictedEntryKeepsNoBlock(t *testing.T) {
	blockOf := func(f, b int) []byte {
		bb := block.NewBuilder(16)
		for i := 0; i < 8; i++ {
			bb.Add(hammerKey(f, b, i), hammerValue(f, b, i))
		}
		return bb.Finish()
	}
	for _, how := range []string{"evict", "invalidate", "replace"} {
		t.Run(how, func(t *testing.T) {
			k := Key{FileNum: 1, Offset: 0}
			body := blockOf(1, 0)
			c := New(numShards * int64(len(body)) * 2)
			c.PutCloud(k, body)
			data, cell, ok := c.Get(k)
			if !ok {
				t.Fatal("block not cached")
			}
			target := keys.MakeSeekKey(nil, keys.UserKey(hammerKey(1, 0, 5)), keys.MaxSequence)
			if _, v, found, err := cell.SeekGE(data, target, nil); !found || err != nil || !bytes.Equal(v, hammerValue(1, 0, 5)) {
				t.Fatalf("seek before %s: found=%v err=%v", how, found, err)
			}
			s := c.shardFor(k)
			s.mu.Lock()
			e := s.items[k]
			s.mu.Unlock()
			switch how {
			case "evict":
				// Put into k's shard until the hand takes k.
				for b := 1; b < 1000; b++ {
					s.mu.Lock()
					gone := s.items[k] != e
					s.mu.Unlock()
					if gone {
						break
					}
					if kb := (Key{FileNum: 2, Offset: uint64(b)}); c.shardFor(kb) == s {
						c.PutCloud(kb, blockOf(2, b))
					}
				}
			case "invalidate":
				c.InvalidateFile(k.FileNum)
			case "replace":
				c.PutCloud(k, blockOf(1, 1))
			}
			s.mu.Lock()
			kept, resident := e.data, s.items[k] == e
			s.mu.Unlock()
			if resident || kept != nil {
				t.Fatalf("after %s: entry resident=%v, keeps %d block bytes", how, resident, len(kept))
			}
			if _, v, found, err := cell.SeekGE(data, target, nil); !found || err != nil || !bytes.Equal(v, hammerValue(1, 0, 5)) {
				t.Fatalf("the pair taken before %s no longer matches: found=%v err=%v", how, found, err)
			}
		})
	}
}

// TestSeekTableHammer races point reads that build and publish blocks' seek
// tables against the admissions, evictions, invalidations and demotions
// that drop them: every seek must find its key with the block's value, and
// once every file is invalidated the cache must charge nothing — no table
// charge survives its block, whichever side of the build the drop fell on.
func TestSeekTableHammer(t *testing.T) {
	const files, blocksPerFile, perBlock = 4, 16, 8
	blockOf := func(f, b int) []byte {
		bb := block.NewBuilder(16)
		for i := 0; i < perBlock; i++ {
			bb.Add(hammerKey(f, b, i), hammerValue(f, b, i))
		}
		return bb.Finish()
	}
	bodies := map[Key][]byte{}
	for f := 1; f <= files; f++ {
		for b := 0; b < blocksPerFile; b++ {
			bodies[Key{FileNum: uint64(f), Offset: uint64(b)}] = blockOf(f, b)
		}
	}
	// Room for about a third of the blocks, so Puts evict all along.
	c := NewWithSink(int64(len(bodies)*len(bodies[Key{1, 0}])/3), func(Key, []byte) {})
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for n := 0; n < 3000; n++ {
				f, b, i := 1+rng.Intn(files), rng.Intn(blocksPerFile), rng.Intn(perBlock)
				k := Key{FileNum: uint64(f), Offset: uint64(b)}
				switch op := rng.Intn(100); {
				case op < 70 || g < 2:
					data, cell, ok := c.Get(k)
					if !ok {
						c.PutCloud(k, bodies[k])
						continue
					}
					var buf [keys.SeekBufLen]byte
					key, value, found, err := cell.SeekGE(data, hammerKey(f, b, i), buf[:0])
					if err != nil || !found || !bytes.Equal(key, hammerKey(f, b, i)) || !bytes.Equal(value, hammerValue(f, b, i)) {
						t.Errorf("seek in %v for entry %d: %q=%q found=%v err=%v", k, i, key, value, found, err)
						return
					}
				case op < 90:
					c.PutCloud(k, bodies[k])
				case op < 97:
					c.InvalidateFile(uint64(f))
				default:
					c.DemoteAll()
				}
			}
		}(g)
	}
	wg.Wait()
	for f := 1; f <= files; f++ {
		c.InvalidateFile(uint64(f))
	}
	if used, n := c.Used(), c.Len(); used != 0 || n != 0 {
		t.Fatalf("after invalidating every file: %d blocks, %d bytes charged; want none", n, used)
	}
}

func hammerKey(f, b, i int) []byte {
	return keys.MakeInternalKey(nil, []byte(fmt.Sprintf("file%d/block%03d/key%02d", f, b, i)), 7, keys.KindSet)
}

func hammerValue(f, b, i int) []byte { return []byte(fmt.Sprintf("value-%d-%d-%d", f, b, i)) }
