package pcache

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

func newMash(t *testing.T, capacity, region int64) *PCache {
	t.Helper()
	c, err := New(Options{Dir: t.TempDir(), CapacityBytes: capacity, RegionBytes: region})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func newGeneric(t *testing.T, capacity int64) *GenericLRU {
	t.Helper()
	g, err := NewGenericLRU(t.TempDir(), capacity)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return g
}

// both runs a subtest against each BlockCache implementation.
func both(t *testing.T, fn func(t *testing.T, c BlockCache)) {
	t.Run("mash", func(t *testing.T) { fn(t, newMash(t, 1<<20, 64<<10)) })
	t.Run("generic", func(t *testing.T) { fn(t, newGeneric(t, 1<<20)) })
}

func TestPutGetRoundTrip(t *testing.T) {
	both(t, func(t *testing.T, c BlockCache) {
		body := bytes.Repeat([]byte("block"), 100)
		c.Put(7, 4096, body)
		got, ok := c.Get(7, 4096)
		if !ok || !bytes.Equal(got, body) {
			t.Fatalf("get = ok=%v len=%d", ok, len(got))
		}
		if _, ok := c.Get(7, 8192); ok {
			t.Fatal("phantom block")
		}
		if _, ok := c.Get(8, 4096); ok {
			t.Fatal("phantom file")
		}
	})
}

func TestMultipleBlocksPerFile(t *testing.T) {
	both(t, func(t *testing.T, c BlockCache) {
		for i := 0; i < 50; i++ {
			c.Put(3, uint64(i*1000), []byte(fmt.Sprintf("block-%02d", i)))
		}
		for i := 0; i < 50; i++ {
			got, ok := c.Get(3, uint64(i*1000))
			if !ok || string(got) != fmt.Sprintf("block-%02d", i) {
				t.Fatalf("block %d: ok=%v %q", i, ok, got)
			}
		}
	})
}

func TestDropFile(t *testing.T) {
	both(t, func(t *testing.T, c BlockCache) {
		c.Put(1, 0, []byte("a"))
		c.Put(1, 100, []byte("b"))
		c.Put(2, 0, []byte("c"))
		c.DropFile(1)
		if _, ok := c.Get(1, 0); ok {
			t.Fatal("dropped block still present")
		}
		if _, ok := c.Get(1, 100); ok {
			t.Fatal("dropped block still present")
		}
		if _, ok := c.Get(2, 0); !ok {
			t.Fatal("unrelated file dropped")
		}
	})
}

func TestFileHeatTracking(t *testing.T) {
	both(t, func(t *testing.T, c BlockCache) {
		c.Put(5, 0, []byte("x"))
		for i := 0; i < 7; i++ {
			c.Get(5, 0)
		}
		if h := c.FileHeat(5); h != 7 {
			t.Fatalf("heat = %d", h)
		}
		c.DropFile(5)
		if h := c.FileHeat(5); h != 0 {
			t.Fatalf("heat after drop = %d", h)
		}
	})
}

func TestCapacityBounded(t *testing.T) {
	both(t, func(t *testing.T, c BlockCache) {
		blk := make([]byte, 8<<10)
		for i := 0; i < 1000; i++ {
			c.Put(uint64(i%10+1), uint64(i*10000), blk)
		}
		if used := c.UsedBytes(); used > 1<<20 {
			t.Fatalf("used %d exceeds capacity", used)
		}
		if c.Stats().RegionsEvicted.Load() == 0 {
			t.Fatal("expected evictions")
		}
	})
}

func TestMetadataPackedSmallerThanGeneric(t *testing.T) {
	// The headline of Table 2: packed index costs far less per block.
	m := newMash(t, 8<<20, 256<<10)
	g := newGeneric(t, 8<<20)
	blk := make([]byte, 1024)
	const blocks = 2000
	for i := 0; i < blocks; i++ {
		m.Put(uint64(i%20+1), uint64(i*2048), blk)
		g.Put(uint64(i%20+1), uint64(i*2048), blk)
	}
	mPer := float64(m.MetadataBytes()) / float64(m.CachedBlocks())
	gPer := float64(g.MetadataBytes()) / float64(g.CachedBlocks())
	if mPer >= gPer/3 {
		t.Fatalf("packed index %.1f B/blk not ≪ generic %.1f B/blk", mPer, gPer)
	}
}

func TestMashIndexPersistence(t *testing.T) {
	dir := t.TempDir()
	c1, err := New(Options{Dir: dir, CapacityBytes: 1 << 20, RegionBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	body := bytes.Repeat([]byte("warm"), 256)
	c1.Put(9, 12345, body)
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := New(Options{Dir: dir, CapacityBytes: 1 << 20, RegionBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get(9, 12345)
	if !ok || !bytes.Equal(got, body) {
		t.Fatal("warm restart lost cached block")
	}

	// The snapshot is consumed by the load. Churn until file 9's region has
	// been recycled, then crash (no Close, so no new snapshot): the next open
	// must start cold, not read the old index over a DATA file that has moved
	// on and count the recycled entries as corrupt reads.
	for i := 0; i < 64; i++ {
		c2.Put(uint64(100+i), 0, bytes.Repeat([]byte{byte(i)}, 32<<10))
	}
	if _, ok := c2.Get(9, 12345); ok {
		t.Fatal("churn did not recycle the first block's region")
	}
	c2.f.Close()

	c3, err := New(Options{Dir: dir, CapacityBytes: 1 << 20, RegionBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if _, ok := c3.Get(9, 12345); ok {
		t.Fatal("a crash must be a cold start")
	}
	if n := c3.Stats().CorruptReads.Load(); n != 0 || c3.IndexWasCorrupt() {
		t.Fatalf("CorruptReads = %d, IndexWasCorrupt = %v after a crash with nothing injected",
			n, c3.IndexWasCorrupt())
	}
}

func TestMashCorruptIndexColdStarts(t *testing.T) {
	dir := t.TempDir()
	c1, _ := New(Options{Dir: dir, CapacityBytes: 1 << 20, RegionBytes: 64 << 10})
	c1.Put(9, 0, []byte("x"))
	c1.Close()

	idx := filepath.Join(dir, "INDEX")
	data, _ := os.ReadFile(idx)
	data[len(data)/2] ^= 0xff
	os.WriteFile(idx, data, 0o644)

	c2, err := New(Options{Dir: dir, CapacityBytes: 1 << 20, RegionBytes: 64 << 10})
	if err != nil {
		t.Fatal("corrupt index must not fail open:", err)
	}
	defer c2.Close()
	if _, ok := c2.Get(9, 0); ok {
		t.Fatal("corrupt index should cold-start")
	}
	if !c2.IndexWasCorrupt() {
		t.Fatal("IndexWasCorrupt not reported for a checksum-failed snapshot")
	}
	// Cache still functions.
	c2.Put(1, 0, []byte("y"))
	if _, ok := c2.Get(1, 0); !ok {
		t.Fatal("cache unusable after cold start")
	}
}

func TestMashGeometryChangeColdStarts(t *testing.T) {
	dir := t.TempDir()
	// Both sizes are under New's ceiling for this capacity (32 KiB), so
	// they are the geometry in effect.
	c1, _ := New(Options{Dir: dir, CapacityBytes: 1 << 20, RegionBytes: 16 << 10})
	c1.Put(9, 0, []byte("x"))
	c1.Close()

	c2, err := New(Options{Dir: dir, CapacityBytes: 1 << 20, RegionBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, ok := c2.Get(9, 0); ok {
		t.Fatal("changed region size must invalidate the index")
	}
	if c2.IndexWasCorrupt() {
		t.Fatal("geometry change is a clean invalidation, not corruption")
	}
}

func TestMashCorruptDataDetected(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Options{Dir: dir, CapacityBytes: 1 << 20, RegionBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Put(4, 0, bytes.Repeat([]byte("z"), 512))
	// Corrupt the DATA file under the cache.
	f, err := os.OpenFile(filepath.Join(dir, "DATA"), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteAt([]byte{0xff}, 10)
	f.Close()
	if _, ok := c.Get(4, 0); ok {
		t.Fatal("corrupt cached block returned as hit")
	}
	if n := c.Stats().CorruptReads.Load(); n != 1 {
		t.Fatalf("CorruptReads = %d, want 1", n)
	}
	// The damaged entry was dropped: the next read is a plain miss, not a
	// second corruption.
	if _, ok := c.Get(4, 0); ok {
		t.Fatal("dropped entry still served")
	}
	if n := c.Stats().CorruptReads.Load(); n != 1 {
		t.Fatalf("CorruptReads after drop = %d, want 1", n)
	}
	// Self-heal: re-admitting clean bytes serves hits again.
	c.Put(4, 0, bytes.Repeat([]byte("z"), 512))
	if _, ok := c.Get(4, 0); !ok {
		t.Fatal("re-admitted block not served")
	}
}

func TestMashRegionAffinity(t *testing.T) {
	// Blocks of different files must not share a region.
	c := newMash(t, 1<<20, 64<<10)
	c.Put(1, 0, make([]byte, 1000))
	c.Put(2, 0, make([]byte, 1000))
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.regions {
		r := &c.regions[i]
		if r.fileNum == 0 {
			continue
		}
		for _, e := range r.entries {
			_ = e
		}
	}
	if len(c.byFile[1]) == 0 || len(c.byFile[2]) == 0 {
		t.Fatal("files not indexed")
	}
	if c.byFile[1][0] == c.byFile[2][0] {
		t.Fatal("two files share a region")
	}
}

func TestMashEvictionPrefersCold(t *testing.T) {
	// Fill cache with two files, keep file 1 hot, then insert file 3;
	// file 1's blocks should survive more often than file 2's.
	c := newMash(t, 256<<10, 32<<10) // 8 regions
	blk := make([]byte, 28<<10)      // 1 block per region
	for i := 0; i < 4; i++ {
		c.Put(1, uint64(i)*100000, blk)
		c.Put(2, uint64(i)*100000, blk)
	}
	// Heat file 1.
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < 4; i++ {
			c.Get(1, uint64(i)*100000)
		}
	}
	// Insert file 3, forcing evictions.
	for i := 0; i < 4; i++ {
		c.Put(3, uint64(i)*100000, blk)
	}
	hot, cold := 0, 0
	for i := 0; i < 4; i++ {
		if _, ok := c.Get(1, uint64(i)*100000); ok {
			hot++
		}
		if _, ok := c.Get(2, uint64(i)*100000); ok {
			cold++
		}
	}
	if hot < cold {
		t.Fatalf("CLOCK evicted hot file first: hot=%d cold=%d", hot, cold)
	}
}

func TestNullCache(t *testing.T) {
	n := NewNull()
	n.Put(1, 0, []byte("x"))
	if _, ok := n.Get(1, 0); ok {
		t.Fatal("null cache hit")
	}
	if n.MetadataBytes() != 0 || n.UsedBytes() != 0 || n.FileHeat(1) != 0 {
		t.Fatal("null cache should be empty")
	}
	n.DropFile(1)
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestOversizedBlockDeclined(t *testing.T) {
	c := newMash(t, 1<<20, 4<<10)
	c.Put(1, 0, make([]byte, 8<<10))
	if _, ok := c.Get(1, 0); ok {
		t.Fatal("oversized block cached")
	}
}

func TestStressRandomOps(t *testing.T) {
	// Invariant under random ops: a hit must return exactly the bytes that
	// were first admitted for that (file, offset); absence is always legal
	// (evictions), wrong data never is. Both implementations decline
	// re-admission of a resident block, so "first put wins" holds.
	c := newMash(t, 2<<20, 64<<10)
	ref := map[[2]uint64][]byte{}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		file := uint64(rng.Intn(8) + 1)
		off := uint64(rng.Intn(64)) * 4096
		key := [2]uint64{file, off}
		switch rng.Intn(10) {
		case 0:
			c.DropFile(file)
			for k := range ref {
				if k[0] == file {
					delete(ref, k)
				}
			}
		case 1, 2, 3:
			body := make([]byte, rng.Intn(2048)+1)
			rng.Read(body)
			if _, resident := c.Get(file, off); !resident {
				c.Put(file, off, body)
				ref[key] = body
			}
		default:
			if got, ok := c.Get(file, off); ok {
				want, exists := ref[key]
				if !exists || !bytes.Equal(got, want) {
					t.Fatalf("stale data for (%d,%d)", file, off)
				}
			}
		}
	}
}

func TestHitRatioStats(t *testing.T) {
	both(t, func(t *testing.T, c BlockCache) {
		c.Put(1, 0, []byte("x"))
		c.Get(1, 0)
		c.Get(1, 999)
		s := c.Stats()
		if s.Hits.Load() != 1 || s.Misses.Load() != 1 {
			t.Fatalf("hits=%d misses=%d", s.Hits.Load(), s.Misses.Load())
		}
		if r := s.HitRatio(); r != 0.5 {
			t.Fatalf("ratio = %f", r)
		}
	})
}

// TestShardBucketAttribution checks that Get outcomes land in the
// keyspace-shard bucket implied by striped file numbering (shard =
// fileNum mod shard count), with shards >= 16 folded into the overflow
// bucket and everything in bucket 0 while unsharded.
func TestShardBucketAttribution(t *testing.T) {
	c := newMash(t, 1<<20, 64<<10)
	s := c.Stats()

	// Unsharded: all traffic is bucket 0 regardless of file number.
	c.Put(7, 0, []byte("unsharded"))
	c.Get(7, 0)
	if got := s.ShardHits[0].Load(); got != 1 {
		t.Fatalf("unsharded hit bucket 0 = %d, want 1", got)
	}

	s.SetKeyspaceShards(4)
	var baseHits, baseMisses [ShardBuckets]int64
	for b := 0; b < ShardBuckets; b++ {
		baseHits[b] = s.ShardHits[b].Load()
		baseMisses[b] = s.ShardMisses[b].Load()
	}
	for file := uint64(0); file < 8; file++ {
		c.Put(file+100, 0, []byte("sharded")) // fileNum 100..107 → shards 0..3 twice
		c.Get(file+100, 0)
		c.Get(file+100, 4096) // never inserted: a miss
	}
	// Files 100..107 stripe two files onto each of the 4 shards: one hit
	// and one miss per file means 2 hits and 2 misses per shard bucket.
	for shard := 0; shard < 4; shard++ {
		gotHits := s.ShardHits[shard].Load() - baseHits[shard]
		gotMisses := s.ShardMisses[shard].Load() - baseMisses[shard]
		if gotHits != 2 || gotMisses != 2 {
			t.Fatalf("shard %d: hits=%d misses=%d, want 2/2", shard, gotHits, gotMisses)
		}
	}

	// Shard counts past the bucket space collapse into the overflow bucket.
	s.SetKeyspaceShards(64)
	before := s.ShardMisses[ShardBuckets-1].Load()
	c.Get(163, 0) // 163 mod 64 = 35 ≥ 16 → overflow
	if got := s.ShardMisses[ShardBuckets-1].Load(); got != before+1 {
		t.Fatalf("overflow bucket misses = %d, want %d", got, before+1)
	}
}
