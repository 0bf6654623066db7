package pcache

import (
	"math/rand"
	"testing"

	"rocksmash/internal/cache"
	"rocksmash/internal/ycsb"
)

// The benchmark's get_cold shape, without the store around it: 200k records
// read by zipfian(0.99) popularity, keys scrambled so that rank says nothing
// about position, 9.4 records to a 4 KiB block and 256 blocks to a table;
// an 8 MiB block cache over a 16 MiB persistent cache, which is a fifth of
// the 21k blocks. 32k reads, the first 10k of them warm-up.
const (
	ladderRecords     = 200_000
	ladderBlockBytes  = 4096
	ladderTableBlocks = 256
	ladderReads       = 32_000
	ladderWarm        = 10_000
	ladderBlockCache  = 8 << 20
	ladderPCache      = 16 << 20
)

// ladder is the read path's cache wiring as db.Open sets it up: the
// persistent cache's Put is the block cache's demote sink and nothing else
// admits to it.
type ladder struct {
	t       *testing.T
	bc      *cache.Cache
	pc      BlockCache
	fetches int               // model cloud GETs
	retired map[uint64]uint64 // table -> the table that replaced it
}

func newLadder(t *testing.T, pc BlockCache, blockCacheBytes int64) *ladder {
	l := &ladder{t: t, pc: pc, retired: map[uint64]uint64{}}
	l.bc = cache.NewWithSink(blockCacheBytes, func(k cache.Key, body []byte) {
		if k.FileNum >= localTables {
			t.Errorf("sink called for local-tier block %v", k)
		}
		if _, dead := l.retired[k.FileNum]; dead {
			t.Errorf("sink called for block %v after InvalidateFile", k)
		}
		pc.Put(k.FileNum, k.Offset, body)
	})
	return l
}

// localTables is where the file numbers of the stream's local-tier tables
// start; cloud tables count up from 1.
const localTables = 1 << 20

// read is tableCache.fetchFor reduced to its cache calls.
func (l *ladder) read(block int) {
	file := uint64(1 + block/ladderTableBlocks)
	if next, dead := l.retired[file]; dead {
		file = next
	}
	k := cache.Key{FileNum: file, Offset: uint64(block % ladderTableBlocks * ladderBlockBytes)}
	if _, ok := l.bc.Get(k); ok {
		return
	}
	body, ok := l.pc.Get(k.FileNum, k.Offset)
	if !ok {
		l.fetches++
		body = stamped(k.FileNum, k.Offset, ladderBlockBytes)
	} else if !isStamped(body, k.FileNum, k.Offset) {
		l.t.Fatalf("persistent cache served another block's bytes for %v", k)
	}
	l.bc.PutCloud(k, body)
}

// retire is a compaction deleting a table, in the engine's order.
func (l *ladder) retire(file, replacement uint64) {
	l.bc.InvalidateFile(file)
	l.pc.DropFile(file)
	l.retired[file] = replacement
}

// run drives the stream and returns the model's cloud GETs per thousand
// counted reads.
func (l *ladder) run(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	pos := rng.Perm(ladderRecords) // popularity rank -> position in key order
	zipf := ycsb.NewZipfian(rng, ladderRecords, 0.99)
	local := make([]byte, ladderBlockBytes)
	for i := 0; i < ladderReads; i++ {
		if i == ladderWarm {
			l.fetches = 0
		}
		if i == ladderWarm/2 {
			// The hottest record's table is compacted away mid warm-up.
			hot := uint64(1 + pos[0]*10/94/ladderTableBlocks)
			l.retire(hot, hot+1000)
		}
		if i%8 == 0 {
			// Local-tier traffic shares the block cache and never demotes.
			l.bc.Put(cache.Key{FileNum: localTables + uint64(i%64), Offset: uint64(i)}, local)
		}
		rank := min(int(zipf.Next()), ladderRecords-1)
		l.read(pos[rank] * 10 / 94)
	}
	return float64(l.fetches) * 1000 / float64(ladderReads-ladderWarm)
}

// TestCacheLadder is fig9 without sleeps: the block stream above through the
// real block cache and the real persistent cache, wired as db.Open wires
// them. It pins what the ladder buys (cloud fetches per thousand reads; the
// store measured 391 when a fetched block was admitted to both caches at
// once), that the region layout costs little against a block-granular LRU
// of equal bytes, and that the cache's bytes are in use.
func TestCacheLadder(t *testing.T) {
	const seed = 22
	newMashCache := func(t *testing.T) BlockCache {
		// RegionBytes as the benchmark passes it; New derives 32 KiB.
		return newMash(t, ladderPCache, 128<<10)
	}
	var mashGETs float64
	for _, tc := range []struct {
		name       string
		pc         func(*testing.T) BlockCache
		blockCache int64
		maxGETs    float64 // per thousand reads; 0 = not pinned
	}{
		{name: "mash", pc: newMashCache, blockCache: ladderBlockCache, maxGETs: 335},
		{name: "generic", pc: func(t *testing.T) BlockCache { return newGeneric(t, ladderPCache) }, blockCache: ladderBlockCache},
		// Without a block cache every block is declined at its door and
		// must still reach the persistent cache.
		{name: "no-block-cache", pc: newMashCache, blockCache: 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pc := tc.pc(t)
			l := newLadder(t, pc, tc.blockCache)
			gets := l.run(seed)
			occupancy := float64(pc.UsedBytes()) / ladderPCache
			t.Logf("%.1f cloud GETs per thousand reads, block cache hit %.3f, pcache hit %.3f, occupancy %.3f, %.1f B metadata per block",
				gets, l.bc.HitRatio(), pc.Stats().HitRatio(), occupancy,
				float64(pc.MetadataBytes())*ladderBlockBytes/float64(pc.UsedBytes()))
			if tc.maxGETs > 0 && gets > tc.maxGETs {
				t.Errorf("%.1f cloud GETs per thousand reads, want at most %.0f", gets, tc.maxGETs)
			}
			if occupancy < 0.85 {
				t.Errorf("occupancy %.3f of a full cache, want at least 0.85", occupancy)
			}
			switch tc.name {
			case "mash":
				mashGETs = gets
			case "generic":
				if mashGETs > gets*1.10 {
					t.Errorf("region layout: %.1f GETs per thousand reads, more than 10%% above the block-granular LRU's %.1f", mashGETs, gets)
				}
			}
		})
	}
}
