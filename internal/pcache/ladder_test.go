package pcache

import (
	"math/rand"
	"sort"
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
// admits to it, and its door reads a sketch sized by both caches' blocks
// that every read counts into.
type ladder struct {
	t       *testing.T
	bc      *cache.Cache
	pc      *PCache
	sketch  *cache.Sketch
	fetches int               // model cloud GETs
	retired map[uint64]uint64 // table -> the table that replaced it
}

func newLadder(t *testing.T, o Options, blockCacheBytes, pcacheBytes int64) *ladder {
	l := &ladder{t: t, retired: map[uint64]uint64{}}
	l.sketch = cache.NewSketch(int((blockCacheBytes + pcacheBytes) / ladderBlockBytes))
	o.Dir, o.Sketch = t.TempDir(), l.sketch
	pc, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pc.Close() })
	l.pc = pc
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

// read is the store's read walk (tableHandle.walk) reduced to its cache calls.
func (l *ladder) read(block int) {
	file := uint64(1 + block/ladderTableBlocks)
	if next, dead := l.retired[file]; dead {
		file = next
	}
	k := cache.Key{FileNum: file, Offset: uint64(block % ladderTableBlocks * ladderBlockBytes)}
	l.sketch.Add(k)
	if _, _, ok := l.bc.Get(k); ok {
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

// ladderStream returns the blocks the stream's reads name, in order, and
// the block of its hottest record.
func ladderStream(seed int64) (blocks []int, hottest int) {
	rng := rand.New(rand.NewSource(seed))
	pos := rng.Perm(ladderRecords) // popularity rank -> position in key order
	zipf := ycsb.NewZipfian(rng, ladderRecords, 0.99)
	blocks = make([]int, ladderReads)
	for i := range blocks {
		rank := min(int(zipf.Next()), ladderRecords-1)
		blocks[i] = pos[rank] * 10 / 94
	}
	return blocks, pos[0] * 10 / 94
}

// run drives the stream and returns the model's cloud GETs per thousand
// counted reads.
func (l *ladder) run(seed int64) float64 {
	blocks, hottest := ladderStream(seed)
	local := make([]byte, ladderBlockBytes)
	for i, b := range blocks {
		if i == ladderWarm {
			l.fetches = 0
		}
		if i == ladderWarm/2 {
			// The hottest record's table is compacted away mid warm-up.
			hot := uint64(1 + hottest/ladderTableBlocks)
			l.retire(hot, hot+1000)
		}
		if i%8 == 0 {
			// Local-tier traffic shares the block cache and never demotes.
			l.bc.Put(cache.Key{FileNum: localTables + uint64(i%64), Offset: uint64(i)}, local)
		}
		l.read(b)
	}
	return float64(l.fetches) * 1000 / float64(ladderReads-ladderWarm)
}

// referenceGETs returns two references for the measured stream, in cloud
// GETs per thousand counted reads. optimum is its static optimum: the blocks
// it reads most, as many as fit in capacity bytes, held from its first read
// on, and every read of any other block a GET. It knows the future, so it
// misses far less than any cache can. compulsory is the floor of a cache of
// any size that starts empty with the stream: the measured reads of a block
// no read before them named.
func referenceGETs(seed int64, capacity int64) (optimum, compulsory float64) {
	blocks, hottest := ladderStream(seed)
	reads := map[int]int{}
	seen := map[int]bool{}
	firsts := 0
	for i, b := range blocks {
		if i == ladderWarm/2 {
			// run's compaction renames the hottest table: its blocks are new.
			for s := range seen {
				if s/ladderTableBlocks == hottest/ladderTableBlocks {
					delete(seen, s)
				}
			}
		}
		if i >= ladderWarm {
			reads[b]++
			if !seen[b] {
				firsts++
			}
		}
		seen[b] = true
	}
	counts := make([]int, 0, len(reads))
	for _, n := range reads {
		counts = append(counts, n)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	misses := 0
	for _, n := range counts[min(len(counts), int(capacity/ladderBlockBytes)):] {
		misses += n
	}
	perK := func(n int) float64 { return float64(n) * 1000 / float64(ladderReads-ladderWarm) }
	return perK(misses), perK(firsts)
}

// TestCacheLadder is fig9 without sleeps: the block stream above through the
// real block cache and the real persistent cache, wired as db.Open wires
// them. It pins what the ladder buys (cloud fetches per thousand reads; the
// store measured 391 when a fetched block was admitted to both caches at
// once, 305 before the frequency door), that the region layout costs little
// against a block-granular LRU of equal bytes, and that the cache's bytes
// are in use. The static optimum over both caches' bytes and the
// compulsory-miss floor are logged beside them as references.
func TestCacheLadder(t *testing.T) {
	const seed = 22
	// RegionBytes as the benchmark passes it; New derives 32 KiB.
	mash := Options{CapacityBytes: ladderPCache, RegionBytes: 128 << 10}
	optimum, compulsory := referenceGETs(seed, ladderBlockCache+ladderPCache)
	t.Logf("optimum: %.1f cloud GETs per thousand reads (the measured stream's most-read blocks in %d MiB); compulsory: %.1f (first reads)",
		optimum, (ladderBlockCache+ladderPCache)>>20, compulsory)
	var mashGETs float64
	for _, tc := range []struct {
		name       string
		opts       Options
		blockCache int64
		maxGETs    float64 // per thousand reads; 0 = not pinned
	}{
		{name: "mash", opts: mash, blockCache: ladderBlockCache, maxGETs: 311},
		{name: "generic", opts: Options{CapacityBytes: ladderPCache, Generic: true}, blockCache: ladderBlockCache},
		// Without a block cache every block is declined at its door and
		// must still reach the persistent cache.
		{name: "no-block-cache", opts: mash, blockCache: 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := newLadder(t, tc.opts, tc.blockCache, ladderPCache)
			pc := l.pc
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

// TestDoorKeepsTheHotSet fills a 64-block persistent cache with a hot set
// that is read again and again, then floods the block cache with blocks
// nobody reads — scan readahead that lands and is never consumed. Every one
// of them is demoted, and the frequency door must turn each away instead of
// letting it displace the hot set: the next pass over the hot set costs no
// cloud GET.
func TestDoorKeepsTheHotSet(t *testing.T) {
	const hot, flood = 64, 1000
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"mash", Options{CapacityBytes: hot * ladderBlockBytes, RegionBytes: 8 * ladderBlockBytes}},
		{"generic", Options{CapacityBytes: hot * ladderBlockBytes, Generic: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := newLadder(t, tc.opts, 16*ladderBlockBytes, hot*ladderBlockBytes)
			pc := l.pc
			for pass := 0; pass < 4; pass++ {
				for b := 0; b < hot; b++ {
					l.read(b)
				}
			}
			for i := 0; i < flood; i++ {
				k := cache.Key{FileNum: uint64(100 + i/ladderTableBlocks), Offset: uint64(i % ladderTableBlocks * ladderBlockBytes)}
				l.bc.PutCloud(k, stamped(k.FileNum, k.Offset, ladderBlockBytes))
			}
			l.fetches = 0
			for b := 0; b < hot; b++ {
				l.read(b)
			}
			declined := pc.Stats().DoorDeclined.Load()
			t.Logf("%d cloud GETs re-reading the hot set, %d demotions declined", l.fetches, declined)
			if l.fetches > 0 {
				t.Errorf("%d of %d hot blocks were displaced by blocks nobody read", l.fetches, hot)
			}
			if declined < flood*9/10 {
				t.Errorf("%d of %d never-read demotions declined at the door", declined, flood)
			}
		})
	}
}
