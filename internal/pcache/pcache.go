// Package pcache implements the paper's LSM-aware persistent cache: a
// local-disk cache holding data blocks of cloud-resident SSTables.
//
// There is one cache type, PCache. It owns everything that is policy: the
// admission gate, the frequency door's sketch, per-file heat and level
// attribution, the statistics, what a damaged read costs, the events, and
// the ring of retired files. Behind it sits one of the two index layouts
// the paper compares (Tab. 2, fig6):
//
//  1. The packed region index, the paper's design (mash.go). The cache
//     file is divided into fixed-size regions, each owned by one SSTable,
//     and each region's blocks are described by a sorted array of 20 B
//     entries instead of a per-block hash-map node. Blocks of one SSTable
//     live contiguously in its regions, in file order. Compaction deletes
//     whole input files, so DropFile is a constant-time region free, and
//     CLOCK evicts whole regions, so a cold file's space is reclaimed
//     wholesale. Per-file heat lets compaction warm outputs whose inputs
//     were hot (admission inheritance).
//  2. The generic per-block LRU, the baseline (generic.go): a file and a
//     ~150 B map-and-list node per block, evicted one block at a time.
//
// A store with no persistent cache holds a PCache with no index: every Get
// is a miss in the unknown-level bucket and nothing is stored.
//
// On the read path the cache is the in-memory block cache's victim tier: the
// DB admits a block here when that cache lets go of it (internal/cache's
// demote sink), not when the block is fetched, so the two caches' retention
// windows add up instead of overlapping. That demotion passes a frequency
// door (TinyLFU's admission rule): once no free space is left, the block is
// admitted only if the read-frequency sketch (Options.Sketch) estimates it
// above what its bytes would displace, by a rule each index gives: the mean
// of the region CLOCK would recycle next, or the LRU tail block. Blocks read
// once, and scan readahead nobody read, thus stop displacing blocks read
// again and again. Freshly built tables are warmed in directly (PutBulk),
// past the door.
//
// The cache is strictly read-through: losing its state (crash without index
// snapshot) or a block's bytes affects only performance, never correctness.
package pcache

import (
	"errors"
	"hash/crc32"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"rocksmash/internal/cache"
	"rocksmash/internal/event"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// LevelBuckets sizes the per-LSM-level hit/miss counters. Buckets 0..6
// map to levels L0..L6; the last bucket collects requests against files
// whose level the cache was never told (SetLevel not called).
const LevelBuckets = 8

// LevelUnknown is the bucket for files with no registered level.
const LevelUnknown = LevelBuckets - 1

// LevelBucket maps an LSM level to its counter bucket.
func LevelBucket(level int) int {
	if level < 0 || level >= LevelUnknown {
		return LevelUnknown
	}
	return level
}

// ShardBuckets sizes the per-keyspace-shard hit/miss counters. Buckets
// 0..15 map to shards directly; the last bucket collects shards ≥ 16.
const ShardBuckets = 17

// Stats counts cache activity.
type Stats struct {
	Hits           atomic.Int64
	Misses         atomic.Int64
	Inserted       atomic.Int64 // blocks admitted
	BytesInserted  atomic.Int64
	RegionsEvicted atomic.Int64 // regions, or blocks for the generic index
	FilesDropped   atomic.Int64
	// CorruptReads counts Gets whose cached bytes could not be read back
	// intact: a CRC mismatch (torn write or bit rot) or a failed read (a
	// lost block file). Each is served as a miss — the authoritative copy
	// lives in cloud storage — and the damaged entry is dropped so the next
	// read re-fetches and re-admits clean bytes.
	CorruptReads atomic.Int64
	// AdmitDeclined counts Puts refused by the admission gate (local-degraded
	// mode: the cache must not write to a failing local device).
	AdmitDeclined atomic.Int64
	// DoorDeclined counts Puts refused by the frequency door: the block had
	// been read no more often than what its bytes would displace.
	DoorDeclined atomic.Int64
	// LevelHits/LevelMisses break Get outcomes down by the requested
	// file's LSM level (see LevelBucket); they sum to Hits/Misses.
	LevelHits   [LevelBuckets]atomic.Int64
	LevelMisses [LevelBuckets]atomic.Int64
	// ShardHits/ShardMisses break the same outcomes down by keyspace shard.
	// With striped file numbering, a file's owning shard is fileNum mod the
	// shard count, so no extra per-file registration is needed. All traffic
	// lands in bucket 0 until SetKeyspaceShards is called.
	ShardHits   [ShardBuckets]atomic.Int64
	ShardMisses [ShardBuckets]atomic.Int64
	// shardMod is the keyspace shard count (0 or 1 = unsharded).
	shardMod atomic.Uint64
}

// SetKeyspaceShards tells the stats how many keyspace shards stripe the
// file-number space, enabling per-shard attribution of Get outcomes.
func (s *Stats) SetKeyspaceShards(n int) {
	if n < 0 {
		n = 0
	}
	s.shardMod.Store(uint64(n))
}

// ShardBucket maps a file number to its keyspace-shard counter bucket.
func (s *Stats) ShardBucket(fileNum uint64) int {
	mod := s.shardMod.Load()
	if mod <= 1 {
		return 0
	}
	b := int(fileNum % mod)
	if b >= ShardBuckets-1 {
		return ShardBuckets - 1
	}
	return b
}

// HitRatio returns hits/(hits+misses).
func (s *Stats) HitRatio() float64 {
	h, m := s.Hits.Load(), s.Misses.Load()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// record counts one Get outcome for fileNum against the level bucket b and
// the file's keyspace-shard bucket.
func (s *Stats) record(hit bool, b int, fileNum uint64) {
	if hit {
		s.Hits.Add(1)
		s.LevelHits[b].Add(1)
		s.ShardHits[s.ShardBucket(fileNum)].Add(1)
		return
	}
	s.Misses.Add(1)
	s.LevelMisses[b].Add(1)
	s.ShardMisses[s.ShardBucket(fileNum)].Add(1)
}

// Options configures a PCache.
type Options struct {
	// Dir is the local directory holding the cache's files.
	Dir string
	// CapacityBytes bounds the cached data. Zero or less opens a cache with
	// no index, which stores nothing.
	CapacityBytes int64
	// RegionBytes is a ceiling on the packed index's allocation unit; one
	// region belongs to one SSTable. Every table with cached blocks owns one
	// open region that is on average half empty, so the unit New settles on
	// also keeps the cache at minRegions regions or more (see openPacked);
	// RegionBytes reports it. Blocks larger than the unit are never cached.
	RegionBytes int64
	// Generic selects the baseline per-block LRU index instead of packed
	// regions; RegionBytes is then unused.
	Generic bool

	// Listener receives admit, evict and corruption events; nil fires none.
	Listener event.Listener
	// Admit is the admission gate consulted before every Put and PutBulk;
	// returning false declines the admission (Stats.AdmitDeclined). The DB
	// gates admissions off while the local tier is degraded — cache writes
	// land on the failing device. Nil always admits.
	Admit func() bool
	// Sketch is the read-frequency sketch Put's door consults once the
	// cache has no free space left: a block is admitted only if its estimate
	// is higher than that of what its bytes displace (Stats.DoorDeclined
	// otherwise). Without one every Put is admitted.
	Sketch *cache.Sketch
}

// Block is one (offset, body) pair for bulk admission.
type Block struct {
	Off  uint64
	Body []byte
}

// PCache is the persistent cache. See the package comment.
type PCache struct {
	idx    index // nil: no persistent cache
	stats  Stats
	ev     event.Listener
	admit  func() bool
	sketch *cache.Sketch
	// maxBlock is the largest block the index stores; object names the
	// index's data in a corruption event.
	maxBlock int64
	object   string
	// indexCorrupt records that New found an INDEX snapshot that failed its
	// checksum (as opposed to a clean cold start with no snapshot at all).
	indexCorrupt bool

	// mu guards the index, files, dropped and evs: a Put's ring check and
	// its insert are atomic with respect to DropFile.
	mu      sync.Mutex
	files   map[uint64]*fileState
	dropped dropRing
	evs     []event.PCacheEvict // the buffer locked sections collect evictions in
}

// fileState is what the cache knows of one file besides its blocks.
type fileState struct {
	heat  int64 // Gets against the file, hit or miss
	level int8  // its level bucket
}

// index is a block layout: where a cached block's bytes live and which
// bytes a full cache gives up. Every method but read runs under PCache.mu.
type index interface {
	// find locates a cached block; touch marks it recently used.
	find(fileNum, blockOff uint64, touch bool) (slot, bool)
	// read returns a located block's bytes. It runs unlocked.
	read(s slot) ([]byte, error)
	// forget drops the entry of a block whose read failed, and reports
	// false, dropping nothing, when s no longer names the entry find saw:
	// the read raced a recycle or an eviction, and nothing is damaged.
	forget(s slot) bool
	// admits is the frequency door: with no room left for size more bytes,
	// whether sk rates the block above what its bytes would displace.
	admits(sk *cache.Sketch, fileNum, blockOff uint64, size int) bool
	// insert stores a block known not to be cached, appending the
	// evictions it causes to evs; false if it could not.
	insert(fileNum, blockOff uint64, body []byte, evs []event.PCacheEvict) (bool, []event.PCacheEvict)
	// dropFile evicts every block of fileNum.
	dropFile(fileNum uint64, evs []event.PCacheEvict) []event.PCacheEvict
	// usage reports the blocks held, their bytes and the index's own.
	usage() (blocks int, used, meta int64)
	// close persists what the layout can recover from and releases it.
	close() error
}

// slot is a located block as find saw it: enough to read it unlocked and
// to tell afterwards whether the entry is still the one that was read.
type slot struct {
	fileNum, blockOff uint64
	at                int64  // packed: the block's offset in DATA
	region            int32  // packed: the region holding it
	epoch             uint32 // the region's epoch (packed) or the entry's generation (generic)
	length, crc       uint32
}

// New opens (or creates) a persistent cache under opts.Dir. The packed
// index loads — and consumes — a snapshot the last clean Close left when it
// is intact and of the same geometry; a missing, stale or corrupt snapshot
// yields an empty (cold) cache, never an error.
func New(opts Options) (*PCache, error) {
	c := &PCache{ev: opts.Listener, admit: opts.Admit, sketch: opts.Sketch, files: map[uint64]*fileState{}}
	if opts.CapacityBytes <= 0 {
		return c, nil
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	if opts.Generic {
		g, err := openGeneric(opts.Dir, opts.CapacityBytes)
		if err != nil {
			return nil, err
		}
		c.idx, c.maxBlock, c.object = g, opts.CapacityBytes, "blocks"
		return c, nil
	}
	p, corrupt, err := openPacked(opts)
	if err != nil {
		return nil, err
	}
	c.idx, c.maxBlock, c.object, c.indexCorrupt = p, p.regionBytes, "DATA", corrupt
	return c, nil
}

// IndexWasCorrupt reports whether the startup index snapshot existed but
// failed verification (the cache cold-started as the repair).
func (c *PCache) IndexWasCorrupt() bool { return c.indexCorrupt }

// RegionBytes returns the packed index's allocation unit in effect (see
// Options), and 0 for any other layout.
func (c *PCache) RegionBytes() int64 {
	if p, ok := c.idx.(*packed); ok {
		return p.regionBytes
	}
	return 0
}

// fileLocked returns fileNum's state, creating it.
func (c *PCache) fileLocked(fileNum uint64) *fileState {
	f := c.files[fileNum]
	if f == nil {
		f = &fileState{level: LevelUnknown}
		c.files[fileNum] = f
	}
	return f
}

// Get returns the cached block body for (fileNum, blockOff). It counts
// toward the file's heat whether it hits or misses: heat measures read
// traffic against the file, so compaction can recognize actively-read
// ranges even when the cache is cold for them.
func (c *PCache) Get(fileNum, blockOff uint64) ([]byte, bool) {
	if c.idx == nil {
		c.stats.record(false, LevelUnknown, fileNum)
		return nil, false
	}
	c.mu.Lock()
	f := c.fileLocked(fileNum)
	f.heat++
	level := int(f.level)
	s, ok := c.idx.find(fileNum, blockOff, true)
	c.mu.Unlock()
	var body []byte
	if ok {
		body, ok = c.read(s)
	}
	c.stats.record(ok, level, fileNum)
	return body, ok
}

var errCRC = errors.New("pcache: block crc mismatch")

// read reads a located block outside the lock and checks its CRC. A block
// that cannot be read back intact is a miss. Its entry is dropped, and the
// damage counted and reported, unless the entry changed while the read ran
// unlocked: then the bytes read were another block's, and that is a plain
// miss.
func (c *PCache) read(s slot) ([]byte, bool) {
	body, err := c.idx.read(s)
	if err == nil && crc32.Checksum(body, castagnoli) == s.crc {
		return body, true
	}
	if err == nil {
		err = errCRC
	}
	c.mu.Lock()
	damaged := c.idx.forget(s)
	c.mu.Unlock()
	if damaged {
		c.stats.CorruptReads.Add(1)
		if c.ev != nil {
			c.ev.OnCorruptionDetected(event.CorruptionDetected{
				Artifact: "pcache", Object: c.object, File: s.fileNum, Err: err.Error(),
			})
		}
	}
	return nil, false
}

// Put admits a block body demoted from the block cache; with a sketch, a
// full cache admits it only through the frequency door. It may decline
// silently.
func (c *PCache) Put(fileNum, blockOff uint64, body []byte) {
	c.put(fileNum, []Block{{Off: blockOff, Body: body}}, true)
}

// PutBulk admits a run of blocks from one file under one lock hold — the
// admission path of freshly built tables (flush write-through, compaction
// inheritance, relocation re-warm), past the frequency door. Adjacent
// blocks of one file land back to back in its regions, preserving the
// compaction-aware layout; the generic index pays per block.
func (c *PCache) PutBulk(fileNum uint64, blocks []Block) { c.put(fileNum, blocks, false) }

func (c *PCache) put(fileNum uint64, blocks []Block, door bool) {
	if c.idx == nil {
		return
	}
	if c.admit != nil && !c.admit() {
		c.stats.AdmitDeclined.Add(int64(len(blocks)))
		return
	}
	var n, size int64
	c.mu.Lock()
	evs := c.evs
	// A file DropFile retired is dead for good (file numbers are never
	// reused): a demotion that lost the race with it, or a block a reader
	// of an older version fetched afterwards, must not park there.
	if !c.dropped.has(fileNum) {
		for _, b := range blocks {
			if int64(len(b.Body)) > c.maxBlock {
				continue
			}
			if _, ok := c.idx.find(fileNum, b.Off, false); ok {
				continue // a block promoted from here and demoted again
			}
			if door && c.sketch != nil && !c.idx.admits(c.sketch, fileNum, b.Off, len(b.Body)) {
				c.stats.DoorDeclined.Add(1)
				continue
			}
			var ok bool
			if ok, evs = c.idx.insert(fileNum, b.Off, b.Body, evs); ok {
				n++
				size += int64(len(b.Body))
			}
		}
	}
	evs = c.evictedLocked(evs)
	c.mu.Unlock()
	if n > 0 {
		c.stats.Inserted.Add(n)
		c.stats.BytesInserted.Add(size)
	}
	c.fire(fileNum, int(n), size, evs)
}

// evictedLocked counts the evictions a locked section appended to the evs
// buffer and keeps the buffer for the next section. It returns the events
// to fire after the unlock: a copy, and nil without a listener.
func (c *PCache) evictedLocked(evs []event.PCacheEvict) []event.PCacheEvict {
	c.stats.RegionsEvicted.Add(int64(len(evs)))
	c.evs = evs[:0]
	if c.ev == nil || len(evs) == 0 {
		return nil
	}
	return slices.Clone(evs)
}

// fire fires a section's events after its unlock: listeners never run
// under the cache lock.
func (c *PCache) fire(fileNum uint64, blocks int, bytes int64, evs []event.PCacheEvict) {
	if c.ev == nil {
		return
	}
	for _, e := range evs {
		c.ev.OnPCacheEvict(e)
	}
	if blocks > 0 {
		c.ev.OnPCacheAdmit(event.PCacheAdmit{File: fileNum, Blocks: blocks, Bytes: bytes})
	}
}

// DropFile evicts every block of fileNum (the file was deleted by
// compaction) and forgets its heat and level.
func (c *PCache) DropFile(fileNum uint64) {
	if c.idx == nil {
		return
	}
	c.mu.Lock()
	evs := c.evictedLocked(c.idx.dropFile(fileNum, c.evs))
	c.dropped.add(fileNum)
	delete(c.files, fileNum)
	c.mu.Unlock()
	c.stats.FilesDropped.Add(1)
	c.fire(fileNum, 0, 0, evs)
}

// SetLevel registers fileNum's LSM level so Get outcomes can be attributed
// per level. The DB calls it when a table is installed (flush, compaction,
// open); unknown files land in the last bucket.
func (c *PCache) SetLevel(fileNum uint64, level int) {
	if c.idx == nil {
		return
	}
	c.mu.Lock()
	c.fileLocked(fileNum).level = int8(LevelBucket(level))
	c.mu.Unlock()
}

// FileHeat returns the number of Gets issued against fileNum since it was
// first seen; compaction uses it for admission inheritance.
func (c *PCache) FileHeat(fileNum uint64) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f := c.files[fileNum]; f != nil {
		return f.heat
	}
	return 0
}

func (c *PCache) usage() (blocks int, used, meta int64) {
	if c.idx == nil {
		return 0, 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.idx.usage()
}

// CachedBlocks returns the number of blocks currently indexed.
func (c *PCache) CachedBlocks() int { n, _, _ := c.usage(); return n }

// UsedBytes reports cached data bytes.
func (c *PCache) UsedBytes() int64 { _, n, _ := c.usage(); return n }

// MetadataBytes reports the in-memory index footprint.
func (c *PCache) MetadataBytes() int64 { _, _, n := c.usage(); return n }

// Stats exposes activity counters.
func (c *PCache) Stats() *Stats { return &c.stats }

// Close persists index state where the layout can, and releases it.
func (c *PCache) Close() error {
	if c.idx == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.idx.close()
}

// dropRing remembers the file numbers most recently passed to DropFile, so
// that a Put which lost the race with it is declined. A number that has aged
// out of the ring merely costs that wasted space again. Guarded by mu.
type dropRing struct {
	nums [64]uint64
	next int
}

func (d *dropRing) add(fileNum uint64) {
	d.nums[d.next%len(d.nums)] = fileNum
	d.next++
}

func (d *dropRing) has(fileNum uint64) bool {
	for _, n := range d.nums[:min(d.next, len(d.nums))] {
		if n == fileNum {
			return true
		}
	}
	return false
}
