// Package pcache implements the paper's LSM-aware persistent cache: a
// local-disk cache holding data blocks of cloud-resident SSTables.
//
// Two properties distinguish it from a generic persistent block cache:
//
//  1. Space-efficient metadata. The index is packed: the cache file is
//     divided into fixed-size regions, each owned by one SSTable, and each
//     region's blocks are described by a sorted array of small fixed-width
//     entries (~20 B/block) instead of a per-block hash-map node
//     (~150 B/block for a generic cache). See GenericLRU in this package
//     for the baseline the paper compares against.
//
//  2. Compaction-aware layout. Blocks of one SSTable live contiguously in
//     that SSTable's regions, in file order. Compaction deletes whole input
//     files, so eviction of their blocks is a constant-time region free
//     (DropFile); the CLOCK eviction policy also operates on regions, so a
//     cold file's cache space is reclaimed wholesale. The cache exposes
//     per-file heat so compaction can warm output files whose inputs were
//     hot (admission inheritance).
//
// On the read path the cache is the in-memory block cache's victim tier: the
// DB admits a block here when that cache lets go of it (internal/cache's
// demote sink), not when the block is fetched, so the two caches' retention
// windows add up instead of overlapping. Freshly built tables are warmed in
// directly (PutBulk).
//
// The cache is strictly read-through: losing its state (crash without index
// snapshot) affects only performance, never correctness.
package pcache

import (
	"sync"
	"sync/atomic"
)

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
	RegionsEvicted atomic.Int64
	FilesDropped   atomic.Int64
	// CorruptReads counts Gets whose cached bytes failed their CRC (torn
	// write or bit rot in the cache file). Each is served as a miss — the
	// authoritative copy lives in cloud storage — and the damaged entry is
	// dropped so the next read re-fetches and re-admits clean bytes.
	CorruptReads atomic.Int64
	// AdmitDeclined counts Puts refused by the admission gate (local-degraded
	// mode: the cache must not write to a failing local device).
	AdmitDeclined atomic.Int64
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

// hit/miss record one Get outcome for fileNum against the level bucket b
// and the file's keyspace-shard bucket.
func (s *Stats) hit(b int, fileNum uint64) {
	s.Hits.Add(1)
	s.LevelHits[b].Add(1)
	s.ShardHits[s.ShardBucket(fileNum)].Add(1)
}

func (s *Stats) miss(b int, fileNum uint64) {
	s.Misses.Add(1)
	s.LevelMisses[b].Add(1)
	s.ShardMisses[s.ShardBucket(fileNum)].Add(1)
}

// BlockCache is the interface the DB read path uses for persistent
// caching. Implementations: *PCache (the paper's design) and *GenericLRU
// (the non-LSM-aware baseline).
type BlockCache interface {
	// Get returns the cached block body for (fileNum, blockOff). It
	// counts toward the file's heat whether it hits or misses: heat
	// measures read traffic against the file, not cache luck.
	Get(fileNum, blockOff uint64) ([]byte, bool)
	// Probe is Get without statistics or heat accounting; compaction
	// reads use it so bulk merges don't masquerade as workload heat.
	Probe(fileNum, blockOff uint64) ([]byte, bool)
	// Put admits a block body. Implementations may decline silently.
	Put(fileNum, blockOff uint64, body []byte)
	// PutBulk admits a run of blocks from one file in a single call — the
	// admission path for coalesced range reads (iterator readahead,
	// compaction warming), where many adjacent blocks arrive at once.
	// Implementations may batch index updates; admission of individual
	// blocks may still be declined silently.
	PutBulk(fileNum uint64, blocks []Block)
	// DropFile evicts every block of fileNum (the file was deleted by
	// compaction).
	DropFile(fileNum uint64)
	// SetLevel registers fileNum's LSM level so Get outcomes can be
	// attributed per level. The DB calls it when a table is installed
	// (flush, compaction, open); unknown files land in the last bucket.
	SetLevel(fileNum uint64, level int)
	// SetAdmit installs an admission gate consulted before every Put and
	// PutBulk; returning false declines the admission (counted in
	// Stats.AdmitDeclined). The DB gates admissions off while the local
	// tier is degraded — cache writes land on the failing device. Must be
	// set before the cache is shared between goroutines; nil always admits.
	SetAdmit(func() bool)
	// FileHeat returns the number of reads issued against fileNum since
	// it was first seen; compaction uses it for admission inheritance.
	FileHeat(fileNum uint64) int64
	// MetadataBytes reports the in-memory index footprint.
	MetadataBytes() int64
	// UsedBytes reports cached data bytes.
	UsedBytes() int64
	// Stats exposes activity counters.
	Stats() *Stats
	// Close persists index state where applicable.
	Close() error
}

// Block is one (offset, body) pair for bulk admission.
type Block struct {
	Off  uint64
	Body []byte
}

// Null is a BlockCache that caches nothing (cloud-only baseline).
type Null struct{ stats Stats }

// NewNull returns a no-op cache.
func NewNull() *Null { return &Null{} }

// Get always misses.
func (n *Null) Get(fileNum, _ uint64) ([]byte, bool) {
	n.stats.miss(LevelUnknown, fileNum)
	return nil, false
}

// Probe always misses.
func (n *Null) Probe(uint64, uint64) ([]byte, bool) { return nil, false }

// Put drops the block.
func (n *Null) Put(uint64, uint64, []byte) {}

// PutBulk drops the blocks.
func (n *Null) PutBulk(uint64, []Block) {}

// DropFile is a no-op.
func (n *Null) DropFile(uint64) {}

// SetLevel is a no-op.
func (n *Null) SetLevel(uint64, int) {}

// SetAdmit is a no-op (nothing is ever admitted).
func (n *Null) SetAdmit(func() bool) {}

// FileHeat is always zero.
func (n *Null) FileHeat(uint64) int64 { return 0 }

// MetadataBytes is zero.
func (n *Null) MetadataBytes() int64 { return 0 }

// UsedBytes is zero.
func (n *Null) UsedBytes() int64 { return 0 }

// Stats returns the miss counters.
func (n *Null) Stats() *Stats { return &n.stats }

// Close is a no-op.
func (n *Null) Close() error { return nil }

// heatMap tracks per-file hit counts, shared by both implementations.
type heatMap struct {
	mu sync.Mutex
	m  map[uint64]int64
}

func newHeatMap() *heatMap { return &heatMap{m: map[uint64]int64{}} }

func (h *heatMap) add(fileNum uint64, n int64) {
	h.mu.Lock()
	h.m[fileNum] += n
	h.mu.Unlock()
}

func (h *heatMap) get(fileNum uint64) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.m[fileNum]
}

func (h *heatMap) drop(fileNum uint64) {
	h.mu.Lock()
	delete(h.m, fileNum)
	h.mu.Unlock()
}

// dropRing remembers the file numbers most recently passed to DropFile, so
// that a Put which lost the race with it — a block the block cache evicted
// just before the table was retired, or one a reader of an older version
// fetched just after — is declined instead of parking a dead table's blocks
// until eviction finds them. File numbers are never reused, so a number in
// the ring is dead for good; one that has aged out of it merely costs that
// wasted space again. Guarded by the owning cache's mutex.
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

// levelMap tracks each file's registered LSM level, shared by both
// implementations. Unregistered files map to LevelUnknown.
type levelMap struct {
	mu sync.Mutex
	m  map[uint64]int8
}

func newLevelMap() *levelMap { return &levelMap{m: map[uint64]int8{}} }

func (l *levelMap) set(fileNum uint64, level int) {
	b := int8(LevelBucket(level))
	l.mu.Lock()
	l.m[fileNum] = b
	l.mu.Unlock()
}

func (l *levelMap) bucket(fileNum uint64) int {
	l.mu.Lock()
	b, ok := l.m[fileNum]
	l.mu.Unlock()
	if !ok {
		return LevelUnknown
	}
	return int(b)
}

func (l *levelMap) drop(fileNum uint64) {
	l.mu.Lock()
	delete(l.m, fileNum)
	l.mu.Unlock()
}
