package pcache

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"rocksmash/internal/event"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options configures a PCache.
type Options struct {
	// Dir is the local directory holding the cache DATA and INDEX files.
	Dir string
	// CapacityBytes bounds the cache data file size.
	CapacityBytes int64
	// RegionBytes is a ceiling on the allocation unit; one region belongs
	// to one SSTable. Every table with cached blocks owns one open region
	// that is on average half empty, so the unit New settles on also keeps
	// the cache at minRegions regions or more (see New); RegionBytes reports
	// it. Blocks larger than the unit are never cached.
	RegionBytes int64
}

const (
	// minRegions is how many regions New wants a cache divided into: with
	// one open region per cached table, 512 keeps the open-region slack of
	// a hundred tables near a tenth of the capacity (it was a third at 128).
	minRegions = 512
	// minRegionBytes stops the division where a region would no longer hold
	// several blocks: eight of the store's default ones.
	minRegionBytes    = 8 * defaultBlockBytes
	defaultBlockBytes = 4 << 10
)

// DefaultOptions returns moderate defaults for tests and examples.
func DefaultOptions(dir string) Options {
	return Options{Dir: dir, CapacityBytes: 64 << 20, RegionBytes: 256 << 10}
}

// packedEntry describes one cached block inside a region: 20 bytes per
// block, stored in a sorted slice (the paper's space-efficient metadata).
type packedEntry struct {
	blockOff uint64 // block offset within the SSTable (identity)
	regOff   uint32 // byte offset within the region
	length   uint32
	crc      uint32
}

const packedEntrySize = 20

// region is one allocation unit of the cache file.
type region struct {
	fileNum uint64 // owning SSTable; 0 = free
	used    uint32 // bytes consumed
	// epoch counts the times the region was freed. Bytes written under one
	// epoch never change, so a reader that located an entry, unlocked and
	// read can tell a recycled region from rot by comparing epochs.
	epoch   uint32
	ref     bool // CLOCK reference bit
	entries []packedEntry
}

// PCache is the paper's persistent cache. See the package comment.
type PCache struct {
	opts   Options
	f      *os.File
	stats  Stats
	heat   *heatMap
	levels *levelMap
	ev     event.Listener // set once before concurrent use; nil disables events
	admit  func() bool    // set once before concurrent use; nil always admits
	// indexCorrupt records that New found an INDEX snapshot that failed its
	// checksum (as opposed to a clean cold start with no snapshot at all).
	indexCorrupt bool

	mu       sync.Mutex
	regions  []region
	byFile   map[uint64][]int32 // fileNum -> region ids (append order)
	openReg  map[uint64]int32   // fileNum -> region currently accepting blocks
	freeList []int32
	hand     int32 // CLOCK hand
	dropped  dropRing
}

// SetListener attaches an event listener. Must be called before the cache
// is shared between goroutines; a nil listener keeps every path event-free.
func (c *PCache) SetListener(l event.Listener) { c.ev = l }

// SetAdmit implements BlockCache.
func (c *PCache) SetAdmit(f func() bool) { c.admit = f }

// IndexWasCorrupt reports whether the startup index snapshot existed but
// failed verification (the cache cold-started as the repair).
func (c *PCache) IndexWasCorrupt() bool { return c.indexCorrupt }

// fireEvicts fires the eviction events a locked section collected, after
// its unlock: listeners never run under the cache lock.
func (c *PCache) fireEvicts(evs []event.PCacheEvict) {
	for _, e := range evs {
		c.ev.OnPCacheEvict(e)
	}
}

const (
	indexMagic   = 0x70636163686531 // "pcache1"
	indexVersion = 1
)

// New opens (or creates) a persistent cache under opts.Dir, loading — and
// consuming — a previously snapshotted index when present and intact. A
// missing or corrupt index yields an empty (cold) cache, never an error.
func New(opts Options) (*PCache, error) {
	if opts.RegionBytes <= 0 {
		opts.RegionBytes = 256 << 10
	}
	opts.RegionBytes = min(opts.RegionBytes, max(minRegionBytes, opts.CapacityBytes/minRegions))
	if opts.CapacityBytes < opts.RegionBytes {
		opts.CapacityBytes = opts.RegionBytes
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(opts.Dir, "DATA"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	n := int32(opts.CapacityBytes / opts.RegionBytes)
	c := &PCache{
		opts:    opts,
		f:       f,
		heat:    newHeatMap(),
		levels:  newLevelMap(),
		regions: make([]region, n),
		byFile:  map[uint64][]int32{},
		openReg: map[uint64]int32{},
	}
	for i := n - 1; i >= 0; i-- {
		c.freeList = append(c.freeList, i)
	}
	if err := c.loadIndex(); err != nil {
		// Cold start on any index problem; cache contents are disposable.
		c.resetLocked()
		if errors.Is(err, errBadIndex) {
			c.indexCorrupt = true
		}
	}
	// The snapshot describes DATA as the last clean Close left it, and DATA
	// moves on from here. Consumed once: after a crash the next New finds no
	// snapshot and starts cold, instead of loading this one over regions that
	// have been recycled since and counting their entries as corrupt reads.
	if err := os.Remove(filepath.Join(opts.Dir, "INDEX")); err != nil && !os.IsNotExist(err) {
		f.Close()
		return nil, err
	}
	return c, nil
}

func (c *PCache) resetLocked() {
	n := int32(len(c.regions))
	c.regions = make([]region, n)
	c.byFile = map[uint64][]int32{}
	c.openReg = map[uint64]int32{}
	c.freeList = c.freeList[:0]
	for i := n - 1; i >= 0; i-- {
		c.freeList = append(c.freeList, i)
	}
}

// Get implements BlockCache.
func (c *PCache) Get(fileNum, blockOff uint64) ([]byte, bool) {
	// Heat counts read traffic against the file regardless of outcome, so
	// compaction can recognize actively-read ranges even when the cache is
	// cold for them.
	c.heat.add(fileNum, 1)
	buf, ok := c.get(fileNum, blockOff)
	b := c.levels.bucket(fileNum)
	if ok {
		c.stats.hit(b, fileNum)
	} else {
		c.stats.miss(b, fileNum)
	}
	return buf, ok
}

// SetLevel implements BlockCache.
func (c *PCache) SetLevel(fileNum uint64, level int) { c.levels.set(fileNum, level) }

// Probe implements BlockCache: Get without heat or statistics.
func (c *PCache) Probe(fileNum, blockOff uint64) ([]byte, bool) {
	return c.get(fileNum, blockOff)
}

func (c *PCache) get(fileNum, blockOff uint64) ([]byte, bool) {
	c.mu.Lock()
	var loc *packedEntry
	var regID int32 = -1
	for _, id := range c.byFile[fileNum] {
		r := &c.regions[id]
		es := r.entries
		i := sort.Search(len(es), func(i int) bool { return es[i].blockOff >= blockOff })
		if i < len(es) && es[i].blockOff == blockOff {
			loc = &es[i]
			regID = id
			break
		}
	}
	if loc == nil {
		c.mu.Unlock()
		return nil, false
	}
	c.regions[regID].ref = true
	epoch := c.regions[regID].epoch
	base := int64(regID) * c.opts.RegionBytes
	off := base + int64(loc.regOff)
	length := int(loc.length)
	wantCRC := loc.crc
	c.mu.Unlock()

	buf := make([]byte, length)
	if _, err := c.f.ReadAt(buf, off); err != nil {
		return nil, false
	}
	if crc32.Checksum(buf, castagnoli) != wantCRC {
		// The read ran unlocked. If the region was recycled meanwhile the
		// bytes belong to another table: a plain miss. Otherwise it is a
		// torn write or bit rot in the cache file: also a miss — the
		// authoritative copy lives in cloud storage — and the damaged entry
		// is dropped so the next read re-fetches and re-admits clean bytes
		// instead of re-verifying the same rot forever.
		if !c.dropEntry(blockOff, regID, epoch) {
			return nil, false
		}
		c.stats.CorruptReads.Add(1)
		if c.ev != nil {
			c.ev.OnCorruptionDetected(event.CorruptionDetected{
				Artifact: "pcache", Object: "DATA", File: fileNum,
				Err: "pcache: block crc mismatch",
			})
		}
		return nil, false
	}
	return buf, true
}

// dropEntry removes one block's index entry from region id (its bytes stay
// dead in the region until the region is reused). It reports false, and
// drops nothing, when the region has been freed since the caller saw it at
// epoch: whatever holds the key now is not what the caller read.
func (c *PCache) dropEntry(blockOff uint64, id int32, epoch uint32) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := &c.regions[id]
	if r.epoch != epoch {
		return false
	}
	es := r.entries
	i := sort.Search(len(es), func(i int) bool { return es[i].blockOff >= blockOff })
	if i < len(es) && es[i].blockOff == blockOff {
		r.entries = append(es[:i], es[i+1:]...)
	}
	return true
}

// Put implements BlockCache: append the block into the file's open region,
// allocating (and if necessary evicting) regions as needed.
func (c *PCache) Put(fileNum, blockOff uint64, body []byte) {
	if c.admit != nil && !c.admit() {
		c.stats.AdmitDeclined.Add(1)
		return
	}
	var buf [1]event.PCacheEvict // one block recycles at most one region
	c.mu.Lock()
	n, evs := c.putLocked(fileNum, blockOff, body, buf[:0])
	c.mu.Unlock()
	c.fireEvicts(evs)
	if c.ev != nil && n > 0 {
		c.ev.OnPCacheAdmit(event.PCacheAdmit{File: fileNum, Blocks: 1, Bytes: n})
	}
}

// PutBulk implements BlockCache: one lock acquisition admits the whole run.
// Adjacent blocks of one file land back to back in the file's open regions,
// preserving the compaction-aware layout.
func (c *PCache) PutBulk(fileNum uint64, blocks []Block) {
	if c.admit != nil && !c.admit() {
		c.stats.AdmitDeclined.Add(int64(len(blocks)))
		return
	}
	var n int64
	var cnt int
	var evs []event.PCacheEvict
	c.mu.Lock()
	for _, b := range blocks {
		var m int64
		if m, evs = c.putLocked(fileNum, b.Off, b.Body, evs); m > 0 {
			n += m
			cnt++
		}
	}
	c.mu.Unlock()
	c.fireEvicts(evs)
	if c.ev != nil && cnt > 0 {
		c.ev.OnPCacheAdmit(event.PCacheAdmit{File: fileNum, Blocks: cnt, Bytes: n})
	}
}

// putLocked admits one block, returning the bytes cached (0 if declined)
// and evs with the eviction it caused, if any, appended.
func (c *PCache) putLocked(fileNum, blockOff uint64, body []byte, evs []event.PCacheEvict) (int64, []event.PCacheEvict) {
	if int64(len(body)) > c.opts.RegionBytes || c.dropped.has(fileNum) {
		return 0, evs
	}

	// Already cached? (A block promoted from here and demoted again.)
	for _, id := range c.byFile[fileNum] {
		es := c.regions[id].entries
		i := sort.Search(len(es), func(i int) bool { return es[i].blockOff >= blockOff })
		if i < len(es) && es[i].blockOff == blockOff {
			return 0, evs
		}
	}

	id, ok := c.openReg[fileNum]
	if ok {
		r := &c.regions[id]
		if int64(r.used)+int64(len(body)) > c.opts.RegionBytes {
			ok = false
		}
	}
	if !ok {
		var nid int32
		var allocated bool
		if nid, allocated, evs = c.allocRegionLocked(fileNum, evs); !allocated {
			return 0, evs
		}
		id = nid
		c.openReg[fileNum] = id
	}
	r := &c.regions[id]
	base := int64(id) * c.opts.RegionBytes
	if _, err := c.f.WriteAt(body, base+int64(r.used)); err != nil {
		return 0, evs
	}
	e := packedEntry{
		blockOff: blockOff,
		regOff:   r.used,
		length:   uint32(len(body)),
		crc:      crc32.Checksum(body, castagnoli),
	}
	i := sort.Search(len(r.entries), func(i int) bool { return r.entries[i].blockOff >= blockOff })
	r.entries = append(r.entries, packedEntry{})
	copy(r.entries[i+1:], r.entries[i:])
	r.entries[i] = e
	r.used += uint32(len(body))
	r.ref = true
	c.stats.Inserted.Add(1)
	c.stats.BytesInserted.Add(int64(len(body)))
	return int64(len(body)), evs
}

// allocRegionLocked returns a free region for fileNum, evicting via CLOCK
// when none is free (the eviction's event is appended to evs). It never
// evicts a region of fileNum itself.
func (c *PCache) allocRegionLocked(fileNum uint64, evs []event.PCacheEvict) (int32, bool, []event.PCacheEvict) {
	var id int32
	if n := len(c.freeList); n > 0 {
		id = c.freeList[n-1]
		c.freeList = c.freeList[:n-1]
	} else {
		vid, ok := c.clockVictimLocked(fileNum)
		if !ok {
			return 0, false, evs
		}
		evs = c.evictRegionLocked(vid, "clock", evs)
		id = c.freeList[len(c.freeList)-1]
		c.freeList = c.freeList[:len(c.freeList)-1]
	}
	r := &c.regions[id]
	r.fileNum = fileNum
	r.used = 0
	r.ref = false
	if r.entries == nil {
		// Sized for the store's default blocks once, instead of grown to
		// it by doubling in every one of several hundred regions.
		r.entries = make([]packedEntry, 0, c.opts.RegionBytes/defaultBlockBytes)
	}
	r.entries = r.entries[:0]
	c.byFile[fileNum] = append(c.byFile[fileNum], id)
	return id, true, evs
}

func (c *PCache) clockVictimLocked(skipFile uint64) (int32, bool) {
	n := int32(len(c.regions))
	for pass := int32(0); pass < 2*n; pass++ {
		id := c.hand
		c.hand = (c.hand + 1) % n
		r := &c.regions[id]
		if r.fileNum == 0 || r.fileNum == skipFile {
			continue
		}
		if r.ref {
			r.ref = false
			continue
		}
		return id, true
	}
	return 0, false
}

// evictRegionLocked frees one region and unlinks it from its file. With a
// listener attached the eviction event is appended to evs, for the caller
// to fire once it has released c.mu.
func (c *PCache) evictRegionLocked(id int32, reason string, evs []event.PCacheEvict) []event.PCacheEvict {
	r := &c.regions[id]
	fn := r.fileNum
	if c.ev != nil {
		evs = append(evs, event.PCacheEvict{
			File: fn, Blocks: len(r.entries), Bytes: int64(r.used), Reason: reason,
		})
	}
	ids := c.byFile[fn]
	for i, x := range ids {
		if x == id {
			c.byFile[fn] = append(ids[:i], ids[i+1:]...)
			break
		}
	}
	if len(c.byFile[fn]) == 0 {
		delete(c.byFile, fn)
	}
	if open, ok := c.openReg[fn]; ok && open == id {
		delete(c.openReg, fn)
	}
	r.fileNum = 0
	r.used = 0
	r.epoch++
	r.ref = false
	r.entries = r.entries[:0]
	c.freeList = append(c.freeList, id)
	c.stats.RegionsEvicted.Add(1)
	return evs
}

// DropFile implements BlockCache: constant-time per region, the
// compaction-aware win over per-block eviction.
func (c *PCache) DropFile(fileNum uint64) {
	c.mu.Lock()
	ids := append([]int32(nil), c.byFile[fileNum]...)
	var evs []event.PCacheEvict
	for _, id := range ids {
		evs = c.evictRegionLocked(id, "drop-file", evs)
	}
	c.dropped.add(fileNum)
	c.mu.Unlock()
	c.heat.drop(fileNum)
	c.levels.drop(fileNum)
	c.stats.FilesDropped.Add(1)
	c.fireEvicts(evs)
}

// FileHeat implements BlockCache.
func (c *PCache) FileHeat(fileNum uint64) int64 { return c.heat.get(fileNum) }

// Stats implements BlockCache.
func (c *PCache) Stats() *Stats { return &c.stats }

// RegionBytes returns the allocation unit in effect (see Options).
func (c *PCache) RegionBytes() int64 { return c.opts.RegionBytes }

// UsedBytes implements BlockCache.
func (c *PCache) UsedBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for i := range c.regions {
		n += int64(c.regions[i].used)
	}
	return n
}

// MetadataBytes implements BlockCache: the exact packed-index footprint.
func (c *PCache) MetadataBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for i := range c.regions {
		// Per-region fixed header (fileNum, used, epoch, ref, slice header).
		n += 8 + 4 + 4 + 1 + 24
		n += int64(len(c.regions[i].entries)) * packedEntrySize
	}
	// byFile / openReg maps are per *file*, not per block; charge them too.
	n += int64(len(c.byFile)) * (8 + 24)
	n += int64(len(c.openReg)) * (8 + 4)
	return n
}

// CachedBlocks returns the number of blocks currently indexed.
func (c *PCache) CachedBlocks() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for i := range c.regions {
		n += len(c.regions[i].entries)
	}
	return n
}

// SaveIndex snapshots the packed index so a restart can warm-start.
func (c *PCache) SaveIndex() error {
	c.mu.Lock()
	var buf []byte
	buf = binary.LittleEndian.AppendUint64(buf, indexMagic)
	buf = binary.LittleEndian.AppendUint32(buf, indexVersion)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(c.opts.RegionBytes))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.regions)))
	for i := range c.regions {
		r := &c.regions[i]
		buf = binary.LittleEndian.AppendUint64(buf, r.fileNum)
		buf = binary.LittleEndian.AppendUint32(buf, r.used)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.entries)))
		for _, e := range r.entries {
			buf = binary.LittleEndian.AppendUint64(buf, e.blockOff)
			buf = binary.LittleEndian.AppendUint32(buf, e.regOff)
			buf = binary.LittleEndian.AppendUint32(buf, e.length)
			buf = binary.LittleEndian.AppendUint32(buf, e.crc)
		}
	}
	c.mu.Unlock()
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))

	tmp := filepath.Join(c.opts.Dir, "INDEX.tmp")
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(c.opts.Dir, "INDEX"))
}

var (
	errBadIndex = errors.New("pcache: bad index snapshot")
	// errStaleIndex marks a structurally intact snapshot written under a
	// different geometry or format version: a clean invalidation, not
	// corruption (IndexWasCorrupt stays false).
	errStaleIndex = errors.New("pcache: stale index snapshot")
)

func (c *PCache) loadIndex() error {
	data, err := os.ReadFile(filepath.Join(c.opts.Dir, "INDEX"))
	if err != nil {
		if os.IsNotExist(err) {
			return nil // cold start, not an error
		}
		return err
	}
	if len(data) < 28 {
		return errBadIndex
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(tail) {
		return errBadIndex
	}
	p := body
	if binary.LittleEndian.Uint64(p) != indexMagic {
		return errBadIndex
	}
	p = p[8:]
	if binary.LittleEndian.Uint32(p) != indexVersion {
		return errStaleIndex
	}
	p = p[4:]
	if int64(binary.LittleEndian.Uint64(p)) != c.opts.RegionBytes {
		return errStaleIndex // geometry changed: discard
	}
	p = p[8:]
	n := binary.LittleEndian.Uint32(p)
	p = p[4:]
	if int(n) != len(c.regions) {
		return errStaleIndex
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.resetLocked()
	c.freeList = c.freeList[:0]
	for i := uint32(0); i < n; i++ {
		if len(p) < 16 {
			return errBadIndex
		}
		r := &c.regions[i]
		r.fileNum = binary.LittleEndian.Uint64(p)
		r.used = binary.LittleEndian.Uint32(p[8:])
		cnt := binary.LittleEndian.Uint32(p[12:])
		p = p[16:]
		if len(p) < int(cnt)*packedEntrySize {
			return errBadIndex
		}
		for j := uint32(0); j < cnt; j++ {
			r.entries = append(r.entries, packedEntry{
				blockOff: binary.LittleEndian.Uint64(p),
				regOff:   binary.LittleEndian.Uint32(p[8:]),
				length:   binary.LittleEndian.Uint32(p[12:]),
				crc:      binary.LittleEndian.Uint32(p[16:]),
			})
			p = p[packedEntrySize:]
		}
		if r.fileNum != 0 {
			c.byFile[r.fileNum] = append(c.byFile[r.fileNum], int32(i))
		} else {
			c.freeList = append(c.freeList, int32(i))
		}
	}
	return nil
}

// Close snapshots the index and releases the data file.
func (c *PCache) Close() error {
	if err := c.SaveIndex(); err != nil {
		c.f.Close()
		return err
	}
	return c.f.Close()
}

// String summarizes the cache state for mashctl.
func (c *PCache) String() string {
	c.mu.Lock()
	free := len(c.freeList)
	total := len(c.regions)
	c.mu.Unlock()
	used := c.UsedBytes()
	return fmt.Sprintf("pcache{regions=%d x %dB free=%d blocks=%d used=%dB (%.2f of capacity) meta=%dB hit=%.3f}",
		total, c.opts.RegionBytes, free, c.CachedBlocks(), used,
		float64(used)/float64(int64(total)*c.opts.RegionBytes), c.MetadataBytes(), c.stats.HitRatio())
}
