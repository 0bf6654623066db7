package db

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rocksmash/internal/block"
	"rocksmash/internal/cache"
	"rocksmash/internal/manifest"
	"rocksmash/internal/readprof"
	"rocksmash/internal/sstable"
	"rocksmash/internal/storage"
)

// tableHandle is an open table. A reader uses it for as long as it pins a
// version naming the table (manifest/lifetime.go): whoever stops serving a
// handle closes it through the owning engine's version set, once every pin
// that could have been handed it is gone.
type tableHandle struct {
	reader *sstable.Reader
	tier   storage.Tier
	key    tableKey
	// db is the engine that owns the file: its backends serve block reads,
	// and its version pins keep the handle open. The cache itself is
	// engine-agnostic — file numbers are unique across the store's engines.
	db *engine

	// used is the handle's CLOCK reference bit: a probe sets it, and the
	// cache's eviction hand clears it.
	used atomic.Bool

	// Guarded by the cache's mu: the handle's place in the clock ring, and
	// the FileMetadata slot it is published in (nil if none).
	pos  int
	slot *atomic.Value
}

// tableCache keeps table readers open with their metadata (index, filter)
// pinned in local memory, and routes data-block reads through the cache
// hierarchy: in-memory block cache, then (for cloud files) the persistent
// cache, then the owning backend. The number of tables it serves is bounded:
// past maxOpen, the CLOCK hand evicts a table it finds unused since its last
// turn (RocksDB's max_open_files analogue) — file descriptors must not scale
// with the tree size. An evicted table closes once the readers that pinned
// before the eviction are gone, so the tables open are at most maxOpen plus
// those such a reader still holds. Those wait in closing, counted with their
// metadata, and peak records the most readers open at once.
//
// A cached handle is published in the slot of the FileMetadata it was
// opened for, so a probe of a cached table is one atomic load and a
// reference-bit store: no lock, no map, no count. mu, the map and the ring
// are touched only when a table opens, is evicted or is retired.
type tableCache struct {
	maxOpen int

	mu     sync.Mutex
	tables map[tableKey]*tableHandle
	ring   []*tableHandle // the clock: every cached handle, in no order
	hand   int            // the ring position the eviction hand looks at next
	peak   int64          // the most readers open at once, cached and closing

	// closing counts the handles evicted and not yet closed, and closingMeta
	// their metadata bytes.
	closing, closingMeta atomic.Int64
}

// tableKey names one copy of a table. While a relocated table's old-tier copy
// is still pinned by a reader, both copies can be open at once, and a handle
// on one must never be served for metadata naming the other: the old copy's
// object goes when its last reader does. It is one word — the file number
// above the tier bit — so the map is looked up by integer and not by hashing
// a struct.
type tableKey uint64

func keyOf(num uint64, tier storage.Tier) tableKey {
	return tableKey(num<<1 | uint64(tier))
}

// maxOpenTables is the store's cap on open table readers.
const maxOpenTables = 512

func newTableCache(maxOpen int) *tableCache {
	return &tableCache{
		maxOpen: maxOpen,
		tables:  map[tableKey]*tableHandle{},
	}
}

// get returns the handle on the table meta names, which stays open while the
// caller's pin on a version naming meta lives. d is the engine that owns the
// file; every engine shares the one cache, so the open-table budget is
// global. Gets, iterators and compaction inputs all come through here. A
// handle in meta's slot is taken without a lock; only a table that is not
// open, or open for another FileMetadata, goes through mu.
func (tc *tableCache) get(d *engine, meta *manifest.FileMetadata) (*tableHandle, error) {
	if meta.Slot != nil {
		// The key check covers a copy of a FileMetadata, which shares its
		// original's slot but may name the table's other tier.
		if h, _ := meta.Slot.Load().(*tableHandle); h != nil && h.key == keyOf(meta.Num, meta.Tier) {
			if !h.used.Load() {
				h.used.Store(true)
			}
			return h, nil
		}
	}
	return tc.load(d, meta)
}

// load is get's locked path: it finds the table in the map or opens it, and
// publishes the handle in meta's slot.
func (tc *tableCache) load(d *engine, meta *manifest.FileMetadata) (*tableHandle, error) {
	k := keyOf(meta.Num, meta.Tier)
	tc.mu.Lock()
	if h, ok := tc.tables[k]; ok {
		h.used.Store(true)
		h.publishLocked(meta)
		tc.mu.Unlock()
		return h, nil
	}
	tc.mu.Unlock()

	// Open outside the cache lock: cloud opens can be slow. A corrupt open
	// is classified and repaired, then retried: for a local-tier table the
	// damage is in the file itself (cloud-backed rewrite); for a cloud-tier
	// table the authoritative object was not touched, so the garbage came
	// from the locally cached metadata sidecar — drop it and the retry's
	// overlayMetadata rebuilds it from the object's own tail.
	var r *sstable.Reader
	var err error
	for attempt := 0; ; attempt++ {
		r, err = tc.open(d, meta)
		if err == nil || attempt >= 2 || !errors.Is(err, sstable.ErrCorrupt) {
			break
		}
		if meta.Tier == storage.TierCloud {
			if !d.repairSidecar(meta.Num, err) {
				break
			}
			continue
		}
		if _, rerr := d.repairLocalTable(meta.Num, err, false); rerr != nil {
			return nil, rerr
		}
	}
	if err != nil {
		return nil, err
	}
	h := &tableHandle{reader: r, tier: meta.Tier, key: k, db: d}
	h.used.Store(true)
	r.SetFetch(h.read)

	tc.mu.Lock()
	defer tc.mu.Unlock()
	if existing, ok := tc.tables[k]; ok {
		// Raced with another opener; keep theirs.
		existing.publishLocked(meta)
		_ = r.Close()
		return existing, nil
	}
	tc.tables[k] = h
	h.pos = len(tc.ring)
	tc.ring = append(tc.ring, h)
	h.publishLocked(meta)
	if n := int64(len(tc.tables)) + tc.closing.Load(); n > tc.peak {
		tc.peak = n
	}
	tc.enforceCapLocked()
	return h, nil
}

// publishLocked hangs h in meta's slot, so meta's next probe takes no lock
// (the cache's mu is held). A handle sits in one slot at most, and a slot
// holds one handle: should two live FileMetadata name the same copy, the
// second keeps coming through mu.
func (h *tableHandle) publishLocked(meta *manifest.FileMetadata) {
	if meta.Slot == nil || h.slot != nil {
		return
	}
	if cur, _ := meta.Slot.Load().(*tableHandle); cur != nil {
		return
	}
	meta.Slot.Store(h)
	h.slot = meta.Slot
}

// evictLocked stops serving h (the cache's mu is held): it leaves the map,
// the ring and its slot, so no new probe finds it, and closes once the
// readers that may have found it have let go of their pins.
func (tc *tableCache) evictLocked(h *tableHandle) {
	delete(tc.tables, h.key)
	last := len(tc.ring) - 1
	tc.ring[h.pos] = tc.ring[last]
	tc.ring[h.pos].pos = h.pos
	tc.ring[last] = nil
	tc.ring = tc.ring[:last]
	if h.slot != nil {
		h.slot.Store((*tableHandle)(nil))
		h.slot = nil
	}
	tc.closing.Add(1)
	tc.closingMeta.Add(int64(h.reader.MetadataBytes()))
	h.db.vs.CloseAfterPins(h)
}

// Close closes an evicted handle's reader: the version set runs it once the
// last pin that could have found the handle is gone.
func (h *tableHandle) Close() error {
	tc := h.db.tables
	tc.closingMeta.Add(-int64(h.reader.MetadataBytes()))
	tc.closing.Add(-1)
	return h.reader.Close()
}

// enforceCapLocked evicts tables while over budget, chosen by CLOCK: the
// hand clears a set reference bit and moves on, and evicts the handle it
// finds with the bit clear, so one turn of the ring finds a victim.
func (tc *tableCache) enforceCapLocked() {
	for len(tc.tables) > tc.maxOpen {
		if tc.hand >= len(tc.ring) {
			tc.hand = 0
		}
		if h := tc.ring[tc.hand]; h.used.Load() {
			h.used.Store(false)
			tc.hand++
		} else {
			// The ring's last handle moves to the hand's place, so the hand
			// stays.
			tc.evictLocked(h)
		}
	}
}

// open performs one open attempt against the table's backend.
func (tc *tableCache) open(d *engine, meta *manifest.FileMetadata) (*sstable.Reader, error) {
	be := d.backendFor(meta.Tier)
	f, err := be.Open(manifest.TableName(meta.Num))
	if err != nil {
		return nil, fmt.Errorf("db: opening table %s: %w", meta, err)
	}
	if meta.Tier == storage.TierCloud {
		// Per the placement rule, table metadata lives locally: overlay
		// the sidecar so Open performs zero cloud I/O. A missing sidecar
		// (crash window) is rebuilt from the cloud copy.
		f, err = d.overlayMetadata(f, meta)
		if err != nil {
			f.Close()
			return nil, err
		}
	}
	r, err := sstable.Open(f, meta.Num)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("db: reading table %s metadata: %w", meta, err)
	}
	return r, nil
}

// rungs names how far down the cache ladder a walk goes and what it
// leaves behind: the in-memory block cache, for a cloud table the
// persistent cache, then the table's backend.
type rungs uint8

const (
	// readRungs is a client read. It counts a cloud block in the sketch,
	// whichever rung serves it. A persistent-cache lookup counts the file's
	// heat, and a hit is promoted to the block cache; a block the backend
	// serves is admitted to the block cache only (it reaches the persistent
	// cache when the block cache lets go of it).
	readRungs rungs = iota
	// cacheRungs is readRungs without the backend and the sketch: a forward
	// scan's lookup, whose span reads what no cache holds and which counts
	// a block in the sketch when it consumes it.
	cacheRungs
)

// read is the table's fetch path for client reads (sstable.FetchFunc).
func (h *tableHandle) read(_ uint64, hd sstable.Handle, prof *readprof.Profile) ([]byte, *block.Cell, error) {
	return h.walk(hd, readRungs, prof)
}

// walk returns block hd from the first rung that holds it; under cacheRungs
// a block neither cache holds comes back nil. A block the block cache
// serves comes with the cell its seek table lives in; any other with none.
// The block is attributed to the tier that served it on prof, with the time
// on a Timed profile.
func (h *tableHandle) walk(hd sstable.Handle, r rungs, prof *readprof.Profile) ([]byte, *block.Cell, error) {
	db := h.db
	cloud := h.tier == storage.TierCloud
	ck := cache.Key{FileNum: h.reader.FileNum(), Offset: hd.Offset}
	if cloud && r == readRungs {
		db.sketch.Add(ck)
	}
	if body, cell, ok := db.blockCache.Get(ck); ok {
		attribute(prof, readprof.TierBlockCache, body, time.Time{})
		return body, cell, nil
	}
	start := stageClock(prof)
	if cloud {
		if body, ok := db.pcache.Get(ck.FileNum, ck.Offset); ok {
			db.blockCache.PutCloud(ck, body)
			attribute(prof, readprof.TierPCache, body, start)
			return body, nil, nil
		}
	}
	if r == cacheRungs {
		return nil, nil, nil
	}
	body, err := h.readRepaired(hd)
	if err != nil {
		return nil, nil, err
	}
	tier := readprof.TierLocal
	if cloud {
		tier = readprof.TierCloud
		db.blockCache.PutCloud(ck, body)
	} else {
		db.blockCache.Put(ck, body)
	}
	attribute(prof, tier, body, start)
	return body, nil, nil
}

// stageClock starts a stage clock when prof is timed (sampled): the zero
// time otherwise, which attribute reads as no stage time.
func stageClock(prof *readprof.Profile) time.Time {
	if prof != nil && prof.Timed {
		return time.Now()
	}
	return time.Time{}
}

// attribute records a block served from tier on prof, if any.
func attribute(prof *readprof.Profile, tier readprof.Tier, body []byte, start time.Time) {
	if prof == nil {
		return
	}
	var ns int64
	if !start.IsZero() {
		ns = time.Since(start).Nanoseconds()
	}
	prof.Block(tier, len(body), ns)
}

// readRepaired reads one block from the table's backend. A local-tier block
// that fails its CRC is repaired from the cloud copy and this read served
// from the freshly verified bytes: never a silently wrong value, never a raw
// checksum error if a clean source exists.
func (h *tableHandle) readRepaired(hd sstable.Handle) ([]byte, error) {
	body, err := sstable.ReadRawBlock(h.reader.File(), hd)
	if err != nil && h.tier != storage.TierCloud && errors.Is(err, sstable.ErrCorrupt) {
		data, rerr := h.db.repairLocalTable(h.reader.FileNum(), err, false)
		if rerr != nil {
			return nil, rerr
		}
		return sstable.ReadRawBlock(bytesReader{data}, hd)
	}
	return body, err
}

// readSpan reads the adjacent blocks hs from the table's backend into raw
// (sstable.SpanBytes(hs) long) and appends their bodies, which alias it, to
// bodies[:0]. A local-tier span that fails its CRC is repaired as
// readRepaired repairs a block, and served from the verified cloud copy.
func (h *tableHandle) readSpan(hs []sstable.Handle, raw []byte, bodies [][]byte) ([][]byte, error) {
	got, err := sstable.ReadRawSpanInto(h.reader.File(), hs, raw, bodies)
	if err != nil && h.tier != storage.TierCloud && errors.Is(err, sstable.ErrCorrupt) {
		data, rerr := h.db.repairLocalTable(h.reader.FileNum(), err, false)
		if rerr != nil {
			return nil, rerr
		}
		return sstable.ReadRawSpanInto(bytesReader{data}, hs, raw, bodies)
	}
	return got, err
}

// evict stops serving the handle on copy k of a table, if one is open: a
// retired copy, or one a repair rewrote; readers reopen the table.
func (tc *tableCache) evict(k tableKey) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if h, ok := tc.tables[k]; ok {
		tc.evictLocked(h)
	}
}

// metadataBytes sums the pinned metadata of every open table, cached or
// closing.
func (tc *tableCache) metadataBytes() int64 {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	n := tc.closingMeta.Load()
	for _, h := range tc.ring {
		n += int64(h.reader.MetadataBytes())
	}
	return n
}

// openPeak returns the most table readers open at once since the store
// opened, cached and closing.
func (tc *tableCache) openPeak() int64 {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.peak
}

// close evicts every table; each closes once its readers' pins are gone.
func (tc *tableCache) close() {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	for len(tc.ring) > 0 {
		tc.evictLocked(tc.ring[0])
	}
}

// overlayMetadata wraps a cloud table's reader with its locally stored
// metadata tail. A missing or unreadable sidecar is rebuilt from the cloud
// copy (crash between upload and sidecar write) and re-persisted.
func (d *engine) overlayMetadata(f storage.Reader, meta *manifest.FileMetadata) (storage.Reader, error) {
	tailOff, tail, err := d.readMetaSidecar(meta.Num)
	if err != nil {
		tailOff, tail, err = sstable.MetaTail(f)
		if errors.Is(err, sstable.ErrCorrupt) {
			// A reader has no way to say why it knows no size, and one of
			// size zero reads as a truncated table. Ask through the call that
			// can fail: an object that is missing or out of reach answers
			// with that, and only one that is really there stays corrupt.
			if _, serr := d.cloud.Size(manifest.TableName(meta.Num)); serr != nil {
				err = serr
			}
		}
		if err != nil {
			return f, fmt.Errorf("db: rebuilding metadata for %s: %w", meta, err)
		}
		// Re-persisting is best-effort: the tail is already in hand, and a
		// full local disk must not fail a read it cannot improve. The next
		// open just rebuilds again.
		_ = d.writeMetaSidecar(meta.Num, tailOff, tail)
	}
	return sstable.NewTailReader(f, int64(tailOff), tail), nil
}
