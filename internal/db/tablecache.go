package db

import (
	"container/list"
	"errors"
	"fmt"
	"sync"
	"time"

	"rocksmash/internal/cache"
	"rocksmash/internal/manifest"
	"rocksmash/internal/readprof"
	"rocksmash/internal/sstable"
	"rocksmash/internal/storage"
)

// tableHandle is a refcounted open table. Readers (Get, iterators,
// compactions) acquire a handle and release it when done; eviction closes
// the underlying file once the last reference drops.
type tableHandle struct {
	reader *sstable.Reader
	tier   storage.Tier
	// db is the engine that owns the file: its backends serve block reads.
	// The cache itself is engine-agnostic — file numbers are unique across
	// the store's engines.
	db *engine

	mu    sync.Mutex
	refs  int
	dead  bool // evicted: close when refs drop to zero
	cache *tableCache
}

func (h *tableHandle) release() {
	h.mu.Lock()
	h.refs--
	shouldClose := h.dead && h.refs == 0
	h.mu.Unlock()
	if shouldClose {
		_ = h.reader.Close()
	}
}

// tableCache keeps table readers open with their metadata (index, filter)
// pinned in local memory, and routes data-block reads through the cache
// hierarchy: in-memory block cache, then (for cloud files) the persistent
// cache, then the owning backend. The number of open tables is bounded:
// past maxOpen, the least-recently-used idle table is closed (RocksDB's
// max_open_files analogue) — file descriptors must not scale with the
// tree size.
type tableCache struct {
	maxOpen int

	mu     sync.Mutex
	tables map[tableKey]*tableHandle
	lru    *list.List // front = most recently used; values are tableKeys
	lruPos map[tableKey]*list.Element
}

// tableKey names one copy of a table. While a relocated table's old-tier copy
// is still pinned by a reader, both copies can be open at once, and a handle
// on one must never be served for metadata naming the other: the old copy's
// object goes when its last reader does. It is one word — the file number
// above the tier bit — so the maps, which every point read goes through, are
// looked up by integer and not by hashing a struct.
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
		lru:     list.New(),
		lruPos:  map[tableKey]*list.Element{},
	}
}

// touchLocked marks k as most recently used (caller holds tc.mu).
func (tc *tableCache) touchLocked(k tableKey) {
	if e, ok := tc.lruPos[k]; ok {
		tc.lru.MoveToFront(e)
		return
	}
	tc.lruPos[k] = tc.lru.PushFront(k)
}

// enforceCapLocked closes least-recently-used idle tables while over
// budget. Tables with outstanding references are skipped; they re-enter
// the budget when released.
func (tc *tableCache) enforceCapLocked() {
	for e := tc.lru.Back(); e != nil && len(tc.tables) > tc.maxOpen; {
		prev := e.Prev()
		k := e.Value.(tableKey)
		h := tc.tables[k]
		h.mu.Lock()
		idle := h.refs == 1 // only the cache's own reference
		if idle {
			h.dead = true
			h.refs = 0
		}
		h.mu.Unlock()
		if idle {
			delete(tc.tables, k)
			tc.lru.Remove(e)
			delete(tc.lruPos, k)
			_ = h.reader.Close()
		}
		e = prev
	}
}

// get opens (or reuses) the table and returns a referenced handle. d is
// the engine that owns the file; every engine shares the one cache, so the
// open-table budget is global.
func (tc *tableCache) get(d *engine, meta *manifest.FileMetadata) (*tableHandle, error) {
	k := keyOf(meta.Num, meta.Tier)
	tc.mu.Lock()
	if h, ok := tc.tables[k]; ok {
		h.mu.Lock()
		h.refs++
		h.mu.Unlock()
		tc.touchLocked(k)
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
	h := &tableHandle{reader: r, tier: meta.Tier, db: d, refs: 1, cache: tc}
	r.SetFetch(tc.fetchFor(h))

	tc.mu.Lock()
	if existing, ok := tc.tables[k]; ok {
		// Raced with another opener; keep theirs.
		existing.mu.Lock()
		existing.refs++
		existing.mu.Unlock()
		tc.mu.Unlock()
		_ = r.Close()
		return existing, nil
	}
	tc.tables[k] = h
	h.mu.Lock()
	h.refs++ // the cache's own reference
	h.mu.Unlock()
	tc.touchLocked(k)
	tc.enforceCapLocked()
	tc.mu.Unlock()
	return h, nil
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

// fetchFor builds the data-block fetch path for one table:
//
//	block cache → [cloud only: persistent cache →] backend read
//
// What comes from either lower rung is admitted to the block cache only.
// A cloud block counts one read in the sketch, whichever rung serves it.
// Each block served is attributed to its source tier on prof; per-stage
// clock reads happen only for Timed (sampled) profiles.
func (tc *tableCache) fetchFor(h *tableHandle) sstable.FetchFunc {
	db := h.db
	return func(fileNum uint64, hd sstable.Handle, prof *readprof.Profile) ([]byte, error) {
		ck := cache.Key{FileNum: fileNum, Offset: hd.Offset}
		if h.tier == storage.TierCloud {
			db.sketch.Add(ck)
		}
		if body, ok := db.blockCache.Get(ck); ok {
			if prof != nil {
				prof.Block(readprof.TierBlockCache, len(body), 0)
			}
			return body, nil
		}
		timed := prof != nil && prof.Timed
		var start time.Time
		if timed {
			start = time.Now()
		}
		if h.tier == storage.TierCloud {
			if body, ok := db.pcache.Get(fileNum, hd.Offset); ok {
				db.blockCache.PutCloud(ck, body)
				if prof != nil {
					var ns int64
					if timed {
						ns = time.Since(start).Nanoseconds()
					}
					prof.Block(readprof.TierPCache, len(body), ns)
				}
				return body, nil
			}
		}
		body, err := h.readRepaired(hd)
		if err != nil {
			return nil, err
		}
		// A cloud block enters the persistent cache when the block cache
		// lets go of it (see shared.blockCache), not here.
		if h.tier == storage.TierCloud {
			db.blockCache.PutCloud(ck, body)
		} else {
			db.blockCache.Put(ck, body)
		}
		if prof != nil {
			t := readprof.TierLocal
			if h.tier == storage.TierCloud {
				t = readprof.TierCloud
			}
			var ns int64
			if timed {
				ns = time.Since(start).Nanoseconds()
			}
			prof.Block(t, len(body), ns)
		}
		return body, nil
	}
}

// compactionFetchFor builds the scan-resistant fetch path used by
// compaction input iterators: cached blocks are used when present, but
// misses go straight to the backend without admitting anything — a bulk
// merge must not evict the workload's hot set.
func (tc *tableCache) compactionFetchFor(h *tableHandle) sstable.FetchFunc {
	db := h.db
	return func(fileNum uint64, hd sstable.Handle, _ *readprof.Profile) ([]byte, error) {
		ck := cache.Key{FileNum: fileNum, Offset: hd.Offset}
		if body, ok := db.blockCache.Get(ck); ok {
			return body, nil
		}
		if h.tier == storage.TierCloud {
			if body, ok := db.pcache.Probe(fileNum, hd.Offset); ok {
				return body, nil
			}
		}
		return h.readRepaired(hd)
	}
}

// readRepaired reads one block from the table's backend. A local-tier block
// that fails its CRC is repaired from the cloud copy and this read served
// from the freshly verified bytes: never a silently wrong value, never a raw
// checksum error if a clean source exists. Reads and compaction inputs share
// it, so one damaged block doesn't wedge the tree either.
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

// evict drops the cache's reference on table fileNum, on whichever tier it
// is open; the table closes once readers finish.
func (tc *tableCache) evict(fileNum uint64) {
	for _, tier := range [...]storage.Tier{storage.TierLocal, storage.TierCloud} {
		k := keyOf(fileNum, tier)
		tc.mu.Lock()
		h, ok := tc.tables[k]
		if ok {
			delete(tc.tables, k)
			if e, lok := tc.lruPos[k]; lok {
				tc.lru.Remove(e)
				delete(tc.lruPos, k)
			}
		}
		tc.mu.Unlock()
		if ok {
			h.drop()
		}
	}
}

// drop gives up the cache's own reference on an evicted handle.
func (h *tableHandle) drop() {
	h.mu.Lock()
	h.dead = true
	h.refs--
	shouldClose := h.refs == 0
	h.mu.Unlock()
	if shouldClose {
		_ = h.reader.Close()
	}
}

// metadataBytes sums the pinned metadata of every open table.
func (tc *tableCache) metadataBytes() int64 {
	tc.mu.Lock()
	hs := make([]*tableHandle, 0, len(tc.tables))
	for _, h := range tc.tables {
		hs = append(hs, h)
	}
	tc.mu.Unlock()
	var n int64
	for _, h := range hs {
		n += int64(h.reader.MetadataBytes())
	}
	return n
}

// close releases every table.
func (tc *tableCache) close() {
	tc.mu.Lock()
	hs := tc.tables
	tc.tables = map[tableKey]*tableHandle{}
	tc.lru.Init()
	tc.lruPos = map[tableKey]*list.Element{}
	tc.mu.Unlock()
	for _, h := range hs {
		h.drop()
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
