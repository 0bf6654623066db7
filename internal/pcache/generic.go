package pcache

import (
	"container/list"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"rocksmash/internal/event"
)

// GenericLRU is the baseline persistent cache the paper compares against: a
// conventional block cache that knows nothing about the LSM tree. Every
// block is an independent entry — stored as its own file on local storage,
// indexed by a hash map with an LRU list, evicted one block at a time. Its
// per-block metadata cost (map node + list element + key copies) is what
// the PCache's packed index eliminates, and its per-block eviction is what
// the region layout batches.
type GenericLRU struct {
	dir      string
	capacity int64
	stats    Stats
	heat     *heatMap
	levels   *levelMap
	ev       event.Listener // set once before concurrent use; nil disables events
	admit    func() bool    // set once before concurrent use; nil always admits

	mu    sync.Mutex
	items map[blockKey]*genericEntry
	order *list.List
	used  int64
	pend  []event.PCacheEvict // evictions queued under mu, fired after unlock
	// dropped declines Puts that lost the race with DropFile (see dropRing).
	dropped dropRing
}

// SetListener attaches an event listener. Must be called before the cache
// is shared between goroutines; a nil listener keeps every path event-free.
func (g *GenericLRU) SetListener(l event.Listener) { g.ev = l }

// SetAdmit implements BlockCache.
func (g *GenericLRU) SetAdmit(f func() bool) { g.admit = f }

func (g *GenericLRU) takePendLocked() []event.PCacheEvict {
	evs := g.pend
	g.pend = nil
	return evs
}

func (g *GenericLRU) fireEvicts(evs []event.PCacheEvict) {
	if g.ev == nil {
		return
	}
	for _, e := range evs {
		g.ev.OnPCacheEvict(e)
	}
}

type blockKey struct {
	fileNum  uint64
	blockOff uint64
}

type genericEntry struct {
	key    blockKey
	length int64
	elem   *list.Element
}

// genericEntryOverhead approximates the in-memory bytes a generic cache
// spends per block: map bucket share (~48 B), key (16 B), entry struct
// (40 B), list.Element (48 B) — a conservative 152 B total, in line with
// measured Go map+list footprints.
const genericEntryOverhead = 152

// NewGenericLRU opens the baseline cache under dir.
func NewGenericLRU(dir string, capacity int64) (*GenericLRU, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// The generic cache has no recoverable index: a restart is cold.
	// Remove stale block files from any previous run.
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		_ = os.Remove(filepath.Join(dir, e.Name()))
	}
	return &GenericLRU{
		dir:      dir,
		capacity: capacity,
		heat:     newHeatMap(),
		levels:   newLevelMap(),
		items:    map[blockKey]*genericEntry{},
		order:    list.New(),
	}, nil
}

func (g *GenericLRU) blockPath(k blockKey) string {
	return filepath.Join(g.dir, fmt.Sprintf("f%06d-%012d.blk", k.fileNum, k.blockOff))
}

// Get implements BlockCache.
func (g *GenericLRU) Get(fileNum, blockOff uint64) ([]byte, bool) {
	g.heat.add(fileNum, 1)
	data, ok := g.get(fileNum, blockOff)
	b := g.levels.bucket(fileNum)
	if ok {
		g.stats.hit(b, fileNum)
	} else {
		g.stats.miss(b, fileNum)
	}
	return data, ok
}

// SetLevel implements BlockCache.
func (g *GenericLRU) SetLevel(fileNum uint64, level int) { g.levels.set(fileNum, level) }

// Probe implements BlockCache: Get without heat or statistics.
func (g *GenericLRU) Probe(fileNum, blockOff uint64) ([]byte, bool) {
	return g.get(fileNum, blockOff)
}

func (g *GenericLRU) get(fileNum, blockOff uint64) ([]byte, bool) {
	k := blockKey{fileNum, blockOff}
	g.mu.Lock()
	e, ok := g.items[k]
	if ok {
		g.order.MoveToFront(e.elem)
	}
	g.mu.Unlock()
	if !ok {
		return nil, false
	}
	data, err := os.ReadFile(g.blockPath(k))
	if err != nil {
		return nil, false
	}
	return data, true
}

// Put implements BlockCache.
func (g *GenericLRU) Put(fileNum, blockOff uint64, body []byte) {
	if g.admit != nil && !g.admit() {
		g.stats.AdmitDeclined.Add(1)
		return
	}
	if int64(len(body)) > g.capacity {
		return
	}
	k := blockKey{fileNum, blockOff}
	g.mu.Lock()
	if _, ok := g.items[k]; ok || g.dropped.has(fileNum) {
		g.mu.Unlock()
		return
	}
	// Evict per block until the new entry fits.
	for g.used+int64(len(body)) > g.capacity {
		back := g.order.Back()
		if back == nil {
			break
		}
		victim := back.Value.(*genericEntry)
		g.removeLocked(victim, "lru")
	}
	e := &genericEntry{key: k, length: int64(len(body))}
	e.elem = g.order.PushFront(e)
	g.items[k] = e
	g.used += e.length
	evs := g.takePendLocked()
	g.mu.Unlock()
	g.fireEvicts(evs)

	// Write-then-rename so concurrent readers never observe a torn block.
	tmp := g.blockPath(k) + ".tmp"
	err := os.WriteFile(tmp, body, 0o644)
	if err == nil {
		err = os.Rename(tmp, g.blockPath(k))
	}
	if err != nil {
		g.mu.Lock()
		if cur, ok := g.items[k]; ok && cur == e {
			// Rollback of this Put's own entry, not an eviction: no event.
			g.removeLocked(cur, "")
		}
		g.mu.Unlock()
		return
	}
	g.stats.Inserted.Add(1)
	g.stats.BytesInserted.Add(int64(len(body)))
	if g.ev != nil {
		g.ev.OnPCacheAdmit(event.PCacheAdmit{File: fileNum, Blocks: 1, Bytes: int64(len(body))})
	}
}

// PutBulk implements BlockCache. The generic cache has no batched admission
// path — each block pays the full per-entry cost, one more contrast with the
// packed region layout.
func (g *GenericLRU) PutBulk(fileNum uint64, blocks []Block) {
	for _, b := range blocks {
		g.Put(fileNum, b.Off, b.Body)
	}
}

func (g *GenericLRU) removeLocked(e *genericEntry, reason string) {
	if g.ev != nil && reason != "" {
		g.pend = append(g.pend, event.PCacheEvict{
			File: e.key.fileNum, Blocks: 1, Bytes: e.length, Reason: reason,
		})
	}
	g.order.Remove(e.elem)
	delete(g.items, e.key)
	g.used -= e.length
	_ = os.Remove(g.blockPath(e.key))
	g.stats.RegionsEvicted.Add(1) // counted per block for the baseline
}

// DropFile implements BlockCache: the generic cache must scan its whole
// index — per-block work the LSM-aware layout avoids.
func (g *GenericLRU) DropFile(fileNum uint64) {
	g.mu.Lock()
	var victims []*genericEntry
	for k, e := range g.items {
		if k.fileNum == fileNum {
			victims = append(victims, e)
		}
	}
	for _, e := range victims {
		g.removeLocked(e, "drop-file")
	}
	g.dropped.add(fileNum)
	evs := g.takePendLocked()
	g.mu.Unlock()
	g.heat.drop(fileNum)
	g.levels.drop(fileNum)
	g.stats.FilesDropped.Add(1)
	g.fireEvicts(evs)
}

// FileHeat implements BlockCache.
func (g *GenericLRU) FileHeat(fileNum uint64) int64 { return g.heat.get(fileNum) }

// MetadataBytes implements BlockCache.
func (g *GenericLRU) MetadataBytes() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return int64(len(g.items)) * genericEntryOverhead
}

// UsedBytes implements BlockCache.
func (g *GenericLRU) UsedBytes() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.used
}

// CachedBlocks returns the number of resident blocks.
func (g *GenericLRU) CachedBlocks() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.items)
}

// Stats implements BlockCache.
func (g *GenericLRU) Stats() *Stats { return &g.stats }

// Close implements BlockCache. The generic cache has nothing to persist.
func (g *GenericLRU) Close() error { return nil }
