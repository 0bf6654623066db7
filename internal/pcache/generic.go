package pcache

import (
	"container/list"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"rocksmash/internal/cache"
	"rocksmash/internal/event"
)

// generic is the baseline index the paper compares against: a conventional
// block cache that knows nothing about the LSM tree. Every block is an
// independent entry — stored as its own file on local storage, indexed by a
// hash map with an LRU list, evicted one block at a time. Its per-block
// metadata cost (map node + list element + key copies) is what the packed
// index eliminates, and its per-block eviction is what the region layout
// batches.
type generic struct {
	dir      string
	capacity int64
	used     int64
	items    map[blockKey]*genericEntry
	order    *list.List
	gen      uint32 // the last entry generation handed out
}

type blockKey struct {
	fileNum  uint64
	blockOff uint64
}

// genericEntry is 40 B: the key, the length, the block's CRC, the entry's
// generation (a slot names it by that) and the list element.
type genericEntry struct {
	key    blockKey
	length uint32
	crc    uint32
	gen    uint32
	elem   *list.Element
}

// genericEntryOverhead approximates the in-memory bytes a generic cache
// spends per block: map bucket share (~48 B), key (16 B), entry struct
// (40 B), list.Element (48 B) — a conservative 152 B total, in line with
// measured Go map+list footprints.
const genericEntryOverhead = 152

// openGeneric opens the baseline index under dir. It has no recoverable
// index, so a restart is cold: block files of a previous run are removed.
func openGeneric(dir string, capacity int64) (*generic, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		_ = os.Remove(filepath.Join(dir, e.Name()))
	}
	return &generic{dir: dir, capacity: capacity, items: map[blockKey]*genericEntry{}, order: list.New()}, nil
}

func (g *generic) path(k blockKey) string {
	return filepath.Join(g.dir, fmt.Sprintf("f%06d-%012d.blk", k.fileNum, k.blockOff))
}

func (g *generic) find(fileNum, blockOff uint64, touch bool) (slot, bool) {
	e, ok := g.items[blockKey{fileNum, blockOff}]
	if !ok {
		return slot{}, false
	}
	if touch {
		g.order.MoveToFront(e.elem)
	}
	return slot{fileNum: fileNum, blockOff: blockOff, epoch: e.gen, length: e.length, crc: e.crc}, true
}

// read reads the block's file. A file evicted, or rewritten for the same
// key, after find either fails to open or fails the CRC.
func (g *generic) read(s slot) ([]byte, error) {
	return os.ReadFile(g.path(blockKey{s.fileNum, s.blockOff}))
}

func (g *generic) forget(s slot) bool {
	e, ok := g.items[blockKey{s.fileNum, s.blockOff}]
	if !ok || e.gen != s.epoch {
		return false
	}
	g.remove(e)
	return true
}

// admits is the door's rule for single blocks: once a block of size bytes
// no longer fits, it is admitted only if the sketch estimates it above the
// LRU tail block it would displace first.
func (g *generic) admits(sk *cache.Sketch, fileNum, blockOff uint64, size int) bool {
	back := g.order.Back()
	if g.used+int64(size) <= g.capacity || back == nil {
		return true
	}
	tail := back.Value.(*genericEntry).key
	return sk.Estimate(cache.Key{FileNum: fileNum, Offset: blockOff}) >
		sk.Estimate(cache.Key{FileNum: tail.fileNum, Offset: tail.blockOff})
}

// insert evicts per block until the new one fits, then writes its file.
func (g *generic) insert(fileNum, blockOff uint64, body []byte, evs []event.PCacheEvict) (bool, []event.PCacheEvict) {
	for g.used+int64(len(body)) > g.capacity && g.order.Len() > 0 {
		evs = g.evict(g.order.Back().Value.(*genericEntry), "lru", evs)
	}
	k := blockKey{fileNum, blockOff}
	if err := os.WriteFile(g.path(k), body, 0o644); err != nil {
		_ = os.Remove(g.path(k))
		return false, evs
	}
	g.gen++
	e := &genericEntry{key: k, length: uint32(len(body)), crc: crc32.Checksum(body, castagnoli), gen: g.gen}
	e.elem = g.order.PushFront(e)
	g.items[k] = e
	g.used += int64(len(body))
	return true, evs
}

func (g *generic) evict(e *genericEntry, reason string, evs []event.PCacheEvict) []event.PCacheEvict {
	g.remove(e)
	return append(evs, event.PCacheEvict{File: e.key.fileNum, Blocks: 1, Bytes: int64(e.length), Reason: reason})
}

func (g *generic) remove(e *genericEntry) {
	g.order.Remove(e.elem)
	delete(g.items, e.key)
	g.used -= int64(e.length)
	_ = os.Remove(g.path(e.key))
}

// dropFile must scan the whole index — per-block work the LSM-aware layout
// avoids.
func (g *generic) dropFile(fileNum uint64, evs []event.PCacheEvict) []event.PCacheEvict {
	for k, e := range g.items {
		if k.fileNum == fileNum {
			evs = g.evict(e, "drop-file", evs)
		}
	}
	return evs
}

func (g *generic) usage() (blocks int, used, meta int64) {
	return len(g.items), g.used, int64(len(g.items)) * genericEntryOverhead
}

// close has nothing to persist.
func (g *generic) close() error { return nil }
