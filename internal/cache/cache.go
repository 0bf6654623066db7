// Package cache implements the sharded in-memory block cache that sits in
// front of both storage tiers (RocksDB's "block cache" analogue). Entries
// are charged by byte size against a global capacity split evenly across
// shards, and each shard evicts by CLOCK: a hit sets the block's reference
// bit and moves nothing, and the shard's hand clears set bits as it sweeps
// and evicts the first block it finds with its bit clear. A cached block
// also carries a block.Cell, where the first point read that searches it
// builds its seek table; the table is charged to the shard with the block
// and leaves with it.
//
// The cache is the top rung of the read ladder. A block of a cloud-tier
// table enters with PutCloud, and when the cache lets go of it — evicted, or
// declined at the door — the block is handed to the demote sink given to
// NewWithSink (the persistent cache's Put), so the tier below starts a
// block's clock when this one stops it instead of duplicating it. Sketch
// counts the reads of the blocks that pass this rung, and the tier below
// admits a demoted block only if it was read more often than what it would
// displace.
package cache

import (
	"bytes"
	"sync"
	"sync/atomic"

	"rocksmash/internal/block"
)

const numShards = 16

// Key identifies a cached block: the table file number and the block's
// offset within it.
type Key struct {
	FileNum uint64
	Offset  uint64
}

// entry is one cached block. Its bytes never change while it is cached: a
// Put that brings different bytes for the key replaces the entry, so a
// reader holding the bytes and the cell of an entry always holds a matching
// pair. Entries are born in slabs (shard.slab) and an entry serves one
// admission only: its memory is never reused for another block, however
// long a reader holds its cell.
type entry struct {
	key Key
	// data is the block; remove clears it, so that the slab an evicted entry
	// shares with resident ones keeps no evicted block alive (the cell drops
	// its seek table for the same reason). Guarded by the shard's mu.
	data []byte
	// cloud marks a block of a cloud-tier table: the only kind the demote
	// sink is told about. Guarded by the shard's mu.
	cloud bool
	// ref is the entry's CLOCK reference bit: a hit sets it, and the
	// shard's hand clears it.
	ref atomic.Bool
	pos int // the entry's ring slot; guarded by the shard's mu
	// cell holds the block's seek table once a point read builds it,
	// charged to the shard's used.
	cell block.Cell
}

type shard struct {
	mu       sync.Mutex
	capacity int64
	// used is the bytes charged: the blocks, changed under mu, and their
	// seek tables, which the read that builds one adds without it.
	used  atomic.Int64
	items map[Key]*entry
	ring  []*entry // the clock: every entry, in no order; nil marks a free slot
	free  []int    // free ring slots, the most recently freed last
	hand  int      // the ring slot the eviction hand looks at next
	// slab holds the entries not yet handed out, each used for one
	// admission only.
	slab []entry
}

// SlabEntries is how many entries a shard allocates at once: one allocation
// per SlabEntries admissions instead of one each.
const SlabEntries = 32

// Cache is a fixed-capacity block cache evicting by CLOCK.
type Cache struct {
	shards [numShards]shard
	hits   atomic.Int64
	misses atomic.Int64
	demote func(Key, []byte) // nil: evicted blocks are just dropped
}

// New returns a cache bounded to capacity bytes. Capacity ≤ 0 disables
// caching (all lookups miss, inserts are dropped).
func New(capacity int64) *Cache { return NewWithSink(capacity, nil) }

// NewWithSink is New with a demote sink: demote(key, body) is called for
// every PutCloud block the cache evicts or declines, on the goroutine whose
// Put caused it and with no cache lock held. InvalidateFile does not call
// it: a deleted table's blocks have nowhere to go.
func NewWithSink(capacity int64, demote func(Key, []byte)) *Cache {
	c := &Cache{demote: demote}
	// Round the per-shard budget up: flooring would zero it for any
	// capacity below numShards bytes, silently disabling every shard.
	per := (capacity + numShards - 1) / numShards
	if capacity <= 0 {
		per = 0
	}
	for i := range c.shards {
		c.shards[i].capacity = per
		c.shards[i].items = map[Key]*entry{}
	}
	return c
}

func (c *Cache) shardFor(k Key) *shard {
	h := k.FileNum*0x9e3779b97f4a7c15 ^ k.Offset*0xbf58476d1ce4e5b9
	return &c.shards[h%numShards]
}

// Get returns the cached block, if present, with the cell its seek table
// lives in (block.Cell.SeekGE). The returned slice must be treated as
// read-only. A hit sets the block's reference bit; nothing moves.
func (c *Cache) Get(k Key) ([]byte, *block.Cell, bool) {
	s := c.shardFor(k)
	s.mu.Lock()
	e := s.items[k]
	var data []byte
	if e != nil {
		data = e.data
	}
	s.mu.Unlock()
	if e == nil {
		c.misses.Add(1)
		return nil, nil, false
	}
	if !e.ref.Load() {
		e.ref.Store(true)
	}
	c.hits.Add(1)
	return data, &e.cell, true
}

// Put inserts or refreshes a block of a local-tier table. Blocks larger
// than the shard capacity are not cached.
func (c *Cache) Put(k Key, data []byte) { c.put(k, data, false) }

// PutCloud is Put for a block of a cloud-tier table: when the cache evicts
// it, or declines it here, the demote sink receives it.
func (c *Cache) PutCloud(k Key, data []byte) { c.put(k, data, true) }

func (c *Cache) put(k Key, data []byte, cloud bool) {
	s := c.shardFor(k)
	if int64(len(data)) > s.capacity || s.capacity <= 0 {
		if cloud && c.demote != nil {
			c.demote(k, data)
		}
		return
	}
	// Victims leave the shard under its lock and reach the sink after it,
	// with the bytes taken before remove cleared them, through a buffer on
	// this frame: one Put evicts about one block.
	var buf [4]resident
	victims := buf[:0]
	s.mu.Lock()
	if e, ok := s.items[k]; ok && bytes.Equal(e.data, data) {
		// The same block again (a race of two misses, a span landing over
		// a cached block): the resident copy and its seek table stay.
		e.cloud = cloud
		e.ref.Store(true)
	} else {
		if ok {
			s.remove(e)
		}
		s.insert(s.newEntry(k, data, cloud))
	}
	for s.used.Load() > s.capacity {
		victim := s.victim()
		if victim == nil {
			break
		}
		if victim.cloud && c.demote != nil {
			victims = append(victims, resident{victim.key, victim.data})
		}
		s.remove(victim)
	}
	s.mu.Unlock()
	for _, v := range victims {
		c.demote(v.key, v.data)
	}
}

// resident is a block on its way to the demote sink: its key and the bytes
// captured under the shard's lock.
type resident struct {
	key  Key
	data []byte
}

// newEntry hands out the next entry of the shard's slab, allocating a new
// slab when it is used up. mu is held.
func (s *shard) newEntry(k Key, data []byte, cloud bool) *entry {
	if len(s.slab) == 0 {
		s.slab = make([]entry, SlabEntries)
	}
	e := &s.slab[0]
	s.slab = s.slab[1:]
	e.key, e.data, e.cloud = k, data, cloud
	return e
}

// insert adds e to the shard, in the slot freed last when there is one:
// the slot the hand just emptied, so that the hand reaches e after every
// other entry. e's reference bit starts clear, so a block no read comes
// back to is the next victim once the hand gets round to it. mu is held.
func (s *shard) insert(e *entry) {
	e.cell.ChargeTo(&s.used)
	if n := len(s.free); n > 0 {
		e.pos = s.free[n-1]
		s.free = s.free[:n-1]
		s.ring[e.pos] = e
	} else {
		e.pos = len(s.ring)
		s.ring = append(s.ring, e)
	}
	s.items[e.key] = e
	s.used.Add(int64(len(e.data)))
}

// remove takes e out of the shard and its charge, its seek table's
// included, off used, and lets go of its block and seek table: a reader that
// took them before keeps its own references. mu is held.
func (s *shard) remove(e *entry) {
	delete(s.items, e.key)
	s.ring[e.pos] = nil
	s.free = append(s.free, e.pos)
	s.used.Add(-int64(len(e.data)) - e.cell.Drop())
	e.data = nil
}

// victim moves the hand to the next entry whose reference bit is clear,
// clearing the set bits it passes, and returns that entry (nil when the
// shard is empty). An entry hit since the hand last passed it survives
// this sweep. mu is held.
func (s *shard) victim() *entry {
	if len(s.items) == 0 {
		return nil
	}
	for {
		if s.hand >= len(s.ring) {
			s.hand = 0
		}
		e := s.ring[s.hand]
		s.hand++
		if e == nil {
			continue
		}
		if e.ref.Load() {
			e.ref.Store(false)
			continue
		}
		return e
	}
}

// DemoteAll hands every resident cloud block to the demote sink, coldest
// first within a shard — those the hand would take first: from the hand
// round the ring, the blocks with a clear reference bit, then the rest —
// and leaves the cache as it was. A clean shutdown calls it so that the
// tier below, which outlives the process, holds what this one held.
func (c *Cache) DemoteAll() {
	if c.demote == nil {
		return
	}
	for i := range c.shards {
		s := &c.shards[i]
		var cold, hot []resident
		s.mu.Lock()
		for j := range s.ring {
			e := s.ring[(s.hand+j)%len(s.ring)]
			if e == nil || !e.cloud {
				continue
			}
			if e.ref.Load() {
				hot = append(hot, resident{e.key, e.data})
			} else {
				cold = append(cold, resident{e.key, e.data})
			}
		}
		s.mu.Unlock()
		for _, e := range append(cold, hot...) {
			c.demote(e.key, e.data)
		}
	}
}

// InvalidateFile drops every cached block of a table (called when the file
// is deleted by compaction).
func (c *Cache) InvalidateFile(fileNum uint64) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for _, e := range s.ring {
			if e != nil && e.key.FileNum == fileNum {
				s.remove(e)
			}
		}
		s.mu.Unlock()
	}
}

// Used returns the total charged bytes: the blocks and their seek tables.
func (c *Cache) Used() int64 {
	var n int64
	for i := range c.shards {
		n += c.shards[i].used.Load()
	}
	return n
}

// Len returns the number of cached blocks.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.items)
		s.mu.Unlock()
	}
	return n
}

// HitRatio returns hits/(hits+misses), or 0 before any lookup.
func (c *Cache) HitRatio() float64 {
	h, m := c.hits.Load(), c.misses.Load()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// Counters returns the raw hit/miss counts.
func (c *Cache) Counters() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}
