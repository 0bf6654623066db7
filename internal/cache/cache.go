// Package cache implements the sharded in-memory LRU block cache that sits
// in front of both storage tiers (RocksDB's "block cache" analogue).
// Entries are charged by byte size against a global capacity split evenly
// across shards.
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
	"container/list"
	"sync"
	"sync/atomic"
)

const numShards = 16

// Key identifies a cached block: the table file number and the block's
// offset within it.
type Key struct {
	FileNum uint64
	Offset  uint64
}

type entry struct {
	key  Key
	data []byte
	elem *list.Element
	// cloud marks a block of a cloud-tier table: the only kind the demote
	// sink is told about.
	cloud bool
}

type shard struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	items    map[Key]*entry
	order    *list.List // front = most recent
}

// Cache is a fixed-capacity LRU over blocks.
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
		c.shards[i] = shard{capacity: per, items: map[Key]*entry{}, order: list.New()}
	}
	return c
}

func (c *Cache) shardFor(k Key) *shard {
	h := k.FileNum*0x9e3779b97f4a7c15 ^ k.Offset*0xbf58476d1ce4e5b9
	return &c.shards[h%numShards]
}

// Get returns the cached block, if present. The returned slice must be
// treated as read-only.
func (c *Cache) Get(k Key) ([]byte, bool) {
	s := c.shardFor(k)
	s.mu.Lock()
	e, ok := s.items[k]
	var data []byte
	if ok {
		s.order.MoveToFront(e.elem)
		// Read the slice header under the lock: a Put refreshing this key
		// rewrites e.data.
		data = e.data
	}
	s.mu.Unlock()
	if ok {
		c.hits.Add(1)
		return data, true
	}
	c.misses.Add(1)
	return nil, false
}

// Put inserts or refreshes a block of a local-tier table. Blocks larger
// than the shard capacity are not cached.
func (c *Cache) Put(k Key, data []byte) { c.put(k, data, false) }

// PutCloud is Put for a block of a cloud-tier table: when the cache evicts
// it, or declines it here, the demote sink receives it.
func (c *Cache) PutCloud(k Key, data []byte) { c.put(k, data, true) }

func (c *Cache) put(k Key, data []byte, cloud bool) {
	s := c.shardFor(k)
	charge := int64(len(data))
	if charge > s.capacity || s.capacity <= 0 {
		if cloud && c.demote != nil {
			c.demote(k, data)
		}
		return
	}
	// Victims leave the shard under its lock and reach the sink after it,
	// through a buffer on this frame: one Put evicts about one block.
	var buf [4]*entry
	victims := buf[:0]
	s.mu.Lock()
	if e, ok := s.items[k]; ok {
		s.used += charge - int64(len(e.data))
		e.data, e.cloud = data, cloud
		s.order.MoveToFront(e.elem)
	} else {
		e := &entry{key: k, data: data, cloud: cloud}
		e.elem = s.order.PushFront(e)
		s.items[k] = e
		s.used += charge
	}
	for s.used > s.capacity {
		back := s.order.Back()
		if back == nil {
			break
		}
		victim := back.Value.(*entry)
		s.order.Remove(back)
		delete(s.items, victim.key)
		s.used -= int64(len(victim.data))
		if victim.cloud && c.demote != nil {
			victims = append(victims, victim)
		}
	}
	s.mu.Unlock()
	for _, v := range victims {
		c.demote(v.key, v.data)
	}
}

// DemoteAll hands every resident cloud block to the demote sink, coldest
// first within a shard, and leaves the cache as it was. A clean shutdown
// calls it so that the tier below, which outlives the process, holds what
// this one held.
func (c *Cache) DemoteAll() {
	if c.demote == nil {
		return
	}
	for i := range c.shards {
		s := &c.shards[i]
		var resident []entry // copies: a refreshing Put rewrites e.data
		s.mu.Lock()
		for el := s.order.Back(); el != nil; el = el.Prev() {
			if e := el.Value.(*entry); e.cloud {
				resident = append(resident, entry{key: e.key, data: e.data})
			}
		}
		s.mu.Unlock()
		for _, e := range resident {
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
		for k, e := range s.items {
			if k.FileNum == fileNum {
				s.order.Remove(e.elem)
				delete(s.items, k)
				s.used -= int64(len(e.data))
			}
		}
		s.mu.Unlock()
	}
}

// Used returns the total charged bytes.
func (c *Cache) Used() int64 {
	var n int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.used
		s.mu.Unlock()
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
