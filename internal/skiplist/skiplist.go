// Package skiplist implements the ordered in-memory index backing the
// memtable. Inserts publish nodes with a CAS loop on the atomic next
// pointers, so any number of writers may insert concurrently (the commit
// pipeline applies group members' batches in parallel); readers stay
// lock-free against atomically published nodes, mirroring the memtable
// concurrency model of RocksDB's concurrent-memtable-writes mode.
package skiplist

import (
	"sync/atomic"

	"rocksmash/internal/arena"
	"rocksmash/internal/keys"
)

const (
	maxHeight = 12
	// branching gives a 1/4 probability of promoting a node one level.
	branching = 4
)

type node struct {
	key   []byte // internal key, arena-backed
	value []byte // arena-backed
	// next[i] is the next node at level i.
	next []atomic.Pointer[node]
}

// A node of height 1–3 (98.4 % of nodes at branching 4) is allocated
// together with its tower as one of these; next aliases the tower.
type (
	node1 struct {
		node
		tower [1]atomic.Pointer[node]
	}
	node2 struct {
		node
		tower [2]atomic.Pointer[node]
	}
	node3 struct {
		node
		tower [3]atomic.Pointer[node]
	}
)

// newNode returns a node with a tower of height h.
func newNode(h int) *node {
	switch h {
	case 1:
		x := &node1{}
		x.next = x.tower[:]
		return &x.node
	case 2:
		x := &node2{}
		x.next = x.tower[:]
		return &x.node
	case 3:
		x := &node3{}
		x.next = x.tower[:]
		return &x.node
	}
	return &node{next: make([]atomic.Pointer[node], h)}
}

// List is a skiplist ordered by keys.Compare. All methods, including
// Insert, are safe for concurrent use.
type List struct {
	head   *node
	arena  *arena.Arena
	height atomic.Int32
	count  atomic.Int64

	// rngState drives randomHeight: an atomic splitmix64 counter, so height
	// draws stay lock-free under concurrent inserters.
	rngState atomic.Uint64
}

// seedCounter hands every list a distinct RNG seed. A fixed seed would make
// all lists (one memtable per keyspace shard, rotated on every flush) draw
// identical height sequences, correlating tower shapes across shards.
var seedCounter atomic.Uint64

// New returns an empty skiplist allocating from a.
func New(a *arena.Arena) *List {
	h := &node{next: make([]atomic.Pointer[node], maxHeight)}
	l := &List{head: h, arena: a}
	l.rngState.Store(splitmix64(seedCounter.Add(0x9E3779B97F4A7C15)))
	l.height.Store(1)
	return l
}

// splitmix64 scrambles x into an independent uniform draw (the splitmix64
// finalizer).
func splitmix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

func (l *List) randomHeight() int {
	// splitmix64 over an atomic counter: each Add claims a unique state and
	// the finalizer scrambles it into an independent uniform draw.
	x := splitmix64(l.rngState.Add(0x9E3779B97F4A7C15))
	h := 1
	for h < maxHeight && x&(branching-1) == 0 {
		h++
		x >>= 2
	}
	return h
}

// findGreaterOrEqual returns the first node with key >= k and, when prev is
// non-nil, fills prev with the predecessor at every level.
func (l *List) findGreaterOrEqual(k []byte, prev *[maxHeight]*node) *node {
	x := l.head
	level := int(l.height.Load()) - 1
	for {
		next := x.next[level].Load()
		if next != nil && keys.Compare(next.key, k) < 0 {
			x = next
			continue
		}
		if prev != nil {
			prev[level] = x
		}
		if level == 0 {
			return next
		}
		level--
	}
}

// findLessThan returns the last node with key < k, or the head sentinel.
func (l *List) findLessThan(k []byte) *node {
	x := l.head
	level := int(l.height.Load()) - 1
	for {
		next := x.next[level].Load()
		if next != nil && keys.Compare(next.key, k) < 0 {
			x = next
			continue
		}
		if level == 0 {
			return x
		}
		level--
	}
}

// findLast returns the last node in the list, or the head sentinel.
func (l *List) findLast() *node {
	x := l.head
	level := int(l.height.Load()) - 1
	for {
		next := x.next[level].Load()
		if next != nil {
			x = next
			continue
		}
		if level == 0 {
			return x
		}
		level--
	}
}

// Insert adds an entry. The internal key must not already be present (the
// memtable guarantees uniqueness by including the sequence number in the
// key). key and value are copied into the arena.
//
// Insert is safe for concurrent use: each level links the node with a CAS
// publication loop, re-walking from the last known predecessor when another
// inserter wins the race. Level 0 is linked first, so a node is reachable
// by readers the moment its bottom-level CAS lands; upper levels are
// search shortcuts and may lag briefly.
func (l *List) Insert(key, value []byte) {
	h := l.randomHeight()
	// Raise the list height first so the splice search below sees at least
	// h levels. A concurrent raise by another inserter is fine either way.
	for {
		cur := l.height.Load()
		if int(cur) >= h || l.height.CompareAndSwap(cur, int32(h)) {
			break
		}
	}

	var prev [maxHeight]*node
	l.findGreaterOrEqual(key, &prev)

	n := newNode(h)
	n.key = l.arena.Append(key)
	n.value = l.arena.Append(value)
	for i := 0; i < h; i++ {
		p := prev[i]
		if p == nil {
			// The height raise or a concurrent raise left this level's
			// splice unset; the head is always a valid predecessor.
			p = l.head
		}
		for {
			next := p.next[i].Load()
			// Advance past nodes a concurrent inserter linked before us.
			// Keys are unique, so strict less-than converges.
			for next != nil && keys.Compare(next.key, key) < 0 {
				p = next
				next = p.next[i].Load()
			}
			n.next[i].Store(next)
			if p.next[i].CompareAndSwap(next, n) { // publish
				break
			}
			// CAS lost: p gained a new successor; re-advance from p.
		}
	}
	l.count.Add(1)
}

// Len returns the number of entries.
func (l *List) Len() int { return int(l.count.Load()) }

// Empty reports whether the list holds no entries.
func (l *List) Empty() bool { return l.count.Load() == 0 }

// Iterator walks the list. It is valid for use concurrently with any number
// of inserters; entries inserted after iterator creation may or may not be
// observed.
type Iterator struct {
	list *List
	n    *node
}

// NewIterator returns an unpositioned iterator.
func (l *List) NewIterator() *Iterator { return &Iterator{list: l} }

// Valid reports whether the iterator is positioned on an entry.
func (it *Iterator) Valid() bool { return it.n != nil }

// Key returns the current internal key. Only valid when Valid().
func (it *Iterator) Key() []byte { return it.n.key }

// Value returns the current value. Only valid when Valid().
func (it *Iterator) Value() []byte { return it.n.value }

// Next advances to the next entry.
func (it *Iterator) Next() { it.n = it.n.next[0].Load() }

// Prev moves to the previous entry (O(log n)).
func (it *Iterator) Prev() {
	p := it.list.findLessThan(it.n.key)
	if p == it.list.head {
		it.n = nil
	} else {
		it.n = p
	}
}

// SeekGE positions at the first entry with key >= k.
func (it *Iterator) SeekGE(k []byte) { it.n = it.list.findGreaterOrEqual(k, nil) }

// SeekLT positions at the last entry with key < k.
func (it *Iterator) SeekLT(k []byte) {
	p := it.list.findLessThan(k)
	if p == it.list.head {
		it.n = nil
	} else {
		it.n = p
	}
}

// First positions at the first entry.
func (it *Iterator) First() { it.n = it.list.head.next[0].Load() }

// Last positions at the last entry.
func (it *Iterator) Last() {
	p := it.list.findLast()
	if p == it.list.head {
		it.n = nil
	} else {
		it.n = p
	}
}
