// Package skiplist implements the ordered in-memory index backing the
// memtable, in the shape of Pebble's arenaskl. A node, its tower of links,
// its internal key and its value are one arena allocation, and a link is the
// 32-bit arena address of the next node: an Insert allocates no Go object
// and the garbage collector scans no node. Each node also carries the first
// 8 bytes of its user key as a big-endian integer, so a search settles most
// compares on one integer compare without touching the key bytes.
//
// Inserts publish nodes with a CAS loop on the atomic links, so any number
// of writers may insert concurrently (the commit pipeline applies group
// members' batches in parallel); readers stay lock-free against atomically
// published nodes, mirroring the memtable concurrency model of RocksDB's
// concurrent-memtable-writes mode.
package skiplist

import (
	"sync/atomic"
	"unsafe"

	"rocksmash/internal/arena"
	"rocksmash/internal/keys"
)

const (
	maxHeight = 12
	// branching gives a 1/4 probability of promoting a node one level.
	branching = 4
)

// node is the fixed part of a node as it lies in the arena. The rest of the
// tower follows next0, then the key, then the value:
//
//	prefix uint64          first 8 user-key bytes, big-endian, zero-padded
//	keyLen, valLen uint32
//	height uint32
//	tower  [height]uint32  address of the next node at each level; 0 ends it
//	key    [keyLen]byte    the internal key
//	value  [valLen]byte
//
// Every field is written before the level-0 CAS publishes the node, and
// never after but for the links.
type node struct {
	prefix uint64
	keyLen uint32
	valLen uint32
	height uint32
	next0  atomic.Uint32
}

// nodeHeader is the size of a node before its tower.
const nodeHeader = int(unsafe.Offsetof(node{}.next0))

// nodeSize is the arena bytes of a node of height h holding key and value.
func nodeSize(h, key, value int) int { return nodeHeader + 4*h + key + value }

// next returns the link at level i < n.height.
func (n *node) next(i int) *atomic.Uint32 {
	return (*atomic.Uint32)(unsafe.Add(unsafe.Pointer(&n.next0), 4*i))
}

// key returns the node's internal key, aliasing the arena.
func (n *node) key() []byte {
	return unsafe.Slice((*byte)(unsafe.Add(unsafe.Pointer(&n.next0), 4*int(n.height))), n.keyLen)
}

// value returns the node's value, aliasing the arena.
func (n *node) value() []byte {
	if n.valLen == 0 {
		// Not a slice at the key's end: that may be the end of the chunk.
		return n.key()[:0:0]
	}
	p := unsafe.Add(unsafe.Pointer(&n.next0), 4*int(n.height)+int(n.keyLen))
	return unsafe.Slice((*byte)(p), n.valLen)
}

// before reports whether the node sorts before the internal key k, whose
// user key's prefix is kp. Only a prefix tie reads the node's key bytes.
func (n *node) before(k []byte, kp uint64) bool {
	if n.prefix != kp {
		return n.prefix < kp
	}
	return n.keyBefore(k)
}

// keyBefore is before's tie path, kept out of line so before inlines.
//
//go:noinline
func (n *node) keyBefore(k []byte) bool { return keys.Compare(n.key(), k) < 0 }

// List is a skiplist ordered by keys.Compare. All methods, including
// Insert, are safe for concurrent use.
type List struct {
	// head is the sentinel before the first node. It lives here, not in the
	// arena, so an empty list holds no chunk; it has no address, and a
	// search that ends on it reports address 0.
	head struct {
		node
		tower [maxHeight - 1]atomic.Uint32
	}
	arena  *arena.Arena
	height atomic.Int32
	count  atomic.Int64
	size   atomic.Int64

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
	l := &List{arena: a}
	l.head.height = maxHeight
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

// node returns the node at addr, which is not 0.
func (l *List) node(addr uint32) *node {
	return (*node)(l.arena.Pointer(addr))
}

// findGreaterOrEqual returns the address of the first node with key >= k
// (0 if none) and, when prev is non-nil, fills prev with the predecessor at
// every level.
func (l *List) findGreaterOrEqual(k []byte, prev *[maxHeight]*node) uint32 {
	kp := keys.Prefix(keys.UserKey(k))
	x := &l.head.node
	level := int(l.height.Load()) - 1
	// bigger is the last node found not before k: a lower level that leads
	// to it again needs no compare.
	var bigger uint32
	for {
		next := x.next(level).Load()
		if next != 0 && next != bigger {
			if n := l.node(next); n.before(k, kp) {
				x = n
				continue
			}
			bigger = next
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

// findLessThan returns the address of the last node with key < k, or 0.
func (l *List) findLessThan(k []byte) uint32 {
	kp := keys.Prefix(keys.UserKey(k))
	x, addr := &l.head.node, uint32(0)
	level := int(l.height.Load()) - 1
	for {
		next := x.next(level).Load()
		if next != 0 {
			if n := l.node(next); n.before(k, kp) {
				x, addr = n, next
				continue
			}
		}
		if level == 0 {
			return addr
		}
		level--
	}
}

// findLast returns the address of the last node, or 0.
func (l *List) findLast() uint32 {
	x, addr := &l.head.node, uint32(0)
	level := int(l.height.Load()) - 1
	for {
		if next := x.next(level).Load(); next != 0 {
			x, addr = l.node(next), next
			continue
		}
		if level == 0 {
			return addr
		}
		level--
	}
}

// Insert adds an entry. The internal key must not already be present (the
// memtable guarantees uniqueness by including the sequence number in the
// key). key and value are copied into the arena, with the node.
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

	addr := l.arena.Reserve(nodeSize(h, len(key), len(value)))
	n := l.node(addr)
	kp := keys.Prefix(keys.UserKey(key))
	n.prefix = kp
	n.keyLen, n.valLen, n.height = uint32(len(key)), uint32(len(value)), uint32(h)
	copy(n.key(), key)
	copy(n.value(), value)
	for i := 0; i < h; i++ {
		p := prev[i]
		if p == nil {
			// The height raise or a concurrent raise left this level's
			// splice unset; the head is always a valid predecessor.
			p = &l.head.node
		}
		for {
			next := p.next(i).Load()
			// Advance past nodes a concurrent inserter linked before us.
			// Keys are unique, so strict less-than converges.
			for next != 0 {
				nn := l.node(next)
				if !nn.before(key, kp) {
					break
				}
				p, next = nn, nn.next(i).Load()
			}
			n.next(i).Store(next)
			if p.next(i).CompareAndSwap(next, addr) { // publish
				break
			}
			// CAS lost: p gained a new successor; re-advance from p.
		}
	}
	l.count.Add(1)
	l.size.Add(int64(len(key) + len(value)))
}

// Len returns the number of entries.
func (l *List) Len() int { return int(l.count.Load()) }

// Empty reports whether the list holds no entries.
func (l *List) Empty() bool { return l.count.Load() == 0 }

// Size returns the key and value bytes inserted; the nodes' own bytes are
// not counted.
func (l *List) Size() int64 { return l.size.Load() }

// Iterator walks the list. It is valid for use concurrently with any number
// of inserters; entries inserted after iterator creation may or may not be
// observed. It holds the current node's address, 0 when unpositioned.
type Iterator struct {
	list *List
	nd   uint32
}

// NewIterator returns an unpositioned iterator.
func (l *List) NewIterator() *Iterator { return &Iterator{list: l} }

// InitIterator makes *it an unpositioned iterator over the list, for a
// caller that holds the iterator by value inside a larger object.
func (l *List) InitIterator(it *Iterator) { *it = Iterator{list: l} }

// Valid reports whether the iterator is positioned on an entry.
func (it *Iterator) Valid() bool { return it.nd != 0 }

// Key returns the current internal key, aliasing the arena. Only valid when
// Valid().
func (it *Iterator) Key() []byte { return it.list.node(it.nd).key() }

// Value returns the current value, aliasing the arena. Only valid when
// Valid().
func (it *Iterator) Value() []byte { return it.list.node(it.nd).value() }

// Next advances to the next entry.
func (it *Iterator) Next() { it.nd = it.list.node(it.nd).next0.Load() }

// Prev moves to the previous entry (O(log n)).
func (it *Iterator) Prev() { it.nd = it.list.findLessThan(it.Key()) }

// SeekGE positions at the first entry with key >= k.
func (it *Iterator) SeekGE(k []byte) { it.nd = it.list.findGreaterOrEqual(k, nil) }

// SeekLT positions at the last entry with key < k.
func (it *Iterator) SeekLT(k []byte) { it.nd = it.list.findLessThan(k) }

// First positions at the first entry.
func (it *Iterator) First() { it.nd = it.list.head.next0.Load() }

// Last positions at the last entry.
func (it *Iterator) Last() { it.nd = it.list.findLast() }
