package db

import (
	"slices"
	"sync"
)

// bufPool is the store's free list of the large buffers its background jobs
// fill once and let go: the tables a flush or compaction builds (tableSink)
// and the spans a compaction reads its inputs in (spanReader). A fresh
// buffer is zeroed by the runtime and faulted in by the OS page by page,
// only to be overwritten; at fill's write rate that was most of the bytes
// the process allocated. A buffer from the list is overwritten as it is.
//
// The list keeps buffers in size classes, each a size a job asks for with
// an eighth of headroom: a compaction output (TargetFileBytes), a flush
// (MemtableBytes) and a compaction input span (compactionSpanBytes; a
// smaller table's one span fits the class of its table). At the
// benchmark's geometry the three are one class. A request takes a buffer of
// the smallest class that holds it, even a small one: a partial last table
// or its span. A class above the smallest takes only requests that fill more
// than half of it, so a recovery flush of a fraction of a huge memtable
// budget does not take a buffer of that budget. Such a request, and one
// over every class, gets a buffer of its own size, which put drops.
type bufPool struct {
	classes []*bufClass // by size, smallest first
}

// bufClass is one size class's stack of idle buffers.
type bufClass struct {
	size int // the capacity of every buffer of the class
	max  int // most idle buffers kept

	mu   sync.Mutex
	free [][]byte
}

// poisonFreed, a test hook, fills every buffer put returns to the list with
// poisonByte and panics on a buffer returned twice: a reader that still
// holds a released table or span then reads garbage that fails its
// checksums instead of bytes that happen to be right.
var poisonFreed bool

const poisonByte = 0xA5

// newBufPool sizes the store's free list from its options. A compaction
// job holds its output tables until its edit is installed and its input
// spans while the merge reads them; at the benchmark's geometry (1 MiB
// tables, each level eight times the one above) a job has about as many
// inputs as outputs, a couple of uploadParallelism rounds of each. Every
// engine's flush lane holds one table more. Each class keeps what
// compactionSlots such jobs and the flush lanes hold at their peak, so a
// steady load makes no new buffers once warm.
func newBufPool(o Options) *bufPool {
	bound := compactionSlots*4*(uploadParallelism+1) + o.Shards
	var sizes []int
	for _, n := range []int64{o.TargetFileBytes, o.MemtableBytes, compactionSpanBytes} {
		sizes = append(sizes, int(n+n/8))
	}
	slices.Sort(sizes)
	p := &bufPool{}
	for _, size := range slices.Compact(sizes) {
		p.classes = append(p.classes, &bufClass{size: size, max: bound})
	}
	return p
}

// get returns an empty buffer with room for n bytes.
func (p *bufPool) get(n int) []byte {
	c := p.class(n)
	if c == nil {
		return make([]byte, 0, n)
	}
	c.mu.Lock()
	if k := len(c.free); k > 0 {
		b := c.free[k-1]
		c.free = c.free[:k-1]
		c.mu.Unlock()
		return b
	}
	c.mu.Unlock()
	return make([]byte, 0, c.size)
}

// class returns the class a request for n bytes takes, or nil when it gets
// a buffer of its own size.
func (p *bufPool) class(n int) *bufClass {
	for i, c := range p.classes {
		if n <= c.size {
			if i > 0 && n <= c.size/2 {
				return nil
			}
			return c
		}
	}
	return nil
}

// put returns b, which the caller and everything it lent b to are done
// with, to the list. A buffer of no class, or one past the class's bound,
// is left to the collector.
func (p *bufPool) put(b []byte) {
	for _, c := range p.classes {
		if cap(b) != c.size {
			continue
		}
		b = b[:0]
		if poisonFreed {
			full := b[:cap(b)]
			full[0] = poisonByte
			for k := 1; k < len(full); k *= 2 {
				copy(full[k:], full[:k])
			}
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		if poisonFreed {
			for _, f := range c.free {
				if &f[:1][0] == &b[:1][0] {
					panic("db: buffer returned to the free list twice")
				}
			}
		}
		if len(c.free) < c.max {
			c.free = append(c.free, b)
		}
		return
	}
}
