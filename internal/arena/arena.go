// Package arena provides a chunked append-only allocator that hands out
// 32-bit addresses. The memtable skiplist places each node, its tower of
// links, its key and its value in one arena allocation and links nodes by
// address, so a Put allocates no Go object and the garbage collector finds
// no pointer in a memtable: a chunk is a plain []byte. The whole memtable is
// released in one step when the last reference to its arena goes.
//
// Chunks are allocated lazily, 256 KiB at a time, so an arena that is never
// written costs no chunk however large its memtable may grow, and a full
// memtable holds less than a chunk beyond its entries and nodes. An
// allocation larger than a chunk gets a chunk of its own. Reserve (and
// Alloc) are safe for concurrent use: the commit pipeline applies group
// members' batches to the memtable in parallel, so several writers
// bump-allocate from the same arena at once, beside readers of what earlier
// writers published.
package arena

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

const (
	// chunkShift sizes the regular chunks.
	chunkShift = 18
	chunkSize  = 1 << chunkShift // 256 KiB

	// Align is the alignment of every allocation.
	Align = 8

	// An address is a chunk's slot in its high slotShift bits and the
	// allocation's offset in the chunk, in Align units, in the low ones: 256
	// KiB chunks take 15 offset bits and leave 131072 slots, 32 GiB of chunks.
	slotShift = chunkShift - 3
	offMask   = 1<<slotShift - 1
	maxSlots  = 1 << (32 - slotShift)
)

// chunk is one regular allocation block. off reserves space with a single
// atomic add; a reservation past chunkSize loses the race for the chunk's
// tail and the allocator moves on to a fresh chunk.
type chunk struct {
	buf  []byte
	off  atomic.Int64
	slot uint32
}

// Arena is a chunked bump allocator. Reserve, Alloc and Append are safe for
// concurrent use by any number of writers running alongside readers of
// previously returned allocations; the common path is a single atomic add.
type Arena struct {
	cur atomic.Pointer[chunk]
	// bases maps a slot to the first byte of its chunk. Slot 0 is never
	// used, so no allocation has address 0. The table only grows: a grow
	// appends under growMu and publishes the longer table, so a reader that
	// learned an address from a published node also sees its slot.
	bases atomic.Pointer[[]unsafe.Pointer]
	size  atomic.Int64

	growMu sync.Mutex
}

// New returns an empty arena. It allocates no chunk.
func New() *Arena {
	return &Arena{}
}

// Reserve allocates n > 0 zeroed bytes aligned to Align and returns their
// address, which is never 0. Pointer turns it into memory.
func (a *Arena) Reserve(n int) uint32 {
	sz := int64(n+Align-1) &^ (Align - 1)
	if sz > chunkSize {
		return a.own(sz)
	}
	for {
		c := a.cur.Load()
		if c != nil {
			if end := c.off.Add(sz); end <= chunkSize {
				return c.slot<<slotShift | uint32(end-sz)/Align
			}
			// Lost the tail race: the chunk is (over)committed. The slack a
			// failed reservation strands is bounded by one allocation.
		}
		a.grow(c)
	}
}

// Pointer returns the memory at addr, an address Reserve returned.
func (a *Arena) Pointer(addr uint32) unsafe.Pointer {
	bases := *a.bases.Load()
	return unsafe.Add(bases[addr>>slotShift], uintptr(addr&offMask)*Align)
}

// grow installs a fresh chunk, unless another allocator already replaced
// the one the caller saw full.
func (a *Arena) grow(old *chunk) {
	a.growMu.Lock()
	defer a.growMu.Unlock()
	if a.cur.Load() != old {
		return // raced: retry against the new chunk
	}
	buf := make([]byte, chunkSize)
	a.cur.Store(&chunk{buf: buf, slot: a.addSlotLocked(buf)})
}

// own gives an allocation larger than a chunk a chunk of its own, at offset
// 0 of a new slot; the current chunk keeps taking small allocations.
func (a *Arena) own(sz int64) uint32 {
	a.growMu.Lock()
	defer a.growMu.Unlock()
	return a.addSlotLocked(make([]byte, sz)) << slotShift
}

// addSlotLocked publishes buf's slot. The caller holds growMu.
func (a *Arena) addSlotLocked(buf []byte) uint32 {
	var bases []unsafe.Pointer
	if p := a.bases.Load(); p != nil {
		bases = *p
	} else {
		bases = make([]unsafe.Pointer, 1, 8)
	}
	if len(bases) == maxSlots {
		panic("arena: out of address space")
	}
	// Appending in place is safe: a reader indexes only below the length of
	// the table it loaded.
	bases = append(bases, unsafe.Pointer(unsafe.SliceData(buf)))
	a.bases.Store(&bases)
	return uint32(len(bases) - 1)
}

// Alloc returns a zeroed byte slice of length n carved from the arena.
func (a *Arena) Alloc(n int) []byte {
	if n == 0 {
		return []byte{}
	}
	a.size.Add(int64(n))
	return unsafe.Slice((*byte)(a.Pointer(a.Reserve(n))), n)
}

// Append copies src into the arena and returns the stable copy.
func (a *Arena) Append(src []byte) []byte {
	b := a.Alloc(len(src))
	copy(b, src)
	return b
}

// Size returns the number of bytes handed out by Alloc and Append; Reserve
// does not count. It is a lower bound on the memory those calls hold
// (alignment and chunk slack are excluded).
func (a *Arena) Size() int64 {
	return a.size.Load()
}
