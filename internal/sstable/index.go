package sstable

import (
	"bytes"
	"fmt"
	"math"
	"unsafe"

	"rocksmash/internal/block"
	"rocksmash/internal/keys"
)

// index is a table's index block decoded once, at open: one fixed-size,
// pointer-free entry per data block, in separator order. A lookup
// binary-searches the entries comparing 8-byte key prefixes and reads the
// separator bytes only on a prefix tie, where a search of the block itself
// would parse three varints and compare a whole key at every probe.
type index struct {
	seps   []byte // separator bytes: the pinned index body, or a copy of them
	ents   []indexEntry
	common []byte // the user-key prefix every separator shares; aliases seps
}

// indexEntry is one data block. pfx packs the 8 user-key bytes that follow
// the index's common prefix, big-endian and zero-padded, so that two
// entries whose pfx differ are ordered without touching seps.
type indexEntry struct {
	pfx  uint64
	off  uint32 // the separator is seps[off : off+klen]
	klen uint32
	h    Handle
}

// indexEntryBytes is the memory one decoded entry pins.
const indexEntryBytes = int(unsafe.Sizeof(indexEntry{}))

// decodeIndex decodes an index block body. The table builder writes index
// blocks at restart interval 1, so no separator shares bytes with its
// predecessor and the entries point into body itself; an index that does
// prefix-compress is decoded into one copy of its separators. It fails with
// ErrCorrupt for a malformed block, a separator shorter than a trailer, a
// handle that does not parse, or separators not in strictly increasing
// internal-key order. Decoding allocates the entry array, sized from the
// restart count, and the separator copy when one is needed.
func decodeIndex(body []byte) (index, error) {
	br, err := block.Parse(body)
	if err != nil || uint64(len(body)) > math.MaxUint32 {
		return index{}, fmt.Errorf("%w: index block", ErrCorrupt)
	}
	ix := index{seps: body, ents: make([]indexEntry, 0, br.Restarts())}
	var copied []byte // nil until a separator shares bytes with the previous one
	var prev []byte
	err = br.Walk(func(shared, keyOff, valOff, end int) error {
		h, err := DecodeHandle(body[valOff:end])
		if err != nil {
			return fmt.Errorf("entry %d: bad block handle", len(ix.ents))
		}
		e := indexEntry{off: uint32(keyOff), klen: uint32(shared + valOff - keyOff), h: h}
		sep := body[keyOff:valOff]
		if shared > 0 && copied == nil {
			copied = make([]byte, 0, len(body))
			for i := range ix.ents {
				p := &ix.ents[i]
				start := len(copied)
				copied = append(copied, body[p.off:p.off+p.klen]...)
				p.off = uint32(start)
			}
		}
		if copied != nil {
			start := len(copied)
			copied = append(append(copied, prev[:shared]...), sep...)
			if uint64(len(copied)) > math.MaxUint32 {
				return fmt.Errorf("entry %d: separators too long", len(ix.ents))
			}
			e.off, sep = uint32(start), copied[start:]
		}
		if prev != nil && keys.Compare(prev, sep) >= 0 {
			return fmt.Errorf("entry %d: separators out of order", len(ix.ents))
		}
		ix.ents = append(ix.ents, e)
		prev = sep
		return nil
	})
	if err != nil {
		return index{}, fmt.Errorf("%w: index block: %v", ErrCorrupt, err)
	}
	if copied != nil {
		ix.seps = copied
	}
	if n := len(ix.ents); n > 0 {
		first, last := keys.UserKey(ix.sep(0)), keys.UserKey(ix.sep(n-1))
		l := 0
		for l < len(first) && l < len(last) && first[l] == last[l] {
			l++
		}
		ix.common = first[:l:l]
		for i := range ix.ents {
			ix.ents[i].pfx = keys.Prefix(keys.UserKey(ix.sep(i))[l:])
		}
	}
	return ix, nil
}

// sep returns separator i, an internal key.
func (ix *index) sep(i int) []byte {
	e := &ix.ents[i]
	end := e.off + e.klen
	return ix.seps[e.off:end:end]
}

// search returns the ordinal of the first entry whose separator is >=
// target in internal-key order, len(ix.ents) when none is: the only data
// block that can hold target's first entry at or above it.
func (ix *index) search(target []byte) int {
	n := len(ix.ents)
	u, c := keys.UserKey(target), ix.common
	// Every separator's user key starts with c, so a target that does not
	// sorts before or after all of them.
	if len(u) < len(c) || !bytes.Equal(u[:len(c)], c) {
		if bytes.Compare(u, c) < 0 {
			return 0
		}
		return n
	}
	pfx := keys.Prefix(u[len(c):])
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		e := &ix.ents[mid]
		var less bool
		if e.pfx != pfx {
			less = e.pfx < pfx
		} else {
			less = keys.Compare(ix.sep(mid), target) < 0
		}
		if less {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// pinned is the memory the decoded index holds: the separator bytes (the
// whole index body, unless its separators were copied out) and the entries.
func (ix *index) pinned() int { return cap(ix.seps) + cap(ix.ents)*indexEntryBytes }
