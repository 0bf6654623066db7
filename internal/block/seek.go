package block

import (
	"bytes"
	"encoding/binary"
	"math"
	"sync/atomic"
	"unsafe"

	"rocksmash/internal/keys"
)

// seekTable is a data block decoded once for point reads: one fixed-size
// entry per block entry, in block order, holding the entry's offset and the
// 8 user-key bytes that follow the block's common prefix (the user-key
// prefix every entry shares), big-endian and zero-padded. A point seek
// binary-searches the prefixes and decodes only the entries that tie with
// the target's, where a search of the raw bytes decodes and compares every
// entry of the target's restart run. Only point reads build one (Cell);
// scans read the raw bytes through Iter.
type seekTable struct {
	r      Reader
	common []byte // aliases the first entry's key
	// ents is nil when the fast path cannot stand in for the raw search:
	// the block is empty, its keys are out of order, or some run of tied
	// prefixes starts with a key whose shared bytes the prefix cannot
	// supply (see buildSeekTable). The table then searches the raw bytes.
	ents []seekEntry
}

// seekEntry is one block entry: the entry's header is at data[off:].
type seekEntry struct {
	pfx uint64
	off uint32
}

// seekEntryBytes is the memory one entry of a seek table holds.
const seekEntryBytes = int(unsafe.Sizeof(seekEntry{}))

// buildSeekTable decodes r's entries into a seek table. It fails with
// ErrCorrupt exactly when Walk rejects the block, and allocates the entry
// array only (keys up to keys.SeekBufLen bytes are assembled on the stack).
//
// A seek starts decoding at the first entry of the run of entries whose
// prefix ties with the target's, with nothing before it decoded: that
// entry's first `shared` key bytes must come from the table. They are the
// common prefix followed by the entry's own prefix bytes whenever the key
// shares no more than len(common)+8 bytes with its predecessor and those
// bytes are its user key's, which holds unless a user key shorter than
// len(common)+8 is followed by one that runs on into its trailer bytes.
// The build checks that for every run and falls back to the raw search if
// it fails, as it does for keys out of order, where the prefixes are not
// sorted.
func buildSeekTable(r Reader) (seekTable, error) {
	t := seekTable{r: r}
	data := r.data
	var bufA, bufB [keys.SeekBufLen]byte
	prev, cur := bufA[:0], bufB[:0]
	n, sorted := 0, true
	var first []byte
	err := r.Walk(func(shared, keyOff, valOff, _ int) error {
		cur = append(append(cur[:0], prev[:shared]...), data[keyOff:valOff]...)
		if n == 0 {
			first = data[keyOff:valOff] // the first entry shares nothing
		} else if keys.Compare(prev, cur) > 0 {
			sorted = false
		}
		prev, cur = cur, prev
		n++
		return nil
	})
	if err != nil {
		return seekTable{}, err
	}
	if n == 0 || !sorted || len(data) > math.MaxUint32 {
		return t, nil
	}
	// Sorted, every user key lies between the first and the last, so
	// shares their common prefix.
	firstU, lastU := keys.UserKey(first), keys.UserKey(prev)
	l := 0
	for l < len(firstU) && l < len(lastU) && firstU[l] == lastU[l] {
		l++
	}
	t.common = firstU[:l:l]
	ents := make([]seekEntry, n)
	key := cur[:0]
	for i, off := 0, 0; i < n; i++ {
		shared, unshared, vlen, p, _ := decodeEntry(data, off)
		key = append(key[:shared], data[p:p+unshared]...)
		pfx := keys.Prefix(keys.UserKey(key)[l:])
		if i > 0 && pfx != ents[i-1].pfx && !headFromPrefix(key, shared, l, pfx) {
			return seekTable{r: r}, nil
		}
		ents[i] = seekEntry{pfx: pfx, off: uint32(off)}
		off = p + unshared + vlen
	}
	t.ents = ents
	return t, nil
}

// headFromPrefix reports whether key's first shared bytes are the common
// prefix (its first l bytes) followed by the big-endian bytes of pfx.
func headFromPrefix(key []byte, shared, l int, pfx uint64) bool {
	if shared <= l {
		return true
	}
	if shared > l+8 {
		return false
	}
	var p [8]byte
	binary.BigEndian.PutUint64(p[:], pfx)
	return bytes.Equal(key[l:shared], p[:shared-l])
}

// bytes is the memory the table holds beyond the block: its entry array.
func (t *seekTable) bytes() int64 { return int64(cap(t.ents) * seekEntryBytes) }

// seekGE is Reader.SeekGE over the table: the same entry, assembled in the
// same way in buf's backing array, with value aliasing the block.
func (t *seekTable) seekGE(target, buf []byte) (key, value []byte, ok bool, err error) {
	if t.ents == nil {
		return t.r.SeekGE(target, buf)
	}
	u, c := keys.UserKey(target), t.common
	lo := 0
	// Every entry's user key starts with c, so a target that does not
	// sorts before or after all of them.
	if len(u) < len(c) || !bytes.Equal(u[:len(c)], c) {
		if bytes.Compare(u, c) > 0 {
			return nil, nil, false, nil
		}
	} else {
		pfx := keys.Prefix(u[len(c):])
		hi := len(t.ents)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if t.ents[mid].pfx < pfx {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo == len(t.ents) {
			return nil, nil, false, nil
		}
	}
	// Entries before lo sort below the target. Decode from lo, the first of
	// its prefix, whose shared bytes are c and its prefix's; the first key
	// >= target is in lo's run of tied prefixes or is the entry after it.
	data := t.r.data
	e := &t.ents[lo]
	shared, unshared, vlen, p, _ := decodeEntry(data, int(e.off))
	key = buf[:0]
	if shared > 0 {
		var pb [8]byte
		binary.BigEndian.PutUint64(pb[:], e.pfx)
		if shared <= len(c) {
			key = append(key, c[:shared]...)
		} else {
			key = append(append(key, c...), pb[:shared-len(c)]...)
		}
	}
	for {
		key = append(key, data[p:p+unshared]...)
		off := p + unshared + vlen
		if keys.Compare(key, target) >= 0 {
			return key, data[p+unshared : off], true, nil
		}
		if off >= len(data) {
			return nil, nil, false, nil
		}
		shared, unshared, vlen, p, _ = decodeEntry(data, off)
		key = key[:shared]
	}
}

// Cell is where a cache keeps the seek table of a block it holds. It starts
// empty; the first point read that searches the block through it builds
// the table (SeekGE), and the table is fixed from then on. A scan never
// builds one. The block's owner charges the table to itself (ChargeTo) and
// takes the charge back when the block leaves it (Drop). A nil *Cell is a
// block no cache holds: its seeks search the raw bytes.
type Cell struct {
	state atomic.Uint32
	table seekTable     // written once, by the build, before state is cellReady
	used  *atomic.Int64 // the owner's charged bytes, or nil
}

const (
	cellEmpty    uint32 = iota
	cellBuilding        // one point read is building the table
	cellReady           // table is built and charged
	cellRaw             // no table for good: the block failed to decode, or its owner let it go
)

// ChargeTo makes the cell add its table's bytes to used once it is built.
// The owner calls it before it shares the cell.
func (c *Cell) ChargeTo(used *atomic.Int64) { c.used = used }

// Drop marks the cell's block as gone from its owner and returns the bytes
// its table was charged, which the owner takes off. A seek through the
// cell afterwards searches the raw bytes, and builds nothing.
func (c *Cell) Drop() int64 {
	for {
		s := c.state.Load()
		if s == cellRaw {
			return 0
		}
		if c.state.CompareAndSwap(s, cellRaw) {
			if s == cellReady {
				return c.table.bytes()
			}
			// A build in flight sees the drop and takes its charge back.
			return 0
		}
	}
}

// SeekGE is Reader.SeekGE for the block data that cell holds: the first
// entry with key >= target, assembled in buf's backing array, or ok ==
// false (err == nil when every key is smaller). It searches the cell's
// seek table, building it on the first call; while another read builds it,
// or after the owner dropped the block, it searches the raw bytes.
func (c *Cell) SeekGE(data, target, buf []byte) (key, value []byte, ok bool, err error) {
	if t := c.seekTable(data); t != nil {
		return t.seekGE(target, buf)
	}
	r, err := Parse(data)
	if err != nil {
		return nil, nil, false, err
	}
	return r.SeekGE(target, buf)
}

// seekTable returns the cell's table, building it from data if no read has
// yet, or nil when there is none to use.
func (c *Cell) seekTable(data []byte) *seekTable {
	if c == nil {
		return nil
	}
	switch c.state.Load() {
	case cellReady:
		return &c.table
	case cellEmpty:
		if c.state.CompareAndSwap(cellEmpty, cellBuilding) {
			return c.build(data)
		}
	}
	return nil
}

// build runs once per cell, by the read that moved it to cellBuilding.
func (c *Cell) build(data []byte) *seekTable {
	r, err := Parse(data)
	var t seekTable
	if err == nil {
		t, err = buildSeekTable(r)
	}
	if err != nil {
		c.state.Store(cellRaw)
		return nil
	}
	c.table = t
	n := t.bytes()
	if c.used != nil {
		c.used.Add(n)
	}
	if !c.state.CompareAndSwap(cellBuilding, cellReady) && c.used != nil {
		// Dropped meanwhile: the owner took off no charge for it.
		c.used.Add(-n)
	}
	return &c.table
}
