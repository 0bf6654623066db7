package block

import (
	"bytes"
	"encoding/binary"
	"math"
	"sync/atomic"
	"unsafe"

	"rocksmash/internal/keys"
)

// SeekTable is a block decoded once for point seeks: one fixed-size entry
// per block entry, in block order, holding the entry's offset and the 8
// user-key bytes that follow the block's common prefix (the user-key prefix
// every entry shares), big-endian and zero-padded. A point seek
// binary-searches the prefixes and decodes only the entries that tie with
// the target's, where a search of the raw bytes decodes and compares every
// entry of the target's restart run. A cached data block gets one on its
// first point read (Cell), and a table's index gets one at open; scans read
// the raw bytes through Iter.
type SeekTable struct {
	r      Reader
	common []byte // aliases the first entry's key
	// ents is nil when the fast path cannot stand in for the raw search:
	// the block is empty, its keys do not strictly increase, or some run of
	// tied prefixes starts with a key whose shared bytes the prefix cannot
	// supply (see NewSeekTable). The table then searches the raw bytes.
	ents []seekEntry
	// whole: no entry shares key bytes (restart interval 1), so each key
	// lies whole at its entry and the binary search breaks prefix ties.
	whole bool
}

// seekEntry is one block entry: the entry's header is at data[off:].
type seekEntry struct {
	pfx uint64
	off uint32
}

// NewSeekTable parses data and decodes its entries into a seek table. It
// fails with ErrCorrupt exactly when Parse or Walk rejects the block, and
// allocates the entry array only (keys up to keys.SeekBufLen bytes are
// assembled on the stack).
//
// A seek starts decoding at the first entry of the run of entries whose
// prefix ties with the target's, with nothing before it decoded: that
// entry's first `shared` key bytes must come from the table. They are the
// common prefix followed by the entry's own prefix bytes whenever the key
// shares no more than len(common)+8 bytes with its predecessor and those
// bytes are its user key's, which holds unless a user key shorter than
// len(common)+8 is followed by one that runs on into its trailer bytes.
// The build checks that for every run and falls back to the raw search if
// it fails, as it does for keys not in strictly increasing order, where the
// prefixes may not be sorted.
func NewSeekTable(data []byte) (SeekTable, error) {
	r, err := Parse(data)
	if err != nil {
		return SeekTable{}, err
	}
	t := SeekTable{r: r}
	data = r.data
	var bufA, bufB [keys.SeekBufLen]byte
	prev, cur := bufA[:0], bufB[:0]
	n, sorted, whole := 0, true, true
	var first []byte
	err = r.Walk(func(shared, keyOff, valOff, _ int) error {
		whole = whole && shared == 0
		cur = append(append(cur[:0], prev[:shared]...), data[keyOff:valOff]...)
		if n == 0 {
			first = data[keyOff:valOff] // the first entry shares nothing
		} else if keys.Compare(prev, cur) >= 0 {
			sorted = false
		}
		prev, cur = cur, prev
		n++
		return nil
	})
	if err != nil {
		return SeekTable{}, err
	}
	if n == 0 || !sorted || len(data) > math.MaxUint32 {
		return SeekTable{r: r, whole: n == 0}, nil // an empty block holds all of its entries
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
			return SeekTable{r: r}, nil
		}
		ents[i] = seekEntry{pfx: pfx, off: uint32(off)}
		off = p + unshared + vlen
	}
	t.ents, t.whole = ents, whole
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

// Bytes is the memory the table holds beyond the block: its entry array.
func (t *SeekTable) Bytes() int64 { return int64(cap(t.ents)) * int64(unsafe.Sizeof(seekEntry{})) }

// Len is the number of entries the table holds; 0 if it searches raw bytes.
func (t *SeekTable) Len() int { return len(t.ents) }

// Whole reports whether the table holds every entry and no key shares bytes
// with its predecessor's: strictly increasing keys at restart interval 1.
func (t *SeekTable) Whole() bool { return t.whole }

// Value returns entry i's value, aliasing the block, for 0 <= i < Len().
// Values are never prefix-compressed, so only entry i's header is decoded.
func (t *SeekTable) Value(i int) []byte {
	_, unshared, vlen, p, _ := decodeEntry(t.r.data, int(t.ents[i].off))
	return t.r.data[p+unshared : p+unshared+vlen]
}

// SeekGE is Reader.SeekGE over the table: the same entry, its key assembled
// in the same way in buf's backing array (in a Whole table, aliasing the
// block, and buf unused), its value aliasing the block. i is the entry's
// ordinal, Len() when every key is smaller; a table that searches the raw
// bytes returns 0.
func (t *SeekTable) SeekGE(target, buf []byte) (i int, key, value []byte, ok bool, err error) {
	if t.ents == nil {
		key, value, ok, err = t.r.SeekGE(target, buf)
		return 0, key, value, ok, err
	}
	u, c := keys.UserKey(target), t.common
	lo, hi := 0, len(t.ents)
	// Every entry's user key starts with c, so a target that does not
	// sorts before or after all of them.
	if len(u) < len(c) || !bytes.Equal(u[:len(c)], c) {
		if bytes.Compare(u, c) > 0 {
			lo = hi
		}
	} else {
		pfx := keys.Prefix(u[len(c):])
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			e := &t.ents[mid]
			less := e.pfx < pfx
			if e.pfx == pfx && t.whole {
				_, unshared, _, p, _ := decodeEntry(t.r.data, int(e.off))
				less = keys.Compare(t.r.data[p:p+unshared], target) < 0
			}
			if less {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
	}
	if lo == len(t.ents) {
		return lo, nil, nil, false, nil
	}
	// Entries before lo sort below the target; in a whole table, lo is the
	// answer. Elsewhere decode from lo, the first of its prefix, whose
	// shared bytes are c and its prefix's; the first key >= target is in
	// lo's run of tied prefixes or is the entry after it.
	data := t.r.data
	e := &t.ents[lo]
	shared, unshared, vlen, p, _ := decodeEntry(data, int(e.off))
	if t.whole {
		return lo, data[p : p+unshared], data[p+unshared : p+unshared+vlen], true, nil
	}
	key = buf[:0]
	if shared > 0 {
		var pb [8]byte
		binary.BigEndian.PutUint64(pb[:], e.pfx)
		key = append(append(key, c...), pb[:]...)[:shared]
	}
	for i = lo; ; i++ {
		key = append(key, data[p:p+unshared]...)
		off := p + unshared + vlen
		if keys.Compare(key, target) >= 0 {
			return i, key, data[p+unshared : off], true, nil
		}
		if off >= len(data) {
			return len(t.ents), nil, nil, false, nil
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
	// table is stored once, by the build, before state is cellReady, and
	// cleared by Drop: a table aliases its block's bytes, so a cell its
	// owner let go of keeps neither. A read that loaded it keeps it alive.
	table atomic.Pointer[SeekTable]
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
				return c.table.Swap(nil).Bytes()
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
		_, key, value, ok, err = t.SeekGE(target, buf)
		return key, value, ok, err
	}
	r, err := Parse(data)
	if err != nil {
		return nil, nil, false, err
	}
	return r.SeekGE(target, buf)
}

// seekTable returns the cell's table, building it from data if no read has
// yet, or nil when there is none to use.
func (c *Cell) seekTable(data []byte) *SeekTable {
	if c == nil {
		return nil
	}
	switch c.state.Load() {
	case cellReady:
		return c.table.Load() // nil if a Drop came in between
	case cellEmpty:
		if c.state.CompareAndSwap(cellEmpty, cellBuilding) {
			return c.build(data)
		}
	}
	return nil
}

// build runs once per cell, by the read that moved it to cellBuilding.
func (c *Cell) build(data []byte) *SeekTable {
	t := new(SeekTable)
	var err error
	if *t, err = NewSeekTable(data); err != nil {
		c.state.Store(cellRaw)
		return nil
	}
	c.table.Store(t)
	n := t.Bytes()
	if c.used != nil {
		c.used.Add(n)
	}
	if !c.state.CompareAndSwap(cellBuilding, cellReady) {
		// Dropped meanwhile: the owner took off no charge for it, and the
		// cell keeps no table.
		c.table.Store(nil)
		if c.used != nil {
			c.used.Add(-n)
		}
	}
	return t
}
