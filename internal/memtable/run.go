package memtable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"rocksmash/internal/keys"
)

// Run is an immutable sorted run of internal keys, the memtable WAL recovery
// rebuilds each log segment into. A recovered memtable is never written
// after replay, so instead of a skiplist insert per record a Run is built in
// one pass and sorted once: Add appends the internal key and value to one
// pointer-free buffer and a fixed-size entry to an index, Finish sorts the
// index, and reads binary-search it. A Run is single-writer while it is
// built; a finished Run is safe for any number of concurrent readers.
type Run struct {
	buf  []byte     // each entry's internal key, then its value, back to back
	ents []runEntry // in keys.Compare order once Finish has run
	hint int        // capacity buf gets at the first Add
}

// runEntry locates one entry in the run's buffer. pfx holds the first 8
// bytes of the user key, big-endian and zero-padded: two entries whose
// prefixes differ compare without touching the buffer. On YCSB keys ("user"
// and 19 scrambled digits) that settles 96% of a segment sort's compares.
type runEntry struct {
	pfx  uint64
	off  uint64 // the internal key is buf[off : off+klen]
	klen uint32
	vlen uint32 // the value follows the key
}

// NewRun returns an empty run whose buffer, allocated at the first Add,
// holds size bytes of keys, trailers and values before it has to grow. WAL
// recovery passes the length of the segment image, which bounds them unless
// records carry batches of more than three operations. A run nothing is
// added to allocates no buffer.
func NewRun(size int) *Run {
	return &Run{hint: size}
}

// Add appends an entry. For kind == keys.KindDelete, value is ignored. Add
// must not be called after Finish. It fails only for an internal key or a
// value of 4 GiB or more, which an entry cannot describe.
func (r *Run) Add(seq uint64, kind keys.Kind, ukey, value []byte) error {
	if kind == keys.KindDelete {
		value = nil
	}
	if uint64(len(ukey))+keys.TrailerLen > math.MaxUint32 || uint64(len(value)) > math.MaxUint32 {
		return fmt.Errorf("memtable: entry of a %d-byte key and a %d-byte value is too large for a run", len(ukey), len(value))
	}
	if r.buf == nil {
		r.buf = make([]byte, 0, max(r.hint, len(ukey)+keys.TrailerLen+len(value)))
	}
	off := len(r.buf)
	r.buf = keys.MakeInternalKey(r.buf, ukey, seq, kind)
	r.buf = append(r.buf, value...)
	r.ents = append(r.ents, runEntry{
		pfx:  prefix(ukey),
		off:  uint64(off),
		klen: uint32(len(ukey) + keys.TrailerLen),
		vlen: uint32(len(value)),
	})
	return nil
}

// Finish sorts the run. Reads are valid only after it. A buffer less than
// half used (a segment straddling the flushed watermark keeps only its
// newer entries) is copied to its used length, so the memory a run holds
// stays within twice ApproximateSize.
func (r *Run) Finish() {
	if len(r.buf) < cap(r.buf)/2 {
		r.buf = bytes.Clone(r.buf)
	}
	slices.SortFunc(r.ents, r.compare)
}

// prefix packs the first 8 bytes of ukey big-endian, zero-padded, so that
// prefix(a) < prefix(b) implies a < b bytewise.
func prefix(ukey []byte) uint64 {
	if len(ukey) >= 8 {
		return binary.BigEndian.Uint64(ukey)
	}
	var p [8]byte
	copy(p[:], ukey)
	return binary.BigEndian.Uint64(p[:])
}

func (r *Run) compare(a, b runEntry) int {
	if a.pfx != b.pfx {
		if a.pfx < b.pfx {
			return -1
		}
		return 1
	}
	return keys.Compare(r.key(a), r.key(b))
}

func (r *Run) key(e runEntry) []byte {
	end := e.off + uint64(e.klen)
	return r.buf[e.off:end:end]
}

func (r *Run) value(e runEntry) []byte {
	start := e.off + uint64(e.klen)
	end := start + uint64(e.vlen)
	return r.buf[start:end:end]
}

// search returns the index of the first entry whose internal key is >= k.
func (r *Run) search(k []byte) int {
	pfx := prefix(keys.UserKey(k))
	lo, hi := 0, len(r.ents)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		e := r.ents[mid]
		var less bool
		if e.pfx != pfx {
			less = e.pfx < pfx
		} else {
			less = keys.Compare(r.key(e), k) < 0
		}
		if less {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// GetSeek looks up the newest entry of seek's user key at or below seek's
// snapshot (seek is keys.MakeSeekKey of both), as MemTable.GetSeek does. It
// also returns the entry's sequence number, so a read probing several runs
// can keep the newest. value aliases the run.
func (r *Run) GetSeek(seek []byte) (value []byte, seq uint64, found, live bool) {
	i := r.search(seek)
	if i == len(r.ents) {
		return nil, 0, false, false
	}
	e := r.ents[i]
	ik := r.key(e)
	if !bytes.Equal(keys.UserKey(ik), keys.UserKey(seek)) {
		return nil, 0, false, false
	}
	seq, kind := keys.DecodeTrailer(ik)
	if kind == keys.KindDelete {
		return nil, seq, true, false
	}
	return r.value(e), seq, true, true
}

// ApproximateSize returns the bytes held by entries (keys + trailers +
// values), as MemTable.ApproximateSize does.
func (r *Run) ApproximateSize() int64 { return int64(len(r.buf)) }

// Len returns the number of entries.
func (r *Run) Len() int { return len(r.ents) }

// Empty reports whether the run has no entries.
func (r *Run) Empty() bool { return len(r.ents) == 0 }

// NewIterator returns an iterator over the run's internal keys in sorted
// order, unpositioned.
func (r *Run) NewIterator() *RunIterator { return &RunIterator{r: r, i: -1} }

// RunIterator walks a finished Run by moving an index. It has the
// skiplist iterator's methods and semantics; stepping off either end leaves
// it invalid.
type RunIterator struct {
	r *Run
	i int // valid in [0, len(r.ents))
}

// Valid reports whether the iterator is positioned at an entry.
func (it *RunIterator) Valid() bool { return it.i >= 0 && it.i < len(it.r.ents) }

// Key returns the current internal key. Only valid when Valid().
func (it *RunIterator) Key() []byte { return it.r.key(it.r.ents[it.i]) }

// Value returns the current value. Only valid when Valid().
func (it *RunIterator) Value() []byte { return it.r.value(it.r.ents[it.i]) }

// Next advances to the next entry. Only valid when Valid().
func (it *RunIterator) Next() { it.i++ }

// Prev moves to the previous entry. Only valid when Valid().
func (it *RunIterator) Prev() { it.i-- }

// SeekGE positions at the first entry >= k.
func (it *RunIterator) SeekGE(k []byte) { it.i = it.r.search(k) }

// SeekLT positions at the last entry < k.
func (it *RunIterator) SeekLT(k []byte) { it.i = it.r.search(k) - 1 }

// First positions at the first entry.
func (it *RunIterator) First() { it.i = 0 }

// Last positions at the last entry.
func (it *RunIterator) Last() { it.i = len(it.r.ents) - 1 }
