package memtable

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"

	"rocksmash/internal/keys"
)

// Run is an immutable sorted run of internal keys, the memtable WAL recovery
// rebuilds each log segment into. A recovered memtable is never written
// after replay, so instead of a skiplist insert per record a Run is built in
// one pass and sorted once.
//
// A run is built over its segment's image and aliases it: AddAt records an
// entry's user key and value by their offsets in the image, so replay
// copies no key or value that sits whole in one WAL block. Add copies the
// key and value of a record reassembled from fragments into one overflow
// buffer instead. The saving thus rests on most records fitting in one
// 32 KiB block. A segment of larger records is copied once into the
// overflow buffer, which Finish then makes the run's image, so its bytes
// are still copied once and held once.
//
// An entry is a fixed-size, pointer-free record of the key's 8-byte prefix,
// its (seq, kind) trailer and those offsets; Finish orders the entries with
// an LSD radix sort on the prefix and one insertion pass for prefix ties,
// and reads binary-search them. A Run is single-writer while it is built; a
// finished Run is safe for any number of concurrent readers.
type Run struct {
	// img and over form one address space: offsets below len(img) are in
	// img, the rest in over at offset-len(img).
	img  []byte     // the segment image AddAt entries alias
	over []byte     // keys and values Add copied
	ents []runEntry // in keys.Compare order once Finish has run
	live int64      // user-key and value bytes the entries address
}

// runEntry locates one entry. pfx holds the first 8 bytes of the user key,
// big-endian and zero-padded: two entries whose prefixes differ are ordered
// without touching their keys, which on YCSB keys ("user" and 19 scrambled
// digits) settles 96% of a segment sort's compares.
type runEntry struct {
	pfx   uint64
	trail uint64 // keys.PackTrailer(seq, kind)
	koff  uint32 // the user key is at koff, klen bytes
	klen  uint32
	voff  uint32 // the value is at voff, vlen bytes; 0, 0 for a delete
	vlen  uint32
}

// NewRun returns an empty run over img, the image its entries may alias,
// with room for entries entries before its index grows. img must not change
// while the run lives; nil is fine for a run built by Add alone.
func NewRun(img []byte, entries int) *Run {
	r := &Run{img: img}
	if entries > 0 {
		r.ents = make([]runEntry, 0, entries)
	}
	return r
}

// errTooLarge reports an entry outside the 4 GiB a run's offsets address.
func errTooLarge(klen, vlen int) error {
	return fmt.Errorf("memtable: entry of a %d-byte key and a %d-byte value is too large for a run", klen, vlen)
}

// AddAt appends an entry whose user key is img[koff:koff+klen] and whose
// value is img[voff:voff+vlen]; for kind == keys.KindDelete the value is
// ignored. It fails for a key or value that does not lie in the image, and
// AddAt must not be called after Finish.
func (r *Run) AddAt(seq uint64, kind keys.Kind, koff, klen, voff, vlen int) error {
	if kind == keys.KindDelete {
		voff, vlen = 0, 0
	}
	n := len(r.img)
	if koff < 0 || klen < 0 || klen > n-koff || voff < 0 || vlen < 0 || vlen > n-voff {
		return fmt.Errorf("memtable: entry at %d+%d, %d+%d lies outside a %d-byte image", koff, klen, voff, vlen, n)
	}
	if n > math.MaxUint32 {
		return errTooLarge(klen, vlen)
	}
	r.add(seq, kind, r.img[koff:koff+klen], koff, voff, vlen)
	return nil
}

// Add appends an entry, copying ukey and value into the run's overflow
// buffer. For kind == keys.KindDelete, value is ignored. Add must not be
// called after Finish. It fails only when the run's bytes would pass 4 GiB,
// which its offsets cannot address.
func (r *Run) Add(seq uint64, kind keys.Kind, ukey, value []byte) error {
	if kind == keys.KindDelete {
		value = nil
	}
	need := len(ukey) + len(value)
	base := len(r.img) + len(r.over)
	if uint64(base)+uint64(need) > math.MaxUint32 {
		return errTooLarge(len(ukey), len(value))
	}
	if cap(r.over)-len(r.over) < need {
		r.over = slices.Grow(r.over, r.overGrowth(need))
	}
	r.over = append(r.over, ukey...)
	r.over = append(r.over, value...)
	r.add(seq, kind, ukey, base, base+len(ukey), len(value))
	return nil
}

func (r *Run) add(seq uint64, kind keys.Kind, ukey []byte, koff, voff, vlen int) {
	r.ents = append(r.ents, runEntry{
		pfx:   prefix(ukey),
		trail: keys.PackTrailer(seq, kind),
		koff:  uint32(koff),
		klen:  uint32(len(ukey)),
		voff:  uint32(voff),
		vlen:  uint32(vlen),
	})
	r.live += int64(len(ukey) + vlen)
}

// walBlock is the WAL's physical block size (wal.BlockSize): a record is
// reassembled from fragments only if it crosses a boundary between blocks.
const walBlock = 32 << 10

// overGrowth is how many bytes the overflow buffer grows by when need more
// do not fit. A reassembled record crosses at least one of the image's block
// boundaries and no two records cross the same one, so the image holds at
// most one reassembled record per boundary: the first Add sizes the buffer
// for that many records of its size, which fits any segment whose records
// are about one size, up to the image's length, which bounds their bytes.
// After that the buffer doubles.
func (r *Run) overGrowth(need int) int {
	if r.over == nil {
		return max(need, min(len(r.img), (len(r.img)/walBlock+1)*need))
	}
	return max(need, cap(r.over))
}

// Finish sorts the run. Reads are valid only after it.
//
// A run holding more than twice the bytes its entries address — a segment
// straddling the flushed watermark keeps only its newer entries, and most
// of its image is dead — drops its image first, and so does a run none of
// whose bytes lie in its image (every record was reassembled), so the
// memory a run holds stays within twice ApproximateSize.
func (r *Run) Finish() {
	if r.img != nil && (int64(len(r.over)) == r.live || int64(cap(r.img)+cap(r.over)) > 2*r.live) {
		r.dropImage()
	}
	if cap(r.ents) > 2*len(r.ents) {
		r.ents = slices.Clone(r.ents) // a size hint far above the entries added
	}
	r.sortByPrefix()
	r.settleTies()
}

// dropImage makes the overflow buffer the run's image: the bytes entries
// address in the image are appended to it, and every offset is rebased. So
// only the aliased bytes are copied, none when every record was reassembled,
// unless the buffer lacks room for them or would hold more than twice the
// live bytes; then everything moves into one buffer of exactly the live
// bytes.
func (r *Run) dropImage() {
	buf := r.over
	if int64(cap(buf)) < r.live || int64(cap(buf)) > 2*r.live {
		buf = make([]byte, len(r.over), r.live)
		copy(buf, r.over)
	}
	base := uint32(len(r.img))
	move := func(off, n uint32) uint32 {
		if off >= base {
			return off - base
		}
		o := uint32(len(buf))
		buf = append(buf, r.img[off:off+n]...)
		return o
	}
	for i := range r.ents {
		e := &r.ents[i]
		e.koff = move(e.koff, e.klen)
		e.voff = move(e.voff, e.vlen)
	}
	r.img, r.over = buf, nil
}

// radixScratch holds the buffers the radix sort scatters into, so replay
// allocates one per goroutine, not one per segment.
var radixScratch sync.Pool // of *[]runEntry

// sortByPrefix orders the entries by pfx with a stable LSD radix sort, one
// byte a pass from the least significant, skipping every byte position all
// entries share (on YCSB keys "user" is four of them). One pass over the
// entries counts all eight positions first.
func (r *Run) sortByPrefix() {
	n := len(r.ents)
	if n < 2 {
		return
	}
	var counts [8][256]uint32
	for i := range r.ents {
		p := r.ents[i].pfx
		counts[0][byte(p)]++
		counts[1][byte(p>>8)]++
		counts[2][byte(p>>16)]++
		counts[3][byte(p>>24)]++
		counts[4][byte(p>>32)]++
		counts[5][byte(p>>40)]++
		counts[6][byte(p>>48)]++
		counts[7][byte(p>>56)]++
	}
	var sp *[]runEntry
	src, dst := r.ents, []runEntry(nil)
	for b := range counts {
		shift := 8 * uint(b)
		c := &counts[b]
		if c[byte(src[0].pfx>>shift)] == uint32(n) {
			continue
		}
		if dst == nil {
			if v, ok := radixScratch.Get().(*[]runEntry); ok && cap(*v) >= n {
				sp = v
			} else {
				s := make([]runEntry, n)
				sp = &s
			}
			dst = (*sp)[:n]
		}
		var sum uint32
		for i, k := range c {
			c[i], sum = sum, sum+k
		}
		for _, e := range src {
			k := byte(e.pfx >> shift)
			dst[c[k]] = e
			c[k]++
		}
		src, dst = dst, src
	}
	if sp == nil {
		return
	}
	if &src[0] != &r.ents[0] {
		copy(r.ents, src)
	}
	radixScratch.Put(sp)
}

// tieSortMax is the largest group of entries sharing a prefix that
// settleTies orders by insertion; a larger one (many versions of one key,
// or keys whose first 8 bytes agree) is sorted with slices.SortFunc, so
// Finish stays O(n log n) on any keys.
const tieSortMax = 32

// settleTies puts entries that share a prefix, adjacent after
// sortByPrefix, in keys.Compare order: one pass over the array that
// insertion-sorts each group of ties in place.
func (r *Run) settleTies() {
	ents := r.ents
	for i := 0; i < len(ents); {
		j := i + 1
		for j < len(ents) && ents[j].pfx == ents[i].pfx {
			j++
		}
		switch g := ents[i:j]; {
		case len(g) > tieSortMax:
			slices.SortFunc(g, func(a, b runEntry) int { return r.compareTie(&a, &b) })
		case len(g) > 1:
			for k := 1; k < len(g); k++ {
				e := g[k]
				m := k
				for m > 0 && r.compareTie(&e, &g[m-1]) < 0 {
					g[m] = g[m-1]
					m--
				}
				g[m] = e
			}
		}
		i = j
	}
}

// compareTie orders two entries of equal prefix as keys.Compare orders
// their internal keys: user key ascending, then trailer descending.
func (r *Run) compareTie(a, b *runEntry) int {
	if c := bytes.Compare(r.ukey(a), r.ukey(b)); c != 0 {
		return c
	}
	return cmp.Compare(b.trail, a.trail)
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

// at returns the n bytes at off in the run's address space.
func (r *Run) at(off, n uint32) []byte {
	if base := uint32(len(r.img)); off >= base {
		off -= base
		return r.over[off : off+n : off+n]
	}
	return r.img[off : off+n : off+n]
}

func (r *Run) ukey(e *runEntry) []byte { return r.at(e.koff, e.klen) }

func (r *Run) value(e *runEntry) []byte { return r.at(e.voff, e.vlen) }

// search returns the index of the first entry whose internal key is >= k,
// comparing prefix, then user key, then trailer: it builds no key.
func (r *Run) search(k []byte) int {
	ukey := keys.UserKey(k)
	trail := binary.LittleEndian.Uint64(k[len(ukey):])
	pfx := prefix(ukey)
	lo, hi := 0, len(r.ents)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		e := &r.ents[mid]
		var less bool
		if e.pfx != pfx {
			less = e.pfx < pfx
		} else if c := bytes.Compare(r.ukey(e), ukey); c != 0 {
			less = c < 0
		} else {
			less = e.trail > trail
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
	e := &r.ents[i]
	if !bytes.Equal(r.ukey(e), keys.UserKey(seek)) {
		return nil, 0, false, false
	}
	seq, kind := keys.UnpackTrailer(e.trail)
	if kind == keys.KindDelete {
		return nil, seq, true, false
	}
	return r.value(e), seq, true, true
}

// ApproximateSize returns the bytes held by entries (keys + trailers +
// values), as MemTable.ApproximateSize does.
func (r *Run) ApproximateSize() int64 {
	return r.live + int64(len(r.ents))*keys.TrailerLen
}

// Len returns the number of entries.
func (r *Run) Len() int { return len(r.ents) }

// Empty reports whether the run has no entries.
func (r *Run) Empty() bool { return len(r.ents) == 0 }

// NewIterator returns an iterator over the run's internal keys in sorted
// order, unpositioned.
func (r *Run) NewIterator() *RunIterator { return &RunIterator{r: r, i: -1, ki: -1} }

// RunIterator walks a finished Run by moving an index. It has the
// skiplist iterator's methods and semantics, except that the key Key
// returns is built in a buffer the iterator owns and is valid until the
// iterator moves; stepping off either end leaves it invalid.
type RunIterator struct {
	r   *Run
	i   int    // valid in [0, len(r.ents))
	ki  int    // the entry key holds, or -1
	key []byte // the internal key of entry ki
}

// Valid reports whether the iterator is positioned at an entry.
func (it *RunIterator) Valid() bool { return it.i >= 0 && it.i < len(it.r.ents) }

// Key returns the current internal key. Only valid when Valid().
func (it *RunIterator) Key() []byte {
	if it.ki != it.i {
		e := &it.r.ents[it.i]
		it.key = append(it.key[:0], it.r.ukey(e)...)
		it.key = binary.LittleEndian.AppendUint64(it.key, e.trail)
		it.ki = it.i
	}
	return it.key
}

// Value returns the current value. Only valid when Valid().
func (it *RunIterator) Value() []byte { return it.r.value(&it.r.ents[it.i]) }

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
