// Package block implements the key/value block format shared by SSTable
// data and index blocks. Entries are prefix-compressed against the previous
// key, with periodic restart points for binary search:
//
//	entry:   varint(shared) varint(unshared) varint(valueLen) keyDelta value
//	trailer: restartOffset*uint32 ... restartCount uint32
//
// Keys within a block must be added in strictly increasing internal-key
// order.
package block

import (
	"encoding/binary"
	"errors"

	"rocksmash/internal/keys"
)

// ErrCorrupt reports a structurally invalid block.
var ErrCorrupt = errors.New("block: corrupt entry")

// Builder assembles a block.
type Builder struct {
	buf             []byte
	restarts        []uint32
	restartInterval int
	counter         int
	lastKey         []byte
	n               int
}

// NewBuilder returns a builder that writes a restart point every
// restartInterval entries (16 is the conventional default).
func NewBuilder(restartInterval int) *Builder {
	if restartInterval < 1 {
		restartInterval = 1
	}
	return &Builder{restartInterval: restartInterval, restarts: []uint32{0}}
}

// Add appends an entry. key must sort after every previously added key.
func (b *Builder) Add(key, value []byte) {
	shared := 0
	if b.counter < b.restartInterval {
		n := len(b.lastKey)
		if len(key) < n {
			n = len(key)
		}
		for shared < n && b.lastKey[shared] == key[shared] {
			shared++
		}
	} else {
		b.restarts = append(b.restarts, uint32(len(b.buf)))
		b.counter = 0
	}
	b.buf = binary.AppendUvarint(b.buf, uint64(shared))
	b.buf = binary.AppendUvarint(b.buf, uint64(len(key)-shared))
	b.buf = binary.AppendUvarint(b.buf, uint64(len(value)))
	b.buf = append(b.buf, key[shared:]...)
	b.buf = append(b.buf, value...)

	b.lastKey = append(b.lastKey[:0], key...)
	b.counter++
	b.n++
}

// Count returns the number of entries added.
func (b *Builder) Count() int { return b.n }

// EstimatedSize returns the size the finished block will have.
func (b *Builder) EstimatedSize() int {
	return len(b.buf) + 4*len(b.restarts) + 4
}

// Empty reports whether no entries were added.
func (b *Builder) Empty() bool { return b.n == 0 }

// Finish appends the restart trailer and returns the encoded block. The
// builder must not be reused afterwards except via Reset.
func (b *Builder) Finish() []byte {
	for _, r := range b.restarts {
		b.buf = binary.LittleEndian.AppendUint32(b.buf, r)
	}
	b.buf = binary.LittleEndian.AppendUint32(b.buf, uint32(len(b.restarts)))
	return b.buf
}

// Reset clears the builder for reuse.
func (b *Builder) Reset() {
	b.buf = b.buf[:0]
	b.restarts = b.restarts[:1]
	b.restarts[0] = 0
	b.counter = 0
	b.lastKey = b.lastKey[:0]
	b.n = 0
}

// Reader provides random and sequential access to a finished block. It is two
// slice headers over the block's own bytes — nothing is copied or decoded up
// front — so it is cheap to hold by value (Parse) and safe to share: the
// bytes belong to whoever fetched the block and are only ever read.
type Reader struct {
	data     []byte // entry region only
	restarts []byte // the trailer's restart offsets (uint32 LE each), read in place
}

// Parse validates an encoded block's trailer and returns its Reader.
func Parse(data []byte) (Reader, error) {
	if len(data) < 4 {
		return Reader{}, ErrCorrupt
	}
	n := binary.LittleEndian.Uint32(data[len(data)-4:])
	trailer := 4 * (int(n) + 1)
	if n == 0 || trailer > len(data) {
		return Reader{}, ErrCorrupt
	}
	restartStart := len(data) - trailer
	r := Reader{data: data[:restartStart], restarts: data[restartStart : len(data)-4]}
	// Every restart lies inside the entry region, and they strictly increase:
	// Prev steps back one restart at a time and relies on that to make
	// progress.
	for i, prev := 0, -1; i < int(n); i++ {
		off := r.restart(i)
		if off > restartStart || off <= prev {
			return Reader{}, ErrCorrupt
		}
		prev = off
	}
	return r, nil
}

// NewReader is Parse for callers that keep the Reader behind a pointer.
func NewReader(data []byte) (*Reader, error) {
	r, err := Parse(data)
	if err != nil {
		return nil, err
	}
	return &r, nil
}

func (r *Reader) numRestarts() int { return len(r.restarts) / 4 }

// restart returns the entry offset of restart point i.
func (r *Reader) restart(i int) int {
	return int(binary.LittleEndian.Uint32(r.restarts[4*i:]))
}

// decodeEntry decodes the header of the entry at off: the count of key bytes
// shared with the previous entry, the lengths of the key delta and the value,
// and the offset p of the delta (the value follows it, the next entry follows
// the value). ok is false when the header is malformed or the entry overruns
// the block; the caller still has to check shared against the previous key.
func decodeEntry(data []byte, off int) (shared, unshared, vlen, p int, ok bool) {
	s, n1 := binary.Uvarint(data[off:])
	if n1 <= 0 {
		return 0, 0, 0, 0, false
	}
	u, n2 := binary.Uvarint(data[off+n1:])
	if n2 <= 0 {
		return 0, 0, 0, 0, false
	}
	v, n3 := binary.Uvarint(data[off+n1+n2:])
	if n3 <= 0 {
		return 0, 0, 0, 0, false
	}
	p = off + n1 + n2 + n3
	// Compared as uint64, so a length too large for an int cannot wrap.
	rest := uint64(len(data) - p)
	if s > uint64(len(data)) || u > rest || v > rest-u {
		return 0, 0, 0, 0, false
	}
	return int(s), int(u), int(v), p, true
}

// seekRestart binary-searches the restart points for the last one whose key
// is < target (restart 0 when none is) and returns its index.
func (r *Reader) seekRestart(target []byte) (int, bool) {
	lo, hi := 0, r.numRestarts()-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		k, ok := r.restartKey(mid)
		if !ok {
			return 0, false
		}
		if keys.Compare(k, target) < 0 {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo, true
}

// SeekGE is the iterator-free point seek: it returns the first entry with
// key >= target in internal-key order, or ok == false when every key is
// smaller (err == nil) or the block is corrupt. The key is assembled in buf's
// backing array (a key that outgrows it moves to the heap) and value aliases
// the block. Everything lives in locals, so with a stack buffer a lookup
// allocates nothing.
func (r *Reader) SeekGE(target, buf []byte) (key, value []byte, ok bool, err error) {
	ri, found := r.seekRestart(target)
	if !found {
		return nil, nil, false, ErrCorrupt
	}
	data := r.data
	key = buf[:0]
	for off := r.restart(ri); off < len(data); {
		shared, unshared, vlen, p, sound := decodeEntry(data, off)
		if !sound || shared > len(key) {
			return nil, nil, false, ErrCorrupt
		}
		key = append(key[:shared], data[p:p+unshared]...)
		if len(key) < keys.TrailerLen {
			return nil, nil, false, ErrCorrupt
		}
		off = p + unshared + vlen
		if keys.Compare(key, target) >= 0 {
			return key, data[p+unshared : off], true, nil
		}
	}
	return nil, nil, false, nil
}

// Iter iterates the entries of one block. It holds its Reader by value and
// owns the buffer Key() is assembled in; Reset moves it to another block and
// keeps that buffer, so a table scan allocates per iterator, not per block.
type Iter struct {
	r      Reader
	off    int // offset of current entry
	next   int // offset just past current entry
	key    []byte
	value  []byte
	valid  bool
	err    error
	restIx int // restart index at or before the current entry
}

// NewIter returns an unpositioned iterator over the block.
func (r *Reader) NewIter() *Iter { return &Iter{r: *r} }

// Reset points the iterator at block r, unpositioned and with no error,
// reusing its key buffer.
func (it *Iter) Reset(r Reader) { *it = Iter{r: r, key: it.key[:0]} }

// decodeAt decodes the entry at offset off, using it.key as the shared
// prefix source, and advances the iterator state. Every key it exposes is a
// whole internal key: callers compare them with keys.Compare, which needs
// the trailer.
func (it *Iter) decodeAt(off int) bool {
	data := it.r.data
	if off >= len(data) {
		it.valid = false
		return false
	}
	shared, unshared, vlen, p, ok := decodeEntry(data, off)
	if !ok || shared > len(it.key) || shared+unshared < keys.TrailerLen {
		it.fail()
		return false
	}
	it.key = append(it.key[:shared], data[p:p+unshared]...)
	it.next = p + unshared + vlen
	it.value = data[p+unshared : it.next]
	it.off = off
	it.valid = true
	return true
}

func (it *Iter) fail() {
	it.valid = false
	it.err = ErrCorrupt
}

// Valid reports whether the iterator is positioned on an entry.
func (it *Iter) Valid() bool { return it.valid }

// Err returns the first corruption error encountered, if any.
func (it *Iter) Err() error { return it.err }

// Key returns the current full key. The slice is reused by Next/Seek calls.
func (it *Iter) Key() []byte { return it.key }

// Value returns the current value, aliasing the block's buffer.
func (it *Iter) Value() []byte { return it.value }

// First positions at the first entry.
func (it *Iter) First() {
	it.key = it.key[:0]
	it.restIx = 0
	it.decodeAt(0)
}

// Next advances to the following entry.
func (it *Iter) Next() {
	if !it.valid {
		return
	}
	if it.restIx+1 < it.r.numRestarts() && it.next >= it.r.restart(it.restIx+1) {
		it.restIx++
	}
	it.decodeAt(it.next)
}

// seekRestart positions at the last restart point whose key is < target
// (the first when none is).
func (it *Iter) seekRestart(target []byte) bool {
	ri, ok := it.r.seekRestart(target)
	if !ok {
		it.fail()
		return false
	}
	it.restIx = ri
	it.key = it.key[:0]
	return it.decodeAt(it.r.restart(ri))
}

// SeekGE positions at the first entry with key >= target in internal-key
// order.
func (it *Iter) SeekGE(target []byte) {
	if !it.seekRestart(target) {
		return
	}
	for it.valid && keys.Compare(it.key, target) < 0 {
		it.Next()
	}
}

// SeekLT positions at the last entry with key < target, or invalidates.
func (it *Iter) SeekLT(target []byte) {
	// Scan forward remembering the last entry < target. Blocks are small,
	// so the linear fallback after the restart search is acceptable.
	if !it.seekRestart(target) {
		return
	}
	if keys.Compare(it.key, target) >= 0 {
		it.valid = false
		return
	}
	for {
		prevOff := it.off
		prevRest := it.restIx
		it.Next()
		if !it.valid || keys.Compare(it.key, target) >= 0 {
			it.key = it.key[:0]
			it.restIx = prevRest
			// Re-decode from the restart to rebuild the prefix chain.
			it.replayTo(prevOff)
			return
		}
	}
}

// Last positions at the final entry.
func (it *Iter) Last() {
	it.restIx = it.r.numRestarts() - 1
	it.key = it.key[:0]
	if !it.decodeAt(it.r.restart(it.restIx)) {
		return
	}
	for it.next < len(it.r.data) {
		if !it.decodeAt(it.next) {
			return
		}
	}
}

// Prev moves to the previous entry by replaying from the nearest restart.
func (it *Iter) Prev() {
	if !it.valid {
		return
	}
	target := it.off
	if target == 0 {
		it.valid = false
		return
	}
	// Find restart strictly before the current entry.
	ri := it.restIx
	if it.r.restart(ri) >= target {
		ri--
		if ri < 0 {
			it.valid = false
			return
		}
	}
	it.restIx = ri
	it.key = it.key[:0]
	if !it.decodeAt(it.r.restart(ri)) {
		return
	}
	for it.next < target {
		if !it.decodeAt(it.next) {
			return
		}
		if it.restIx+1 < it.r.numRestarts() && it.off >= it.r.restart(it.restIx+1) {
			it.restIx++
		}
	}
}

// replayTo re-decodes entries from the current restart point up to and
// including the entry at offset target.
func (it *Iter) replayTo(target int) {
	if !it.decodeAt(it.r.restart(it.restIx)) {
		return
	}
	for it.off < target {
		if !it.decodeAt(it.next) {
			return
		}
	}
}

// restartKey returns the full key stored at restart index i, aliasing the
// block (restart entries always have shared == 0).
func (r *Reader) restartKey(i int) ([]byte, bool) {
	off := r.restart(i)
	if off >= len(r.data) {
		return nil, false
	}
	shared, unshared, _, p, ok := decodeEntry(r.data, off)
	if !ok || shared != 0 || unshared < keys.TrailerLen {
		return nil, false
	}
	return r.data[p : p+unshared], true
}
