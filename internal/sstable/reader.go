package sstable

import (
	"bytes"
	"fmt"
	"io"

	"rocksmash/internal/block"
	"rocksmash/internal/bloom"
	"rocksmash/internal/keys"
	"rocksmash/internal/readprof"
	"rocksmash/internal/storage"
)

// FetchFunc retrieves and verifies the body of the data block at h in file
// fileNum, and returns it as the block cache holds it: the body and the
// cell its seek table lives in (block.Cell), or a nil cell when no cache
// holds the block. The DB layers its caches (in-memory block cache,
// persistent cache) behind this hook; the default implementation reads the
// table file directly. prof, when non-nil, is the request-scoped read
// profile the implementation attributes the block read to (source tier,
// bytes, nanos). Point reads search the block through its cell; iterators
// read the body only.
type FetchFunc func(fileNum uint64, h Handle, prof *readprof.Profile) ([]byte, *block.Cell, error)

// Reader provides lookups and scans over one table. Per the paper's design
// all table *metadata* — footer, index block, bloom filter, properties — is
// loaded eagerly at open time and pinned in memory, so only data-block
// reads ever touch the (possibly cloud-resident) file body. Every lookup and
// scan searches the index block through the seek table built at open.
type Reader struct {
	fileNum   uint64
	f         storage.Reader
	props     Properties
	indexBody []byte
	index     block.SeekTable // over indexBody, Whole: seeks need no buffer and do not fail
	filter    bloom.Filter
	fetch     FetchFunc // nil reads data blocks straight from f
	metaOff   uint64
}

// TailReader overlays an in-memory copy of a table's metadata tail on top
// of the (possibly remote) data file: reads at or beyond tailOff are served
// from memory, so opening the table performs no remote I/O when the tail
// was cached locally (the store's "metadata stays local" rule). Open over a
// TailReader keeps the footer's blocks as sub-slices of the tail, so the
// tail must not change once the TailReader is made.
type TailReader struct {
	f       storage.Reader
	tailOff int64
	tail    []byte
}

// NewTailReader wraps f with the metadata tail starting at tailOff.
func NewTailReader(f storage.Reader, tailOff int64, tail []byte) *TailReader {
	return &TailReader{f: f, tailOff: tailOff, tail: tail}
}

// ReadAt implements storage.Reader.
func (t *TailReader) ReadAt(p []byte, off int64) (int, error) {
	if off >= t.tailOff {
		i := off - t.tailOff
		if i >= int64(len(t.tail)) {
			return 0, io.EOF
		}
		n := copy(p, t.tail[i:])
		if n < len(p) {
			return n, io.EOF
		}
		return n, nil
	}
	// Reads never straddle the boundary in practice (blocks are either
	// data or metadata), but handle it by splitting.
	if off+int64(len(p)) > t.tailOff {
		k := t.tailOff - off
		n1, err := t.f.ReadAt(p[:k], off)
		if err != nil && err != io.EOF {
			return n1, err
		}
		n2, err := t.ReadAt(p[k:], t.tailOff)
		return n1 + n2, err
	}
	return t.f.ReadAt(p, off)
}

// image returns the n bytes at off as a sub-slice of the tail, capped at n,
// if they lie wholly inside it.
func (t *TailReader) image(off, n int64) ([]byte, bool) {
	i := off - t.tailOff
	if i < 0 || n < 0 || i > int64(len(t.tail))-n {
		return nil, false
	}
	return t.tail[i : i+n : i+n], true
}

// readMetaBlock reads and verifies the metadata block at h. Over a
// TailReader whose tail holds the block, the block is checked in place and
// returned as a sub-slice of the tail, which the Reader keeps; any other
// reader gets a fresh copy (ReadRawBlock).
func readMetaBlock(f storage.Reader, h Handle) ([]byte, error) {
	if t, ok := f.(*TailReader); ok {
		if raw, ok := t.image(int64(h.Offset), int64(h.Length+blockTrailerLen)); ok {
			return VerifyBlock(raw)
		}
	}
	return ReadRawBlock(f, h)
}

// Size implements storage.Reader.
func (t *TailReader) Size() int64 { return t.tailOff + int64(len(t.tail)) }

// Close implements storage.Reader.
func (t *TailReader) Close() error { return t.f.Close() }

// Open reads the table metadata from f. The Reader takes ownership of f and
// closes it via Close.
func Open(f storage.Reader, fileNum uint64) (*Reader, error) {
	ftr, err := readFooter(f)
	if err != nil {
		return nil, err
	}
	r := &Reader{fileNum: fileNum, f: f, metaOff: ftr.tailOffset()}

	if r.indexBody, err = readMetaBlock(f, ftr.index); err != nil {
		return nil, err
	}
	if r.index, err = readIndex(r.indexBody); err != nil {
		return nil, err
	}
	if ftr.filter.Length > 0 {
		fb, err := readMetaBlock(f, ftr.filter)
		if err != nil {
			return nil, err
		}
		r.filter = bloom.Filter(fb)
	}
	pb, err := readMetaBlock(f, ftr.props)
	if err != nil {
		return nil, err
	}
	if r.props, err = decodeProperties(pb); err != nil {
		return nil, err
	}
	return r, nil
}

// readIndex builds the seek table a table's index block is searched
// through, failing with ErrCorrupt unless the block is an index as Builder
// writes it: a Whole table (separators strictly increasing, none sharing
// bytes) with a handle per entry. It allocates the entry array only.
func readIndex(body []byte) (block.SeekTable, error) {
	t, err := block.NewSeekTable(body)
	if err != nil || !t.Whole() {
		return block.SeekTable{}, fmt.Errorf("%w: index block", ErrCorrupt)
	}
	for i := 0; i < t.Len(); i++ {
		if _, err := DecodeHandle(t.Value(i)); err != nil {
			return block.SeekTable{}, fmt.Errorf("%w: index block: entry %d: bad block handle", ErrCorrupt, i)
		}
	}
	return t, nil
}

// DataBlocks returns how many data blocks the table holds.
func (r *Reader) DataBlocks() int { return r.index.Len() }

// DataHandle returns the handle of data block i (0 ≤ i < DataBlocks, in
// file order), read from the pinned index, which Open checked.
func (r *Reader) DataHandle(i int) Handle {
	h, _ := DecodeHandle(r.index.Value(i))
	return h
}

// read fetches data block h through fetch, or straight from the file when
// no hook is interposed.
func (r *Reader) read(fetch FetchFunc, h Handle, prof *readprof.Profile) ([]byte, *block.Cell, error) {
	if fetch == nil {
		body, err := ReadRawBlock(r.f, h)
		return body, nil, err
	}
	return fetch(r.fileNum, h, prof)
}

// SetFetch interposes fn on all data-block reads.
func (r *Reader) SetFetch(fn FetchFunc) { r.fetch = fn }

// File exposes the underlying object handle so an interposed FetchFunc can
// perform the raw read on a cache miss.
func (r *Reader) File() storage.Reader { return r.f }

// FileNum returns the table's file number.
func (r *Reader) FileNum() uint64 { return r.fileNum }

// Properties returns the table statistics.
func (r *Reader) Properties() Properties { return r.props }

// MetadataBytes reports the memory the table's pinned metadata holds (bloom
// filter, index block and its seek table), used for the paper's
// metadata-overhead accounting.
func (r *Reader) MetadataBytes() int { return len(r.filter) + cap(r.indexBody) + int(r.index.Bytes()) }

// MetaOffset returns the file offset where the metadata tail (filter,
// index, properties, footer) begins.
func (r *Reader) MetaOffset() uint64 { return r.metaOff }

// DataHandles returns the handles of all data blocks in file order; the
// persistent cache uses this for compaction-aware region layout.
func (r *Reader) DataHandles() []Handle {
	hs := make([]Handle, r.index.Len())
	for i := range hs {
		hs[i] = r.DataHandle(i)
	}
	return hs
}

// IndexEntry pairs one data block's handle with its index separator (an
// internal key upper-bounding the block's entries).
type IndexEntry struct {
	Sep []byte
	H   Handle
}

// IndexEntries returns every data block's separator and handle in file
// order, read from the pinned index block — no data I/O. Each separator is
// a copy the caller may keep: the sorted-view builder concatenates these
// across a level's members and holds them as they are.
func (r *Reader) IndexEntries() []IndexEntry {
	br, _ := block.Parse(r.indexBody) // Open parsed it
	es := make([]IndexEntry, 0, r.index.Len())
	it := br.NewIter()
	for it.First(); it.Valid(); it.Next() {
		es = append(es, IndexEntry{Sep: bytes.Clone(it.Key()), H: r.DataHandle(len(es))})
	}
	return es
}

// MayContain consults the bloom filter for the user key whose bloom.Hash
// is hash, recording the consultation (and a true-negative rejection) on
// prof when it is non-nil. Tables without filters always may. The filter
// is immutable memory the reader pins from open, still readable once the
// reader is closed: a caller may consult it before it references the table.
func (r *Reader) MayContain(hash uint32, prof *readprof.Profile) bool {
	if r.filter == nil {
		return true
	}
	if prof != nil {
		prof.BloomChecked++
	}
	if r.filter.MayContain(hash) {
		return true
	}
	if prof != nil {
		prof.BloomNegative++
	}
	return false
}

// Get finds the newest entry for ukey visible at snapshot seq.
// Return contract matches memtable.Get: (value, found, live).
func (r *Reader) Get(ukey []byte, seq uint64) (value []byte, found, live bool, err error) {
	var buf [keys.SeekBufLen]byte
	return r.GetSeek(keys.MakeSeekKey(buf[:0], ukey, seq), nil)
}

// GetSeek is Get for a caller that already holds the seek key
// (keys.MakeSeekKey of the user key and snapshot): a read that probes several
// tables builds it once. The index search assembles no key and the
// data-block lookup is a point seek over a stack buffer, so the only
// allocation is the returned copy of a live value. With
// read-path attribution: when prof is non-nil it records the bloom-filter
// consultation (and a true-negative rejection) and threads prof to the
// data-block fetch so the block's source tier is attributed to this request.
func (r *Reader) GetSeek(seek []byte, prof *readprof.Profile) (value []byte, found, live bool, err error) {
	if !r.MayContain(bloom.Hash(keys.UserKey(seek)), prof) {
		return nil, false, false, nil
	}
	return r.Lookup(seek, prof)
}

// Lookup is GetSeek past the bloom filter, for a caller that has consulted
// it (MayContain). The data block is searched through the cell its fetch
// returns: by its seek table when a cache holds it, in its raw bytes when
// not.
func (r *Reader) Lookup(seek []byte, prof *readprof.Profile) (value []byte, found, live bool, err error) {
	_, _, hv, ok, _ := r.index.SeekGE(seek, nil)
	if !ok {
		return nil, false, false, nil
	}
	h, _ := DecodeHandle(hv) // Open checked every handle
	body, cell, err := r.read(r.fetch, h, prof)
	if err != nil {
		return nil, false, false, err
	}
	var buf [keys.SeekBufLen]byte
	key, v, ok, err := cell.SeekGE(body, seek, buf[:0])
	if !ok {
		return nil, false, false, err
	}
	if !bytes.Equal(keys.UserKey(key), keys.UserKey(seek)) {
		return nil, false, false, nil
	}
	_, kind := keys.DecodeTrailer(key)
	if kind == keys.KindDelete {
		return nil, true, false, nil
	}
	value = make([]byte, len(v))
	copy(value, v)
	return value, true, true, nil
}

// Close releases the underlying file handle.
func (r *Reader) Close() error {
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	r.f = nil
	return err
}

// Iter is a bidirectional iterator over the table's internal keys. It moves
// an ordinal over the index's seek table and holds its data block iterator
// by value: moving to the next block re-points the data iterator and reuses
// its key buffer, so a scan allocates once per iterator, not per block.
type Iter struct {
	r      *Reader
	pos    int // the index entry of the block data is on, or was last loaded from
	data   block.Iter
	loaded bool // data is on block pos
	fetch  FetchFunc
	prof   *readprof.Profile
	err    error
}

// SetProfile attributes the iterator's data-block reads to prof (nil
// detaches). The profile must outlive the iterator's use.
func (it *Iter) SetProfile(p *readprof.Profile) { it.prof = p }

// NewIter returns an unpositioned iterator.
func (r *Reader) NewIter() *Iter { return r.NewIterWithFetch(r.fetch) }

// InitIter makes *it an unpositioned iterator over the table, for a caller
// that holds the iterator by value inside a larger object. Data block keys
// are assembled in keyBuf's backing array until one outgrows it.
func (r *Reader) InitIter(it *Iter, keyBuf []byte) {
	*it = Iter{r: r, fetch: r.fetch}
	it.data.SetKeyBuffer(keyBuf)
}

// NewIterWithFetch returns an iterator whose data-block reads use fetch
// instead of the reader's default path. Compaction uses this to bypass
// cache admission (scan resistance).
func (r *Reader) NewIterWithFetch(fetch FetchFunc) *Iter {
	return &Iter{r: r, fetch: fetch}
}

// loadData points the data iterator at block pos, leaving it unloaded
// when pos is off either end of the index.
func (it *Iter) loadData(pos int) bool {
	it.pos, it.loaded = pos, false
	if pos < 0 || pos >= it.r.index.Len() {
		return false
	}
	body, _, err := it.r.read(it.fetch, it.r.DataHandle(pos), it.prof)
	if err != nil {
		it.err = err
		return false
	}
	br, err := block.Parse(body)
	if err != nil {
		it.err = err
		return false
	}
	it.data.Reset(br)
	it.loaded = true
	return true
}

// First positions at the first entry.
func (it *Iter) First() {
	if it.loadData(0) {
		it.data.First()
		it.skipEmptyForward()
	}
}

// SeekGE positions at the first entry with internal key >= target. Only
// the first block whose separator is >= target can hold it.
func (it *Iter) SeekGE(target []byte) {
	i, _, _, _, _ := it.r.index.SeekGE(target, nil)
	if it.loadData(i) {
		it.data.SeekGE(target)
		it.skipEmptyForward()
	}
}

// Next advances one entry.
func (it *Iter) Next() {
	if !it.loaded {
		return
	}
	it.data.Next()
	it.skipEmptyForward()
}

// Last positions at the final entry.
func (it *Iter) Last() {
	if it.loadData(it.r.index.Len() - 1) {
		it.data.Last()
		it.skipEmptyBackward()
	}
}

// SeekLT positions at the last entry with internal key < target.
func (it *Iter) SeekLT(target []byte) {
	// The block whose separator is >= target may still hold entries
	// < target; start there and walk backward as needed. A target beyond
	// every separator is beyond every key: start from the last block.
	i, _, _, _, _ := it.r.index.SeekGE(target, nil)
	if it.loadData(min(i, it.r.index.Len()-1)) {
		it.data.SeekLT(target)
		it.skipEmptyBackward()
	}
}

// Prev moves one entry backward.
func (it *Iter) Prev() {
	if !it.loaded {
		return
	}
	it.prevEntry()
}

func (it *Iter) prevEntry() {
	it.data.Prev()
	it.skipEmptyBackward()
}

func (it *Iter) skipEmptyForward() {
	for it.loaded && !it.data.Valid() {
		if it.data.Err() != nil {
			it.err = it.data.Err()
			it.loaded = false
			return
		}
		if !it.loadData(it.pos + 1) {
			return
		}
		it.data.First()
	}
}

func (it *Iter) skipEmptyBackward() {
	for it.loaded && !it.data.Valid() {
		if it.data.Err() != nil {
			it.err = it.data.Err()
			it.loaded = false
			return
		}
		if !it.loadData(it.pos - 1) {
			return
		}
		it.data.Last()
	}
}

// Valid reports whether the iterator is positioned on an entry.
func (it *Iter) Valid() bool { return it.loaded && it.data.Valid() }

// Key returns the current internal key.
func (it *Iter) Key() []byte { return it.data.Key() }

// Value returns the current value.
func (it *Iter) Value() []byte { return it.data.Value() }

// Err returns the first error encountered.
func (it *Iter) Err() error { return it.err }
