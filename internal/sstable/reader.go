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
// fileNum. The DB layers its caches (in-memory block cache, persistent
// cache) behind this hook; the default implementation reads the table file
// directly. prof, when non-nil, is the request-scoped read profile the
// implementation attributes the block read to (source tier, bytes, nanos).
type FetchFunc func(fileNum uint64, h Handle, prof *readprof.Profile) ([]byte, error)

// Reader provides lookups and scans over one table. Per the paper's design
// all table *metadata* — footer, index block, bloom filter, properties — is
// loaded eagerly at open time and pinned in memory, so only data-block
// reads ever touch the (possibly cloud-resident) file body.
type Reader struct {
	fileNum uint64
	f       storage.Reader
	props   Properties
	index   *block.Reader
	filter  bloom.Filter
	fetch   FetchFunc
}

// TailReader overlays an in-memory copy of a table's metadata tail on top
// of the (possibly remote) data file: reads at or beyond tailOff are served
// from memory, so opening the table performs no remote I/O when the tail
// was cached locally (the store's "metadata stays local" rule).
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

// Size implements storage.Reader.
func (t *TailReader) Size() int64 { return t.tailOff + int64(len(t.tail)) }

// Close implements storage.Reader.
func (t *TailReader) Close() error { return t.f.Close() }

// Open reads the table metadata from f. The Reader takes ownership of f and
// closes it via Close.
func Open(f storage.Reader, fileNum uint64) (*Reader, error) {
	size := f.Size()
	if size < footerLen {
		return nil, fmt.Errorf("%w: file too small (%d bytes)", ErrCorrupt, size)
	}
	fbuf := make([]byte, footerLen)
	if _, err := f.ReadAt(fbuf, size-footerLen); err != nil && err != io.EOF {
		return nil, err
	}
	ftr, err := decodeFooter(fbuf)
	if err != nil {
		return nil, err
	}
	r := &Reader{fileNum: fileNum, f: f}
	r.fetch = r.readDirect

	idxBody, err := ReadRawBlock(f, ftr.index)
	if err != nil {
		return nil, err
	}
	if r.index, err = block.NewReader(idxBody); err != nil {
		return nil, err
	}
	if ftr.filter.Length > 0 {
		fb, err := ReadRawBlock(f, ftr.filter)
		if err != nil {
			return nil, err
		}
		r.filter = bloom.Filter(fb)
	}
	pb, err := ReadRawBlock(f, ftr.props)
	if err != nil {
		return nil, err
	}
	if r.props, err = decodeProperties(pb); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *Reader) readDirect(_ uint64, h Handle, _ *readprof.Profile) ([]byte, error) {
	return ReadRawBlock(r.f, h)
}

// SetFetch interposes fn on all data-block reads.
func (r *Reader) SetFetch(fn FetchFunc) { r.fetch = fn }

// Fetch reads the data block at h through the interposed fetch path,
// attributing it on prof.
func (r *Reader) Fetch(h Handle, prof *readprof.Profile) ([]byte, error) {
	return r.fetch(r.fileNum, h, prof)
}

// File exposes the underlying object handle so an interposed FetchFunc can
// perform the raw read on a cache miss.
func (r *Reader) File() storage.Reader { return r.f }

// FileNum returns the table's file number.
func (r *Reader) FileNum() uint64 { return r.fileNum }

// Properties returns the table statistics.
func (r *Reader) Properties() Properties { return r.props }

// MetadataBytes reports the in-memory footprint of the pinned metadata
// (index + filter), used for the paper's metadata-overhead accounting.
func (r *Reader) MetadataBytes() int {
	n := len(r.filter)
	// The index reader retains its body slice.
	it := r.index.NewIter()
	it.First()
	// Approximate: count the raw index entries length via iteration once.
	for it.Valid() {
		n += len(it.Key()) + len(it.Value())
		it.Next()
	}
	return n
}

// DataHandles returns the handles of all data blocks in file order; the
// persistent cache uses this for compaction-aware region layout.
func (r *Reader) DataHandles() ([]Handle, error) {
	var hs []Handle
	it := r.index.NewIter()
	for it.First(); it.Valid(); it.Next() {
		h, err := DecodeHandle(it.Value())
		if err != nil {
			return nil, err
		}
		hs = append(hs, h)
	}
	if it.Err() != nil {
		return nil, it.Err()
	}
	return hs, nil
}

// IndexEntry pairs one data block's handle with its index separator (an
// internal key upper-bounding the block's entries).
type IndexEntry struct {
	Sep []byte
	H   Handle
}

// IndexEntries returns every data block's separator and handle in file
// order, decoded from the pinned index block — no data I/O. The sorted-view
// builder concatenates these across a level's members.
func (r *Reader) IndexEntries() ([]IndexEntry, error) {
	var es []IndexEntry
	it := r.index.NewIter()
	for it.First(); it.Valid(); it.Next() {
		h, err := DecodeHandle(it.Value())
		if err != nil {
			return nil, err
		}
		es = append(es, IndexEntry{Sep: append([]byte(nil), it.Key()...), H: h})
	}
	if it.Err() != nil {
		return nil, it.Err()
	}
	return es, nil
}

// MayContain consults the bloom filter for ukey. Tables without filters
// always return true.
func (r *Reader) MayContain(ukey []byte) bool {
	if r.filter == nil {
		return true
	}
	return r.filter.MayContainKey(ukey)
}

// Get finds the newest entry for ukey visible at snapshot seq.
// Return contract matches memtable.Get: (value, found, live).
func (r *Reader) Get(ukey []byte, seq uint64) (value []byte, found, live bool, err error) {
	var buf [keys.SeekBufLen]byte
	return r.GetSeek(keys.MakeSeekKey(buf[:0], ukey, seq), nil)
}

// GetSeek is Get for a caller that already holds the seek key
// (keys.MakeSeekKey of the user key and snapshot): a read that probes several
// tables builds it once. Both block lookups are point seeks over a stack
// buffer, so the only allocation is the returned copy of a live value. With
// read-path attribution: when prof is non-nil it records the bloom-filter
// consultation (and a true-negative rejection) and threads prof to the
// data-block fetch so the block's source tier is attributed to this request.
func (r *Reader) GetSeek(seek []byte, prof *readprof.Profile) (value []byte, found, live bool, err error) {
	ukey := keys.UserKey(seek)
	if r.filter != nil {
		if prof != nil {
			prof.BloomChecked++
		}
		if !r.filter.MayContainKey(ukey) {
			if prof != nil {
				prof.BloomNegative++
			}
			return nil, false, false, nil
		}
	}
	var buf [keys.SeekBufLen]byte
	_, hv, ok, err := r.index.SeekGE(seek, buf[:0])
	if !ok {
		return nil, false, false, err
	}
	h, err := DecodeHandle(hv)
	if err != nil {
		return nil, false, false, err
	}
	body, err := r.fetch(r.fileNum, h, prof)
	if err != nil {
		return nil, false, false, err
	}
	br, err := block.Parse(body)
	if err != nil {
		return nil, false, false, err
	}
	key, v, ok, err := br.SeekGE(seek, buf[:0])
	if !ok {
		return nil, false, false, err
	}
	if !bytes.Equal(keys.UserKey(key), ukey) {
		return nil, false, false, nil
	}
	_, kind := keys.DecodeTrailer(key)
	if kind == keys.KindDelete {
		return nil, true, false, nil
	}
	return append([]byte(nil), v...), true, true, nil
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

// Iter is a bidirectional iterator over the table's internal keys. It holds
// its index and data block iterators by value: moving to the next block
// re-points the data iterator and reuses its key buffer, so a scan allocates
// once per iterator, not per block.
type Iter struct {
	r      *Reader
	idx    block.Iter
	data   block.Iter
	loaded bool // data is on the block idx points at
	fetch  FetchFunc
	prof   *readprof.Profile
	err    error
}

// SetProfile attributes the iterator's data-block reads to prof (nil
// detaches). The profile must outlive the iterator's use.
func (it *Iter) SetProfile(p *readprof.Profile) { it.prof = p }

// NewIter returns an unpositioned iterator.
func (r *Reader) NewIter() *Iter { return r.NewIterWithFetch(r.fetch) }

// NewIterWithFetch returns an iterator whose data-block reads use fetch
// instead of the reader's default path. Compaction uses this to bypass
// cache admission (scan resistance).
func (r *Reader) NewIterWithFetch(fetch FetchFunc) *Iter {
	it := &Iter{r: r, fetch: fetch}
	it.idx.Reset(*r.index)
	return it
}

// loadData points the data iterator at the block idx is on.
func (it *Iter) loadData() bool {
	it.loaded = false
	if !it.idx.Valid() {
		return false
	}
	h, err := DecodeHandle(it.idx.Value())
	if err != nil {
		it.err = err
		return false
	}
	body, err := it.fetch(it.r.fileNum, h, it.prof)
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
	it.idx.First()
	if it.loadData() {
		it.data.First()
		it.skipEmptyForward()
	}
}

// SeekGE positions at the first entry with internal key >= target.
func (it *Iter) SeekGE(target []byte) {
	it.idx.SeekGE(target)
	if it.loadData() {
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
	it.idx.Last()
	if it.loadData() {
		it.data.Last()
		it.skipEmptyBackward()
	}
}

// SeekLT positions at the last entry with internal key < target.
func (it *Iter) SeekLT(target []byte) {
	// The block whose separator is >= target may still hold entries
	// < target; start there and walk backward as needed.
	it.idx.SeekGE(target)
	if !it.idx.Valid() {
		// target is beyond every separator: start from the last block.
		it.Last()
		if it.Valid() && keys.Compare(it.Key(), target) >= 0 {
			it.prevEntry()
		}
		return
	}
	if !it.loadData() {
		return
	}
	it.data.SeekLT(target)
	it.skipEmptyBackward()
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
		it.idx.Next()
		if !it.loadData() {
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
		it.idx.Prev()
		if !it.loadData() {
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
func (it *Iter) Err() error {
	if it.err != nil {
		return it.err
	}
	return it.idx.Err()
}
