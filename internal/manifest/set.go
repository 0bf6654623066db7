package manifest

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"rocksmash/internal/storage"
	"rocksmash/internal/wal"
)

const currentName = "CURRENT"

func manifestName(num uint64) string { return fmt.Sprintf("MANIFEST-%06d", num) }

// Set owns the current Version and the MANIFEST log that makes metadata
// changes durable. It always lives on the local tier.
type Set struct {
	be storage.Backend

	// mu guards the manifest log and the allocation and sequence cursors. It
	// is held across the log append and fsync of an edit.
	mu          sync.Mutex
	nextFileNum uint64
	lastSeq     uint64
	flushedSeq  uint64
	manifestNum uint64
	w           storage.Writer
	rw          *wal.RecordWriter
	editsInLog  int

	// stride/strideOff restrict allocations to numbers ≡ strideOff (mod
	// stride). Keyspace shards stripe one global file-number space this way
	// (shard i allocates i, i+N, i+2N, ...) so file numbers stay unique
	// across shards and the shared block/table/persistent caches need no
	// per-shard key salting. stride 0 or 1 means dense allocation.
	stride    uint64
	strideOff uint64

	// current is replaced under mu and read by anyone; taking a reference on
	// it (lifetime.go) is a compare-and-swap on the version's count, so a
	// reader waits behind no lock, least of all mu and an edit's fsync. refMu
	// guards the links of the list of live versions, which only a version's
	// installation and its death touch; it is never held across I/O.
	current    atomic.Pointer[Version]
	refMu      sync.Mutex
	onObsolete func([]Obsolete)
}

func newSet(be storage.Backend) *Set {
	v := NewVersion()
	v.refs.Store(1) // the set's own reference on the current version
	s := &Set{be: be, nextFileNum: 1}
	s.current.Store(v)
	return s
}

// Open recovers the version state from be, or initializes a fresh store.
func Open(be storage.Backend) (*Set, error) {
	s := newSet(be)
	cur, err := be.ReadAll(currentName)
	switch {
	case errors.Is(err, storage.ErrNotFound):
		return s, s.createNewManifest()
	case err != nil:
		return nil, err
	}
	name := string(cur)
	data, err := be.ReadAll(name)
	if err != nil {
		return nil, fmt.Errorf("manifest: reading %s: %w", name, err)
	}
	if _, err := fmt.Sscanf(name, "MANIFEST-%06d", &s.manifestNum); err != nil {
		return nil, fmt.Errorf("manifest: bad CURRENT contents %q", name)
	}
	rr := wal.NewRecordReader(data)
	for {
		rec, err := rr.Next()
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			break
		}
		if err != nil {
			return nil, err
		}
		edit, err := DecodeEdit(rec)
		if err != nil {
			return nil, err
		}
		if _, err := s.applyLocked(edit); err != nil {
			return nil, err
		}
	}
	// Continue appending to a fresh manifest so a torn tail in the old one
	// cannot poison future edits.
	return s, s.createNewManifest()
}

// WriteSnapshot writes a standalone manifest describing v into be (a fresh
// MANIFEST log plus CURRENT), so that a copied directory opens to exactly
// this version. Used by the backup/checkpoint path.
func WriteSnapshot(be storage.Backend, v *Version, nextFileNum, lastSeq, flushedSeq uint64) error {
	name := manifestName(1)
	w, err := be.Create(name)
	if err != nil {
		return err
	}
	rw := wal.NewRecordWriter(w)
	snap := &VersionEdit{
		HasNextFileNum: true, NextFileNum: nextFileNum,
		HasLastSeq: true, LastSeq: lastSeq,
		HasFlushedSeq: true, FlushedSeq: flushedSeq,
	}
	v.AllFiles(func(level int, f *FileMetadata) {
		snap.Added = append(snap.Added, AddedFile{Level: level, Meta: *f})
	})
	if err := rw.Append(snap.Encode()); err != nil {
		w.Close()
		return err
	}
	if err := w.Sync(); err != nil {
		w.Close()
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	return storage.WriteObject(be, currentName, []byte(name))
}

// Peek reads the current version state without rotating the manifest or
// opening it for append — a read-only inspection used by tooling.
func Peek(be storage.Backend) (v *Version, nextFileNum, lastSeq, flushedSeq uint64, err error) {
	s := newSet(be)
	cur, err := be.ReadAll(currentName)
	if errors.Is(err, storage.ErrNotFound) {
		return s.current.Load(), 1, 0, 0, nil
	}
	if err != nil {
		return nil, 0, 0, 0, err
	}
	data, err := be.ReadAll(string(cur))
	if err != nil {
		return nil, 0, 0, 0, err
	}
	rr := wal.NewRecordReader(data)
	for {
		rec, rerr := rr.Next()
		if rerr == io.EOF || rerr == io.ErrUnexpectedEOF {
			break
		}
		if rerr != nil {
			return nil, 0, 0, 0, rerr
		}
		edit, derr := DecodeEdit(rec)
		if derr != nil {
			return nil, 0, 0, 0, derr
		}
		if _, aerr := s.applyLocked(edit); aerr != nil {
			return nil, 0, 0, 0, aerr
		}
	}
	return s.current.Load(), s.nextFileNum, s.lastSeq, s.flushedSeq, nil
}

// createNewManifest writes a full snapshot of current state into a new
// manifest log and atomically repoints CURRENT.
func (s *Set) createNewManifest() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w != nil {
		s.w.Close()
		s.w, s.rw = nil, nil
	}
	num := s.manifestNum + 1
	name := manifestName(num)
	w, err := s.be.Create(name)
	if err != nil {
		return err
	}
	rw := wal.NewRecordWriter(w)
	snap := &VersionEdit{
		HasNextFileNum: true, NextFileNum: s.nextFileNum,
		HasLastSeq: true, LastSeq: s.lastSeq,
		HasFlushedSeq: true, FlushedSeq: s.flushedSeq,
	}
	s.current.Load().AllFiles(func(level int, f *FileMetadata) {
		snap.Added = append(snap.Added, AddedFile{Level: level, Meta: *f})
	})
	if err := rw.Append(snap.Encode()); err != nil {
		w.Close()
		return err
	}
	if err := w.Sync(); err != nil {
		w.Close()
		return err
	}
	// Point CURRENT at the new manifest via atomic rename.
	tmp := currentName + ".tmp"
	if err := storage.WriteObject(s.be, tmp, []byte(name)); err != nil {
		w.Close()
		return err
	}
	if err := s.be.Rename(tmp, currentName); err != nil {
		w.Close()
		return err
	}
	old := s.manifestNum
	s.manifestNum = num
	s.w, s.rw = w, rw
	s.editsInLog = 0
	if old > 0 {
		_ = s.be.Delete(manifestName(old))
	}
	return nil
}

// applyLocked folds an edit into the in-memory state and returns the death
// of the version it replaced, if any, for the caller to report.
func (s *Set) applyLocked(e *VersionEdit) (death, error) {
	nv, err := s.current.Load().Apply(e)
	if err != nil {
		return death{}, err
	}
	d := s.install(nv)
	if e.HasNextFileNum && e.NextFileNum > s.nextFileNum {
		s.nextFileNum = e.NextFileNum
		s.alignLocked()
	}
	if e.HasLastSeq && e.LastSeq > s.lastSeq {
		s.lastSeq = e.LastSeq
	}
	if e.HasFlushedSeq && e.FlushedSeq > s.flushedSeq {
		s.flushedSeq = e.FlushedSeq
	}
	return d, nil
}

// LogAndApply persists the edit and installs the resulting version.
func (s *Set) LogAndApply(e *VersionEdit) error {
	s.mu.Lock()
	d, err := s.logAndApplyLocked(e)
	rotate := err == nil && s.editsInLog >= 1000
	s.mu.Unlock()
	s.reportObsolete(d)
	if rotate {
		return s.createNewManifest()
	}
	return err
}

func (s *Set) logAndApplyLocked(e *VersionEdit) (death, error) {
	// Stamp bookkeeping fields so recovery reproduces them.
	if !e.HasNextFileNum {
		e.HasNextFileNum, e.NextFileNum = true, s.nextFileNum
	}
	if !e.HasLastSeq {
		e.HasLastSeq, e.LastSeq = true, s.lastSeq
	}
	if err := s.rw.Append(e.Encode()); err != nil {
		return death{}, err
	}
	if err := s.w.Sync(); err != nil {
		return death{}, err
	}
	d, err := s.applyLocked(e)
	if err == nil {
		s.editsInLog++
	}
	return d, err
}

// NewFileNum allocates the next file number (on this set's stride when
// SetStride was called).
func (s *Set) NewFileNum() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.nextFileNum
	if s.stride > 1 {
		s.nextFileNum += s.stride
	} else {
		s.nextFileNum++
	}
	return n
}

// SetStride restricts future allocations to file numbers ≡ offset (mod
// stride), aligning the allocation cursor up to the stride if needed.
// Called once right after Open, before any allocation. stride ≤ 1 restores
// dense allocation.
func (s *Set) SetStride(stride, offset uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stride, s.strideOff = stride, offset
	s.alignLocked()
}

// alignLocked advances nextFileNum to the stride's next slot; a freshly
// initialized or recovered cursor starts dense and must be snapped onto
// this set's residue class before the first allocation.
func (s *Set) alignLocked() {
	if s.stride <= 1 {
		return
	}
	if rem := s.nextFileNum % s.stride; rem != s.strideOff {
		s.nextFileNum += (s.strideOff + s.stride - rem) % s.stride
	}
}

// PeekFileNum returns the next file number without allocating it.
func (s *Set) PeekFileNum() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextFileNum
}

// LastSeq returns the newest committed sequence number known to the
// manifest (recovery raises it further from the WAL).
func (s *Set) LastSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastSeq
}

// SetLastSeq raises the recorded last sequence number.
func (s *Set) SetLastSeq(seq uint64) {
	s.mu.Lock()
	if seq > s.lastSeq {
		s.lastSeq = seq
	}
	s.mu.Unlock()
}

// FlushedSeq returns the durable-in-tables watermark.
func (s *Set) FlushedSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushedSeq
}

// Close releases the manifest log handle.
func (s *Set) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w == nil {
		return nil
	}
	err := s.w.Close()
	s.w, s.rw = nil, nil
	return err
}
