// Package memtable implements the mutable in-memory write buffer of the LSM
// tree: a skiplist of internal keys plus size accounting used to trigger
// flushes.
package memtable

import (
	"bytes"
	"sync"

	"rocksmash/internal/arena"
	"rocksmash/internal/keys"
	"rocksmash/internal/skiplist"
)

// MemTable buffers recent writes. Add is safe for concurrent use (the
// commit pipeline applies group members' batches in parallel), as are Get
// and iterators.
type MemTable struct {
	list *skiplist.List

	// writers counts in-flight commit-pipeline appliers. The DB registers
	// writers under its rotation lock while the memtable is current, so by
	// the time a sealed memtable's flush calls WaitWriters no new
	// registrations can arrive and the wait is race-free.
	writers sync.WaitGroup
}

// New returns an empty memtable. Its arena takes no chunk before the first
// Add, so a memtable costs its entries, not its flush size.
func New() *MemTable {
	return &MemTable{list: skiplist.New(arena.New())}
}

// Add inserts an entry. For kind == keys.KindDelete, value is ignored. The
// internal key is built on the stack (as Get builds its seek key) and
// copied into the arena with the value and the skiplist node, so an Add
// allocates no Go object.
func (m *MemTable) Add(seq uint64, kind keys.Kind, ukey, value []byte) {
	var buf [keys.SeekBufLen]byte
	ikey := keys.MakeInternalKey(buf[:0], ukey, seq, kind)
	if kind == keys.KindDelete {
		value = nil
	}
	m.list.Insert(ikey, value)
}

// RegisterWriters records n appliers about to Add concurrently. Must only
// be called while the memtable is the DB's current one, under the lock that
// also guards sealing.
func (m *MemTable) RegisterWriters(n int) { m.writers.Add(n) }

// WriterDone marks one registered applier finished.
func (m *MemTable) WriterDone() { m.writers.Done() }

// WaitWriters blocks until every registered applier has finished. Flush
// calls this after the memtable is sealed (no new registrations possible)
// so it never snapshots a memtable mid-apply.
func (m *MemTable) WaitWriters() { m.writers.Wait() }

// Get looks up ukey at snapshot seq. Returns:
//
//	value, true,  true  — a live value was found
//	nil,   true,  false — a tombstone was found (key deleted)
//	nil,   false, _     — no entry for the key in this memtable
func (m *MemTable) Get(ukey []byte, seq uint64) (value []byte, found, live bool) {
	var buf [keys.SeekBufLen]byte
	return m.GetSeek(keys.MakeSeekKey(buf[:0], ukey, seq))
}

// GetSeek is Get for a caller that already holds the seek key
// (keys.MakeSeekKey of the user key and snapshot): a read that probes several
// memtables and tables builds it once. value aliases the memtable's arena.
func (m *MemTable) GetSeek(seek []byte) (value []byte, found, live bool) {
	it := m.list.NewIterator()
	it.SeekGE(seek)
	if !it.Valid() {
		return nil, false, false
	}
	ik := it.Key()
	if !bytes.Equal(keys.UserKey(ik), keys.UserKey(seek)) {
		return nil, false, false
	}
	_, kind := keys.DecodeTrailer(ik)
	if kind == keys.KindDelete {
		return nil, true, false
	}
	return it.Value(), true, true
}

// ApproximateSize returns the bytes of the entries' keys, trailers and
// values, used for flush triggering. The skiplist nodes around them are not
// counted, so a flush cuts where the entries alone reach the budget.
func (m *MemTable) ApproximateSize() int64 { return m.list.Size() }

// Len returns the number of entries.
func (m *MemTable) Len() int { return m.list.Len() }

// Empty reports whether the memtable has no entries.
func (m *MemTable) Empty() bool { return m.list.Empty() }

// InitIterator makes *it an unpositioned iterator over internal keys in
// sorted order; the caller holds the iterator by value.
func (m *MemTable) InitIterator(it *skiplist.Iterator) { m.list.InitIterator(it) }
