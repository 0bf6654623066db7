package wal

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"rocksmash/internal/storage"
)

// SegmentMeta is the extended per-segment metadata the eWAL maintains in a
// side index. MinSeq/MaxSeq bound the sequence numbers of the batches the
// segment holds, letting recovery skip segments entirely covered by flushed
// SSTables without reading them.
type SegmentMeta struct {
	Num    uint64 `json:"num"`
	MinSeq uint64 `json:"min_seq"`
	MaxSeq uint64 `json:"max_seq"` // 0 while the segment is still active
	Closed bool   `json:"closed"`
	Bytes  int64  `json:"bytes"`
	// Spilled marks a segment created directly on the backup backend
	// because the local tier could not accept it (disk full / EIO). Its
	// only copy lives on the backup tier until DeleteObsolete retires it.
	Spilled bool `json:"spilled,omitempty"`
	// BackupPending marks a sealed segment whose backup-tier copy has not
	// landed yet (the upload failed — a cloud outage, say). The local copy
	// is durable; the next roll retries the upload. Deferring beats
	// failing the commit that triggered the roll over a redundant copy.
	BackupPending bool `json:"backup_pending,omitempty"`
}

type indexFile struct {
	Segments []SegmentMeta `json:"segments"`
}

// Options configures the eWAL manager.
type Options struct {
	// Dir is the object-name prefix for segments, e.g. "wal".
	Dir string
	// SegmentBytes rolls the active segment when it exceeds this size.
	SegmentBytes int64
	// Sync forces a durability barrier after every append.
	Sync bool
	// Extended enables the eWAL side index (segment seq ranges). When
	// false the manager behaves like a stock WAL: recovery must read every
	// segment serially from the oldest.
	Extended bool
	// Backup, when non-nil, receives a copy of every sealed segment
	// (typically the cloud backend), protecting unflushed writes against
	// loss of the local device. Recovery falls back to the backup copy
	// when a local segment is missing.
	Backup storage.Backend
}

// DefaultOptions returns production defaults.
func DefaultOptions() Options {
	return Options{Dir: "wal", SegmentBytes: 16 << 20, Sync: false, Extended: true}
}

// Manager owns the set of WAL segments on a backend (always the local
// tier in RocksMash; durability of cold segments is delegated to flushes).
type Manager struct {
	be   storage.Backend
	opts Options

	mu       sync.Mutex
	segments []SegmentMeta // closed + active, ascending by Num
	active   storage.Writer
	activeRW *RecordWriter
	nextNum  uint64
	spills   int64 // segments created on the backup tier (local write failure)
	restored int64 // corrupt/missing local segments re-read from the backup
}

// SegmentName formats the object name of segment n under dir.
func SegmentName(dir string, n uint64) string {
	return fmt.Sprintf("%s/%06d.log", dir, n)
}

func indexName(dir string) string { return dir + "/INDEX" }

// Open loads or initializes a WAL manager. nextNum must be larger than any
// previously used segment number (the DB derives it from the manifest).
func Open(be storage.Backend, opts Options, nextNum uint64) (*Manager, error) {
	if opts.Dir == "" {
		opts.Dir = "wal"
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 16 << 20
	}
	m := &Manager{be: be, opts: opts, nextNum: nextNum}
	if err := m.loadIndex(); err != nil {
		return nil, err
	}
	for _, s := range m.segments {
		if s.Num >= m.nextNum {
			m.nextNum = s.Num + 1
		}
	}
	return m, nil
}

// loadIndex reconciles the side index with the segments actually present.
// Segments missing from the index (crash before index write) are added with
// unknown sequence ranges so recovery still reads them.
func (m *Manager) loadIndex() error {
	var idx indexFile
	data, err := m.be.ReadAll(indexName(m.opts.Dir))
	switch {
	case err == nil:
		if jerr := json.Unmarshal(data, &idx); jerr != nil {
			// A torn index is recoverable: fall back to directory scan.
			idx = indexFile{}
		}
	case errors.Is(err, storage.ErrNotFound):
	default:
		return err
	}
	known := map[uint64]SegmentMeta{}
	for _, s := range idx.Segments {
		known[s.Num] = s
	}
	names, err := m.be.List(m.opts.Dir + "/")
	if err != nil {
		return err
	}
	m.segments = nil
	seen := map[uint64]bool{}
	for _, n := range names {
		var num uint64
		if _, err := fmt.Sscanf(n, m.opts.Dir+"/%06d.log", &num); err != nil {
			continue
		}
		sz, _ := m.be.Size(n)
		seen[num] = true
		if s, ok := known[num]; ok {
			s.Bytes = sz
			m.segments = append(m.segments, s)
		} else {
			// Unknown to the index: treat as active-at-crash (unbounded).
			m.segments = append(m.segments, SegmentMeta{Num: num, Bytes: sz})
		}
	}
	// Segments surviving only on the backup tier (local device loss).
	if m.opts.Backup != nil {
		bnames, err := m.opts.Backup.List(m.opts.Dir + "/")
		if err != nil {
			return err
		}
		for _, n := range bnames {
			var num uint64
			if _, err := fmt.Sscanf(n, m.opts.Dir+"/%06d.log", &num); err != nil {
				continue
			}
			if seen[num] {
				continue
			}
			sz, _ := m.opts.Backup.Size(n)
			if s, ok := known[num]; ok {
				s.Bytes = sz
				m.segments = append(m.segments, s)
			} else {
				m.segments = append(m.segments, SegmentMeta{Num: num, Bytes: sz})
			}
		}
	}
	sort.Slice(m.segments, func(i, j int) bool { return m.segments[i].Num < m.segments[j].Num })
	return nil
}

func (m *Manager) writeIndexLocked() error {
	if !m.opts.Extended {
		return nil
	}
	data, err := json.Marshal(indexFile{Segments: m.segments})
	if err != nil {
		return err
	}
	// The index is advisory: recovery survives a missing or stale copy by
	// reading the affected segments. Skipping the fsync keeps it off the
	// commit and recovery critical paths, and a failed write (e.g. local
	// disk full) must not fail the append that triggered it.
	w, err := m.be.Create(indexName(m.opts.Dir))
	if err != nil {
		return nil
	}
	if _, err := w.Write(data); err != nil {
		w.Close()
		return nil
	}
	_ = w.Close()
	return nil
}

// Entry is one logical record of a vectored append: a batch payload and
// the sequence range it covers.
type Entry struct {
	Payload []byte
	MinSeq  uint64
	MaxSeq  uint64
}

// AppendBatch writes a group of batch payloads under one lock acquisition
// and — when Sync is configured — one durability barrier for the whole
// group, amortizing the fsync the commit pipeline would otherwise pay per
// batch. It returns the segment the group landed in. Entries land
// contiguously in the active segment (a group never straddles a roll; the
// segment-size check runs after the group, so a segment may overshoot by at
// most one group).
func (m *Manager) AppendBatch(entries []Entry) (uint64, error) {
	if len(entries) == 0 {
		return 0, nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.active == nil {
		if err := m.rollLocked(); err != nil {
			return 0, err
		}
	}
	num, err := m.appendGroupLocked(entries)
	if err != nil && m.opts.Backup != nil {
		// The local medium rejected the group (disk full, fsync EIO). The
		// group was never acknowledged, so retrying it is safe: abandon the
		// active segment — its intact prefix still replays; any partial
		// record at its tail is tolerated as torn — and roll to a fresh
		// segment, which rollLocked spills onto the backup tier when the
		// local Create fails too.
		m.abandonActiveLocked()
		if rerr := m.rollLocked(); rerr != nil {
			return 0, err
		}
		num, err = m.appendGroupLocked(entries)
		if err != nil {
			// The fresh local segment rejected the group too — the medium
			// is refusing writes outright (disk full), not just one bad
			// file. Spill the segment directly onto the backup tier and
			// retry once more there.
			m.abandonActiveLocked()
			if rerr := m.rollBackupLocked(); rerr != nil {
				return 0, err
			}
			num, err = m.appendGroupLocked(entries)
		}
	}
	return num, err
}

// rollBackupLocked starts a new active segment directly on the backup
// tier, bypassing the local medium entirely. Used when a freshly rolled
// local segment still rejects writes: Create succeeded but the device is
// out of space, so retrying locally is pointless. The next size-based
// roll tries the local medium again — recovery is automatic.
func (m *Manager) rollBackupLocked() error {
	if m.opts.Backup == nil {
		return errors.New("wal: no backup tier to spill to")
	}
	num := m.nextNum
	m.nextNum++
	w, err := m.opts.Backup.Create(SegmentName(m.opts.Dir, num))
	if err != nil {
		return err
	}
	m.active = w
	m.activeRW = NewRecordWriter(w)
	m.segments = append(m.segments, SegmentMeta{Num: num, Spilled: true})
	m.spills++
	return m.writeIndexLocked()
}

// appendGroupLocked writes one entry group into the active segment with a
// single Write — the whole group reaches the OS before any member is acked —
// then applies the group fsync and the size-based roll.
func (m *Manager) appendGroupLocked(entries []Entry) (uint64, error) {
	cur := &m.segments[len(m.segments)-1]
	var emitted int
	for _, e := range entries {
		emitted += m.activeRW.encode(e.Payload)
		if cur.MinSeq == 0 || e.MinSeq < cur.MinSeq {
			cur.MinSeq = e.MinSeq
		}
		if e.MaxSeq > cur.MaxSeq {
			cur.MaxSeq = e.MaxSeq
		}
	}
	if err := m.activeRW.flush(); err != nil {
		return 0, err
	}
	// Count what the encoder emitted — fragment headers and block padding
	// included — so Bytes matches the file size Open reads back.
	cur.Bytes += int64(emitted)
	num := cur.Num
	if m.opts.Sync {
		if cur.Spilled {
			// A spilled segment lives on the backup (object) tier, where
			// Sync is a no-op: bytes become durable only when the object
			// commits atomically at Close. Acking a synced group against a
			// still-open object would lose it on crash, so seal the segment
			// — the group becomes a visible object — and leave no active
			// segment. The next append rolls, retrying the local medium
			// first, which doubles as the recovery probe.
			if err := m.sealActiveLocked(); err != nil {
				return 0, err
			}
			return num, nil
		}
		if err := m.active.Sync(); err != nil {
			return 0, err
		}
	}
	if cur.Bytes >= m.opts.SegmentBytes {
		if err := m.rollLocked(); err != nil {
			return 0, err
		}
	}
	return num, nil
}

// sealActiveLocked closes the active segment without opening a successor.
// For spilled segments this is the durability barrier: the backup-tier
// object becomes visible only when Close commits it, so a failed Close
// means the whole segment's records never existed and the caller must not
// acknowledge them.
func (m *Manager) sealActiveLocked() error {
	err := m.active.Close()
	m.segments[len(m.segments)-1].Closed = true
	m.active, m.activeRW = nil, nil
	if err != nil {
		return err
	}
	return m.writeIndexLocked()
}

// abandonActiveLocked closes the active segment after a write failure
// without requiring a successful sync; the on-media prefix replays with
// torn-tail tolerance.
func (m *Manager) abandonActiveLocked() {
	if m.active == nil {
		return
	}
	_ = m.active.Close()
	m.segments[len(m.segments)-1].Closed = true
	m.active, m.activeRW = nil, nil
}

// Sync forces the active segment to stable storage. A spilled segment has
// no sync primitive — its object tier persists only whole objects — so it
// is sealed instead, which is the same barrier appendGroupLocked applies
// per synced group.
func (m *Manager) Sync() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.active == nil {
		return nil
	}
	if m.segments[len(m.segments)-1].Spilled {
		return m.sealActiveLocked()
	}
	return m.active.Sync()
}

// Roll closes the active segment and starts a new one. The DB calls this
// when it seals a memtable so that segment boundaries align with flush
// units.
func (m *Manager) Roll() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rollLocked()
}

func (m *Manager) rollLocked() error {
	if m.active != nil {
		serr := m.active.Sync()
		cerr := m.active.Close()
		idx := len(m.segments) - 1
		m.segments[idx].Closed = true
		m.active, m.activeRW = nil, nil
		sealed := m.segments[idx]
		if serr != nil || cerr != nil {
			err := serr
			if err == nil {
				err = cerr
			}
			if m.opts.Backup == nil {
				return err
			}
			// Sealing failed on the local medium. The segment's durable
			// prefix still replays (torn-tail tolerance) and its contents
			// are also held by the memtable whose flush triggered this roll,
			// so abandon the handle and keep rolling — onto the backup tier
			// if the local Create below fails as well.
			if berr := m.backupSegmentLocked(sealed); berr != nil {
				m.segments[idx].BackupPending = true
			}
		} else if err := m.backupSegmentLocked(sealed); err != nil {
			// The local copy is sealed and durable; only the redundant
			// backup upload failed (an unreachable backup tier). Defer it —
			// the next roll retries — rather than failing the commit whose
			// append triggered this roll.
			m.segments[idx].BackupPending = true
		}
	}
	m.retryPendingBackupsLocked()
	num := m.nextNum
	m.nextNum++
	meta := SegmentMeta{Num: num}
	w, err := m.be.Create(SegmentName(m.opts.Dir, num))
	if err != nil {
		if m.opts.Backup == nil {
			return err
		}
		if w, err = m.opts.Backup.Create(SegmentName(m.opts.Dir, num)); err != nil {
			return err
		}
		meta.Spilled = true
		m.spills++
	}
	m.active = w
	m.activeRW = NewRecordWriter(w)
	m.segments = append(m.segments, meta)
	return m.writeIndexLocked()
}

// ActiveSegment returns the number of the segment new appends go to
// (0 if none has been created yet).
func (m *Manager) ActiveSegment() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.active == nil {
		return 0
	}
	return m.segments[len(m.segments)-1].Num
}

// Spills returns how many segments were created directly on the backup
// tier because the local medium could not accept them.
func (m *Manager) Spills() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.spills
}

// Restored returns how many corrupt or missing local segments were
// re-materialized from the backup tier.
func (m *Manager) Restored() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.restored
}

// scanRecords walks a whole segment image checking record structure and
// checksums. Torn tails return nil — recovery tolerates them — so a non-nil
// result means genuine mid-log corruption.
func scanRecords(data []byte) error {
	rr := NewRecordReader(data)
	for {
		_, _, err := rr.next()
		switch {
		case err == io.EOF || err == io.ErrUnexpectedEOF:
			return nil
		case err != nil:
			return err
		}
	}
}

// Scrub verifies the record checksums of every sealed segment's local copy,
// restoring corrupt ones from the backup tier when a clean copy exists
// there. It returns how many segments were checked, found corrupt, and
// repaired in place.
func (m *Manager) Scrub() (checked, corrupt, repaired int) {
	segs := m.Segments()
	activeNum := m.ActiveSegment()
	for _, s := range segs {
		if activeNum != 0 && s.Num == activeNum {
			continue // being written; its tail is legitimately open
		}
		name := SegmentName(m.opts.Dir, s.Num)
		data, err := m.be.ReadAll(name)
		if err != nil {
			continue // spilled or already retired; backup copy is authoritative
		}
		checked++
		if scanRecords(data) == nil {
			continue
		}
		corrupt++
		if m.opts.Backup == nil {
			continue
		}
		bdata, berr := m.opts.Backup.ReadAll(name)
		if berr != nil || scanRecords(bdata) != nil {
			continue
		}
		if storage.WriteObject(m.be, name, bdata) == nil {
			m.mu.Lock()
			m.restored++
			m.mu.Unlock()
			repaired++
		}
	}
	return checked, corrupt, repaired
}

// Segments returns a copy of the segment metadata, ascending by number.
func (m *Manager) Segments() []SegmentMeta {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]SegmentMeta, len(m.segments))
	copy(out, m.segments)
	return out
}

// retryPendingBackupsLocked re-attempts deferred backup uploads. Runs on
// every roll, so an outage's backlog drains as soon as the tier returns.
func (m *Manager) retryPendingBackupsLocked() {
	if m.opts.Backup == nil {
		return
	}
	for i := range m.segments {
		if !m.segments[i].BackupPending {
			continue
		}
		if err := m.backupSegmentLocked(m.segments[i]); err == nil {
			m.segments[i].BackupPending = false
		}
	}
}

// backupSegmentLocked copies a sealed segment to the backup backend. A
// spilled segment already lives there — it IS the backup copy.
func (m *Manager) backupSegmentLocked(s SegmentMeta) error {
	if m.opts.Backup == nil || s.Spilled {
		return nil
	}
	name := SegmentName(m.opts.Dir, s.Num)
	data, err := m.be.ReadAll(name)
	if err != nil {
		return err
	}
	return storage.WriteObject(m.opts.Backup, name, data)
}

// DeleteObsolete removes closed segments whose every sequence number is
// ≤ flushedSeq (their contents are durable in SSTables). A segment whose
// delete fails (an unreachable backup tier, a transient local error) stays
// in the index so the next call retries it — GC never strands an orphan
// object silently. Already-gone objects (a spilled segment's absent local
// copy, a retried delete) are not failures.
func (m *Manager) DeleteObsolete(flushedSeq uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	keep := m.segments[:0]
	var firstErr error
	for _, s := range m.segments {
		if s.Closed && s.MaxSeq != 0 && s.MaxSeq <= flushedSeq {
			ok := true
			if err := m.be.Delete(SegmentName(m.opts.Dir, s.Num)); err != nil && !errors.Is(err, storage.ErrNotFound) {
				ok = false
				if firstErr == nil {
					firstErr = err
				}
			}
			if m.opts.Backup != nil {
				if err := m.opts.Backup.Delete(SegmentName(m.opts.Dir, s.Num)); err != nil && !errors.Is(err, storage.ErrNotFound) {
					ok = false
					if firstErr == nil {
						firstErr = err
					}
				}
			}
			if ok {
				continue
			}
		}
		keep = append(keep, s)
	}
	m.segments = keep
	if err := m.writeIndexLocked(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// SealAll marks every inactive segment closed with maxSeq as an upper
// bound on its contents. Recovery calls this after replay so that segments
// left open by a crash (whose true range the index never learned) become
// eligible for garbage collection once their data is flushed.
func (m *Manager) SealAll(maxSeq uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	activeIdx := -1
	if m.active != nil {
		activeIdx = len(m.segments) - 1
	}
	for i := range m.segments {
		if i == activeIdx {
			continue
		}
		s := &m.segments[i]
		s.Closed = true
		if s.MaxSeq == 0 {
			s.MaxSeq = maxSeq
		}
	}
	return m.writeIndexLocked()
}

// Close seals the active segment without starting a new one.
func (m *Manager) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.active == nil {
		return nil
	}
	if err := m.active.Sync(); err != nil {
		return err
	}
	if err := m.active.Close(); err != nil {
		return err
	}
	idx := len(m.segments) - 1
	m.segments[idx].Closed = true
	m.active, m.activeRW = nil, nil
	// Same deferral as rollLocked: the local copy is durable, so a failed
	// backup upload at close marks the segment pending (the reopened
	// manager's first roll retries) instead of failing the shutdown.
	if err := m.backupSegmentLocked(m.segments[idx]); err != nil {
		m.segments[idx].BackupPending = true
	}
	return m.writeIndexLocked()
}

// ReplayStats reports what recovery did.
type ReplayStats struct {
	SegmentsTotal   int
	SegmentsSkipped int // skipped via eWAL seq-range metadata
	Records         int64
	Bytes           int64
}

// Replay hands every segment that may hold sequence data above flushedSeq
// to fn on the goroutine replaying it: fn reads the segment's records in
// order through ReplaySegment.Records, and the segment ends when fn
// returns. With parallelism > 1 and the extended index available, segments
// are read and decoded concurrently, so fn must then be safe for concurrent
// calls. Torn tails are tolerated on the newest segment and on any segment
// that was active at crash time. fn sees each segment once, except that a
// local copy failing mid-log with ErrCorrupt is handed to fn a second time,
// read from the backup tier, when one is configured: fn must keep nothing
// of a call that returned an error.
func (m *Manager) Replay(flushedSeq uint64, parallelism int, fn func(*ReplaySegment) error) (ReplayStats, error) {
	segs := m.Segments()
	var stats ReplayStats
	stats.SegmentsTotal = len(segs)

	var work []SegmentMeta
	for _, s := range segs {
		if m.opts.Extended && s.Closed && s.MaxSeq != 0 && s.MaxSeq <= flushedSeq {
			stats.SegmentsSkipped++
			continue
		}
		work = append(work, s)
	}
	if parallelism < 1 || !m.opts.Extended {
		parallelism = 1
	}
	if parallelism > len(work) {
		parallelism = len(work)
	}
	if len(work) == 0 {
		return stats, nil
	}

	var (
		mu       sync.Mutex
		firstErr error
		records  int64
		bytes    int64
	)
	sem := make(chan struct{}, parallelism)
	var wg sync.WaitGroup
	for _, s := range work {
		wg.Add(1)
		sem <- struct{}{}
		go func(s SegmentMeta) {
			defer wg.Done()
			defer func() { <-sem }()
			recs, n, err := m.replaySegment(s, fn)
			mu.Lock()
			records += recs
			bytes += n
			if err != nil && firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}(s)
	}
	wg.Wait()
	stats.Records = records
	stats.Bytes = bytes
	return stats, firstErr
}

func (m *Manager) replaySegment(s SegmentMeta, fn func(*ReplaySegment) error) (int64, int64, error) {
	name := SegmentName(m.opts.Dir, s.Num)
	data, err := m.be.ReadAll(name)
	fromBackup := false
	if errors.Is(err, storage.ErrNotFound) && m.opts.Backup != nil {
		// Local copy gone (e.g. device loss): restore from the backup tier.
		data, err = m.opts.Backup.ReadAll(name)
		fromBackup = true
	}
	if errors.Is(err, storage.ErrNotFound) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, err
	}
	seg := newReplaySegment(s, data)
	err = fn(seg)
	// Mid-log corruption (a failed record CRC that is not a tolerated torn
	// tail) fails the pass, and fn publishes nothing from a failed pass.
	// When the backup tier holds a copy, replay that instead, and if it is
	// clean heal the local file from it. The one replay pass is the check:
	// no segment is scanned before it is replayed.
	if errors.Is(err, ErrCorrupt) && m.opts.Backup != nil && !fromBackup {
		bdata, berr := m.opts.Backup.ReadAll(name)
		if berr != nil {
			return 0, 0, err
		}
		bseg := newReplaySegment(s, bdata)
		if berr := fn(bseg); berr != nil {
			return 0, 0, err
		}
		m.mu.Lock()
		m.restored++
		m.mu.Unlock()
		_ = storage.WriteObject(m.be, name, bdata) // best-effort heal
		seg = bseg
		err = nil
	}
	return seg.records, seg.bytes, err
}

// ReplaySegment is one WAL segment as Replay delivers it.
type ReplaySegment struct {
	SegmentMeta // the segment's index entry: its number and sequence range
	// Image is the whole segment as read from its tier, record headers
	// included. It belongs to the caller (storage.Backend.ReadAll's
	// contract): a payload Records reports at an offset may be kept by
	// reference for as long as the caller keeps Image.
	Image []byte

	rr             RecordReader
	records, bytes int64
}

func newReplaySegment(s SegmentMeta, data []byte) *ReplaySegment {
	return &ReplaySegment{SegmentMeta: s, Image: data, rr: RecordReader{data: data}}
}

// Records calls fn with the payload of each of the segment's records, in
// log order, stopping at the first error fn returns. A torn tail ends the
// segment cleanly: everything before it was intact and is kept.
//
// A record written in one block is reported with off, its payload's offset
// in Image: payload is Image[off:off+len(payload)], and fn may retain it
// (or offsets into Image) for as long as Image lives. A record spanning
// blocks is reported with off == Reassembled: its payload is joined in a
// buffer the next record overwrites, so fn must copy whatever it keeps of
// it.
func (s *ReplaySegment) Records(fn func(payload []byte, off int) error) error {
	for {
		payload, off, err := s.rr.next()
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil
		}
		if err != nil {
			return err
		}
		s.records++
		s.bytes += int64(len(payload))
		if err := fn(payload, off); err != nil {
			return err
		}
	}
}
