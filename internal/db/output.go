package db

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"rocksmash/internal/keys"
	"rocksmash/internal/manifest"
	"rocksmash/internal/pcache"
	"rocksmash/internal/sstable"
	"rocksmash/internal/storage"
)

// This file is a table's way out of the engine, one path for every table
// it writes: a tableSink builds tables from a writer's entries (flush,
// compaction); uploadTable lands each on its home tier, or off home when
// that fails; warm writes a cloud table through to the persistent cache when
// its writer asked; the writer's one manifest edit installs them. A
// relocation (pending.go) joins at land with a table built long ago.

// uploadParallelism is how many finished tables land at once while the
// writer keeps building.
const uploadParallelism = 4

// memWriter buffers a table being built so the finished bytes can be
// uploaded as one object and, when warranted, warmed into the persistent
// cache without a round trip back to the cloud.
type memWriter struct {
	buf []byte
}

func (w *memWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}
func (w *memWriter) Sync() error  { return nil }
func (w *memWriter) Close() error { return nil }

// bytesReader adapts a byte slice to storage.Reader.
type bytesReader struct {
	data []byte
}

func (r bytesReader) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(r.data)) {
		return 0, io.EOF
	}
	n := copy(p, r.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}
func (r bytesReader) Size() int64  { return int64(len(r.data)) }
func (r bytesReader) Close() error { return nil }

// builtTable is a finished, not-yet-installed table.
type builtTable struct {
	meta    manifest.FileMetadata
	metaOff uint64 // offset of the metadata tail within data
	data    []byte
}

// tableSink builds a writer's tables and lands them. It takes internal keys
// in order and cuts a new table past target bytes, only ever between user
// keys: every version of a key lands in one table, or a level's tables
// would overlap. A target of 0 never cuts (a flush's one table).
//
// Each table is built into a buffer from the store's free list (bufPool),
// sized so that building never regrows it, by one Builder the sink
// re-targets from table to table. The buffers are the tables' data until
// the writer is done with them: landing and warming read them, and so does
// the install that splices the outputs into their level's view. The writer
// gives them back with release once its edit is installed or abort has run.
type tableSink struct {
	d      *engine
	tier   storage.Tier // home tier of every table
	target int64
	size   int64 // each table's buffer
	warm   bool  // the writer asks for its tables to be warmed

	b       *sstable.Builder // made for the first table, Reset for the next
	w       *memWriter       // the table being built; nil between tables
	num     uint64
	outputs []*builtTable // cut so far, in key order

	sem chan struct{}
	wg  sync.WaitGroup

	mu     sync.Mutex
	err    error         // first failure
	landed []*builtTable // what abort removes

	outBytes uint64 // summed table sizes
	// ns sums per-table landing wall time (warming included). Landings
	// overlap, so this can exceed the writer's elapsed time; the sum still
	// measures how much work the upload stage absorbed.
	ns atomic.Int64
}

// newTableSink returns a sink whose tables go to tier. hint is the bytes
// the writer expects to feed: a table holds at most min(hint, target) of
// them, plus the tail of its last block and its metadata, so each buffer
// holds that plus an eighth and building never regrows it.
func (d *engine) newTableSink(tier storage.Tier, target, hint int64, warm bool) *tableSink {
	size := hint
	if target > 0 {
		size = min(hint, target)
	}
	return &tableSink{
		d: d, tier: tier, target: target, size: size + size/8, warm: warm,
		sem: make(chan struct{}, uploadParallelism),
	}
}

// add appends one entry, cutting the table being built first when it has
// reached the target and ik starts a new user key.
func (s *tableSink) add(ik, value []byte) error {
	if s.w != nil && s.target > 0 && int64(s.b.EstimatedSize()) >= s.target &&
		!bytes.Equal(keys.UserKey(ik), keys.UserKey(s.b.LastKey())) {
		if err := s.cut(); err != nil {
			return err
		}
	}
	if s.w == nil {
		s.num = s.d.vs.NewFileNum()
		s.w = &memWriter{buf: s.d.bufs.get(int(s.size))}
		if s.b == nil {
			o := s.d.opts
			s.b = sstable.NewBuilder(s.w, sstable.BuilderOptions{
				BlockBytes: o.BlockBytes, BloomBitsPerKey: o.BloomBitsPerKey, Compression: o.Compression,
			})
		} else {
			s.b.Reset(s.w)
		}
	}
	return s.b.Add(ik, value)
}

// cut finishes the table being built, if any, and hands it to the upload
// pool. It blocks only while uploadParallelism landings are in flight, so
// the writer cannot build tables faster than they land, and it returns the
// first landing failure so far: past one, the writer could only produce
// more tables to clean up.
func (s *tableSink) cut() error {
	if s.w == nil {
		return nil
	}
	props, err := s.b.Finish()
	if err != nil {
		return err
	}
	t := &builtTable{
		meta: manifest.FileMetadata{
			Num: s.num, Size: uint64(len(s.w.buf)),
			Smallest: props.Smallest, Largest: props.Largest,
			MinSeq: props.MinSeq, MaxSeq: props.MaxSeq,
			Tier: s.tier,
		},
		metaOff: s.b.MetaOffset(),
		data:    s.w.buf,
	}
	s.w = nil
	s.outputs = append(s.outputs, t)
	s.outBytes += t.meta.Size
	s.sem <- struct{}{}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer func() { <-s.sem }()
		start := time.Now()
		err := s.d.uploadTable(t)
		landed := err == nil
		if landed {
			err = s.d.warm(t, s.warm)
		}
		s.ns.Add(time.Since(start).Nanoseconds())
		s.mu.Lock()
		if landed {
			s.landed = append(s.landed, t)
		}
		s.err = cmp.Or(s.err, err)
		s.mu.Unlock()
	}()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// finish cuts the table being built and waits for every landing. It
// returns the tables in key order, or the first failure.
func (s *tableSink) finish() ([]*builtTable, error) {
	err := s.cut()
	s.wg.Wait()
	return s.outputs, cmp.Or(err, s.err)
}

// abort waits out the landings in flight and removes every table that
// landed, so a writer that failed leaves no orphans behind. A delete that
// fails (cloud breaker open during an outage) goes on the deferred queue.
// Never call it once the writer's edit may be durable. It releases the
// sink's buffers.
func (s *tableSink) abort() {
	s.wg.Wait()
	for _, t := range s.landed {
		s.d.removeTable(t.meta.Tier, t.meta.Num)
	}
	s.landed = nil
	s.release()
}

// release gives the sink's buffers back to the free list: the tables it
// cut, and the one it was building when a writer failed mid-table. The
// landings must have finished (finish or abort waited for them) and the
// writer must be done with every table's data.
func (s *tableSink) release() {
	for _, t := range s.outputs {
		s.d.bufs.put(t.data)
		t.data = nil
	}
	s.outputs = nil
	if s.w != nil {
		s.d.bufs.put(s.w.buf)
		s.w = nil
	}
}

// metaSidecarName is the local object holding a cloud table's metadata
// tail (filter + index + properties + footer).
func metaSidecarName(num uint64) string { return fmt.Sprintf("meta/%06d.meta", num) }

// uploadTable makes a finished table durable: on its home tier
// (t.meta.Tier as built) or, when that landing fails and the store has the
// other tier, off home on that one — the flush or compaction succeeds, acked
// writes stay durable, and the drainer relocates the table once its home
// tier is healthy (pending.go). A table landed on local storage for a cloud
// home is marked PendingCloud; one landed in the cloud for a local home is
// recognised by its level (offHome). t.meta.Tier reflects where the table
// actually landed when uploadTable returns. With no other tier
// (PolicyLocalOnly) or both failing, the error surfaces to the caller.
func (d *engine) uploadTable(t *builtTable) error {
	start := time.Now()
	home := t.meta.Tier
	attempts, err := d.land(t, home, false)
	degraded := err != nil
	if degraded {
		if d.cloud == nil {
			return err
		}
		other := storage.TierCloud
		if home == storage.TierCloud {
			other = storage.TierLocal
		}
		n, oerr := d.land(t, other, true)
		if oerr != nil {
			return fmt.Errorf("db: landing on the %s tier after %s-tier failure (%v): %w", other, home, err, oerr)
		}
		attempts += n
		t.meta.Tier = other
		if other == storage.TierLocal {
			t.meta.PendingCloud = true
			d.stats.DegradedTables.Add(1)
		} else {
			d.stats.LocalDegradedTables.Add(1)
		}
	}
	d.evTableUploaded(t.meta.Num, t.meta.Tier, int64(t.meta.Size), attempts, time.Since(start), degraded)
	return nil
}

// land puts t's object on tier and, in the cloud, its metadata tail in a
// local sidecar so opens never fetch metadata from the cloud. The sidecar is
// a cache rebuilt on demand (overlayMetadata): losing it fails nothing once
// the table is durable. Its write is reported to the local breaker, so a
// failing device trips degradation even when every table's home is the
// cloud — unless this landing is the fallback after the local tier refused
// or failed this very table: a small write squeezing through then says
// nothing about its health.
func (d *engine) land(t *builtTable, tier storage.Tier, fallback bool) (attempts int, err error) {
	attempts, err = d.putTable(tier, manifest.TableName(t.meta.Num), t.data)
	if err != nil || tier != storage.TierCloud {
		return attempts, err
	}
	tail := t.data[t.metaOff:]
	switch {
	case fallback:
		_ = d.writeMetaSidecar(t.meta.Num, t.metaOff, tail)
	case d.localBreaker.Allow():
		if d.writeMetaSidecar(t.meta.Num, t.metaOff, tail) != nil {
			d.localBreaker.Failure()
		} else {
			d.localBreaker.Success()
		}
	}
	return attempts, nil
}

// putTable is the only place a whole table object is written to a tier,
// always through that tier's gate. Cloud puts run under the retry policy and
// the cloud breaker (backoff waits abort when the DB closes mid-outage).
// Local puts are admitted by the local breaker — refused without a doomed
// write while it is open, the recovery probe when it is half-open — and
// report their outcome to it.
func (d *engine) putTable(tier storage.Tier, name string, data []byte) (attempts int, err error) {
	if tier == storage.TierCloud {
		return d.cloudRel.WriteObject(name, data)
	}
	if !d.localBreaker.Allow() {
		return 0, storage.ErrLocalUnavailable
	}
	if err := storage.WriteObject(d.local, name, data); err != nil {
		d.localBreaker.Failure()
		return 1, err
	}
	d.localBreaker.Success()
	return 1, nil
}

// writeMetaSidecar writes a table's metadata tail locally:
// [tailOff uint64 LE][tail bytes]. It is not fsynced: the sidecar is a cache
// of bytes the cloud object holds. One that a crash leaves missing, short or
// torn fails sstable.Open with ErrCorrupt (or is not found), and the open
// rebuilds it from the object's tail (repairSidecar, overlayMetadata).
func (d *engine) writeMetaSidecar(num uint64, tailOff uint64, tail []byte) error {
	w, err := d.local.Create(metaSidecarName(num))
	if err != nil {
		return err
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], tailOff)
	if _, err := w.Write(hdr[:]); err != nil {
		w.Close()
		return err
	}
	if _, err := w.Write(tail); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// readMetaSidecar loads a table's locally cached metadata tail.
func (d *engine) readMetaSidecar(num uint64) (tailOff uint64, tail []byte, err error) {
	buf, err := d.local.ReadAll(metaSidecarName(num))
	if err != nil {
		return 0, nil, err
	}
	if len(buf) < 8 {
		return 0, nil, storage.ErrNotFound
	}
	return binary.LittleEndian.Uint64(buf), buf[8:], nil
}

// warm admits every data block of a table that has landed into the
// persistent cache, when its writer asked and the table sits in the cloud
// under PolicyMash: the persistent cache fronts cloud reads only. A flush
// asks (fresh L0 data is by definition hot), and so does a relocation (the
// table was serving reads locally a moment ago); a compaction asks when
// CompactionInheritance is on and its inputs were hot.
func (d *engine) warm(t *builtTable, asked bool) error {
	if !asked || t.meta.Tier != storage.TierCloud || d.opts.Policy != PolicyMash {
		return nil
	}
	r, err := sstable.Open(bytesReader{t.data}, t.meta.Num)
	if err != nil {
		return err
	}
	defer r.Close()
	handles := r.DataHandles()
	blocks := make([]pcache.Block, 0, len(handles))
	for _, h := range handles {
		body, err := sstable.ReadRawBlock(bytesReader{t.data}, h)
		if err != nil {
			return err
		}
		blocks = append(blocks, pcache.Block{Off: h.Offset, Body: body})
	}
	d.pcache.PutBulk(t.meta.Num, blocks)
	return nil
}
