package db

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"rocksmash/internal/manifest"
	"rocksmash/internal/memtable"
	"rocksmash/internal/pcache"
	"rocksmash/internal/sstable"
	"rocksmash/internal/storage"
)

// memWriter buffers a table being built so the finished bytes can be
// uploaded as one object and, when warranted, warmed into the persistent
// cache without a round trip back to the cloud.
type memWriter struct {
	buf bytes.Buffer
}

// newTableWriter returns a memWriter with room for a table of about size
// bytes. Left to grow by doubling, a 1 MiB table allocates and zeroes some
// 4 MiB on the way up; at fill's write rate that regrowth was most of the
// bytes the process allocated and so set how often the collector ran.
func newTableWriter(size int64) *memWriter {
	w := &memWriter{}
	w.buf.Grow(int(size))
	return w
}

func (w *memWriter) Write(p []byte) (int, error) { return w.buf.Write(p) }
func (w *memWriter) Sync() error                 { return nil }
func (w *memWriter) Close() error                { return nil }

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

// metaSidecarName is the local object holding a cloud table's metadata
// tail (filter + index + properties + footer).
func metaSidecarName(num uint64) string { return fmt.Sprintf("meta/%06d.meta", num) }

// uploadTable makes a finished table durable: on its home tier
// (t.meta.Tier as built) or, when that put fails and the store has the other
// tier, off home on that one — the flush or compaction succeeds, acked
// writes stay durable, and the drainer relocates the table once its home
// tier is healthy (pending.go). A table landed on local storage for a cloud
// home is marked PendingCloud; one landed in the cloud for a local home is
// recognised by its level (offHome). t.meta.Tier reflects where the table
// actually landed when uploadTable returns. With no other tier
// (PolicyLocalOnly) or both failing, the error surfaces to the caller.
func (d *engine) uploadTable(t *builtTable) error {
	name := manifest.TableName(t.meta.Num)
	start := time.Now()
	home := t.meta.Tier
	attempts, err := d.putTable(home, name, t.data)
	degraded := err != nil
	if degraded {
		if d.cloud == nil {
			return err
		}
		other := storage.TierCloud
		if home == storage.TierCloud {
			other = storage.TierLocal
		}
		n, oerr := d.putTable(other, name, t.data)
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
	if t.meta.Tier == storage.TierCloud {
		// A cloud table's metadata tail is also kept on local storage so
		// opens never fetch metadata from the cloud. The sidecar is a
		// rebuildable cache (overlayMetadata recreates it at the next open):
		// losing it must not fail a table whose data is already durable.
		tail := t.data[t.metaOff:]
		switch {
		case degraded:
			// The local tier has just refused or failed this table; a small
			// write squeezing through says nothing about its health.
			_ = d.writeMetaSidecar(t.meta.Num, t.metaOff, tail)
		case d.localBreaker.Allow():
			// Reported to the local breaker so a failing device trips
			// degradation even when every table's home is the cloud.
			if d.writeMetaSidecar(t.meta.Num, t.metaOff, tail) != nil {
				d.localBreaker.Failure()
			} else {
				d.localBreaker.Success()
			}
		}
	}
	d.evTableUploaded(t.meta.Num, t.meta.Tier, int64(t.meta.Size), attempts, time.Since(start), degraded)
	return nil
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

// writeMetaSidecar persists a table's metadata tail locally:
// [tailOff uint64 LE][tail bytes].
func (d *engine) writeMetaSidecar(num uint64, tailOff uint64, tail []byte) error {
	buf := make([]byte, 8+len(tail))
	binary.LittleEndian.PutUint64(buf, tailOff)
	copy(buf[8:], tail)
	return storage.WriteObject(d.local, metaSidecarName(num), buf)
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

// warmPCache admits every data block of a freshly built cloud table into
// the persistent cache (compaction inheritance / flush write-through).
func (d *engine) warmPCache(t *builtTable) error {
	r, err := sstable.Open(bytesReader{t.data}, t.meta.Num)
	if err != nil {
		return err
	}
	defer r.Close()
	handles, err := r.DataHandles()
	if err != nil {
		return err
	}
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

// flushMemtable builds an L0 table from imm plus any memtables rebuilt by
// WAL recovery, and installs it. imm may be nil (recovery-only flush).
func (d *engine) flushMemtable(imm *memtable.MemTable) error {
	d.mu.Lock()
	rec := d.takeRecoveredLocked()
	d.updateReadStateLocked()
	d.mu.Unlock()

	// The memtable was sealed under d.mu, after which no commit group can
	// register new appliers against it; wait out the ones already in
	// flight so the flush iterator sees every acked write.
	if imm != nil {
		imm.WaitWriters()
	}

	var children []internalIterator
	var size int64
	if imm != nil && !imm.Empty() {
		children = append(children, &memIter{imm.NewIterator()})
		size += imm.ApproximateSize()
	}
	for _, m := range rec {
		if !m.Empty() {
			children = append(children, &memIter{m.NewIterator()})
			size += m.ApproximateSize()
		}
	}
	if len(children) == 0 {
		return nil
	}
	reason := "memtable"
	if imm == nil || imm.Empty() {
		reason = "recovery"
	}
	d.evFlushBegin(reason)
	flushStart := time.Now()
	restoreOnError := func() {
		if len(rec) == 0 {
			return
		}
		d.mu.Lock()
		d.recovered = append(rec, d.recovered...)
		d.updateReadStateLocked()
		d.mu.Unlock()
	}

	num := d.vs.NewFileNum()
	tier := d.opts.tierForLevel(0)

	w := newTableWriter(size + size/8)
	b := sstable.NewBuilder(w, sstable.BuilderOptions{
		BlockBytes:      d.opts.BlockBytes,
		BloomBitsPerKey: d.opts.BloomBitsPerKey,
		Compression:     d.opts.Compression,
	})
	it := newMergingIter(children...)
	for it.First(); it.Valid(); it.Next() {
		if err := b.Add(it.Key(), it.Value()); err != nil {
			restoreOnError()
			return err
		}
	}
	if err := it.Err(); err != nil {
		restoreOnError()
		return err
	}
	props, err := b.Finish()
	if err != nil {
		restoreOnError()
		return err
	}
	t := &builtTable{
		meta: manifest.FileMetadata{
			Num:      num,
			Size:     uint64(w.buf.Len()),
			Smallest: props.Smallest,
			Largest:  props.Largest,
			MinSeq:   props.MinSeq,
			MaxSeq:   props.MaxSeq,
			Tier:     tier,
		},
		metaOff: b.MetaOffset(),
		data:    w.buf.Bytes(),
	}
	if err := d.uploadTable(t); err != nil {
		restoreOnError()
		return fmt.Errorf("db: flush upload: %w", err)
	}
	// uploadTable may have landed the table locally (degraded mode); trust
	// the metadata, not the intended tier, from here on.
	if t.meta.Tier == storage.TierCloud && d.opts.Policy == PolicyMash {
		// Fresh L0 data is by definition hot; write it through to the
		// persistent cache so first reads don't pay a cloud round trip.
		if err := d.warmPCache(t); err != nil {
			restoreOnError()
			return err
		}
	}

	edit := &manifest.VersionEdit{
		Added:         []manifest.AddedFile{{Level: 0, Meta: t.meta}},
		HasFlushedSeq: true,
		FlushedSeq:    props.MaxSeq,
		HasLastSeq:    true,
		LastSeq:       d.lastSeq.Load(),
	}
	if err := d.vs.LogAndApply(edit); err != nil {
		restoreOnError()
		return err
	}
	d.pcache.SetLevel(t.meta.Num, 0)
	d.stats.Flushes.Add(1)
	d.stats.FlushBytes.Add(int64(t.meta.Size))
	// Sequence numbers up to FlushedSeq are durable in tables: the WAL
	// segments covering them can go (eWAL GC). GC is deferred, not fatal —
	// a segment whose delete fails (an open breaker retiring its cloud
	// backup, say) stays indexed for the next flush to retry; wedging the
	// engine over retired-log cleanup would turn a cloud blip into a
	// permanent write stall.
	if err := d.wal.DeleteObsolete(d.vs.FlushedSeq()); err != nil {
		d.stats.DeferredDeletes.Add(1)
		d.evCloudRetry("DELETE", "wal-gc", 0, err)
	}
	dur := time.Since(flushStart)
	d.lat.flush.Record(dur)
	d.evFlushEnd(t.meta.Num, int64(t.meta.Size), t.meta.Tier, dur)
	return nil
}
