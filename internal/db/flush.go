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

// uploadTable writes the table object to its tier's backend. Cloud uploads
// go through the Reliable wrapper (retry policy + circuit breaker); the
// backoff waits abort when the DB closes mid-outage. For cloud-tier tables
// the metadata tail is additionally persisted on local storage so future
// opens never fetch metadata from the cloud.
//
// When a cloud upload exhausts its retries (or the breaker is open) and
// degraded mode is enabled, the table is landed on *local* storage instead
// and marked PendingCloud in its metadata: the flush or compaction
// succeeds, acked writes stay durable, and the background drainer migrates
// the file to the cloud once the breaker closes. t.meta.Tier reflects
// where the table actually landed when uploadTable returns.
func (d *engine) uploadTable(t *builtTable) error {
	name := manifest.TableName(t.meta.Num)
	start := time.Now()
	if t.meta.Tier != storage.TierCloud {
		// Local landing, guarded by the local breaker. While it is open the
		// local attempt is skipped entirely (fail fast, no doomed write);
		// when half-open the write doubles as the recovery probe.
		var lerr error
		if d.localBreaker.Allow() {
			lerr = storage.WriteObject(d.local, name, t.data)
			if lerr == nil {
				d.localBreaker.Success()
				d.evTableUploaded(t.meta.Num, t.meta.Tier, int64(t.meta.Size), 1, time.Since(start), false)
				return nil
			}
			d.localBreaker.Failure()
		}
		if d.opts.DisableLocalDegradedMode || d.cloud == nil {
			if lerr == nil {
				lerr = storage.ErrLocalUnavailable
			}
			return lerr
		}
		// Local-degraded landing: the table goes cloud-direct. It is marked
		// neither PendingCloud (it is already durable at its final backend)
		// nor local-tier — the drainer migrates it back by its misplaced
		// level once the breaker closes.
		attempts, cerr := d.cloudPut(name, t.data)
		if cerr != nil {
			if lerr == nil {
				return fmt.Errorf("db: cloud-direct landing with local breaker open: %w", cerr)
			}
			return fmt.Errorf("db: cloud-direct landing after local failure (%v): %w", lerr, cerr)
		}
		// The sidecar write targets the failing local device; tolerate its
		// loss — overlayMetadata rebuilds it from the cloud object's tail.
		_ = d.writeMetaSidecar(t.meta.Num, t.metaOff, t.data[t.metaOff:])
		t.meta.Tier = storage.TierCloud
		d.stats.LocalDegradedTables.Add(1)
		d.evTableUploaded(t.meta.Num, t.meta.Tier, int64(t.meta.Size), attempts, time.Since(start), true)
		return nil
	}
	attempts, err := d.cloudPut(name, t.data)
	if err == nil {
		// The sidecar is a rebuildable cache of the object's metadata tail
		// (overlayMetadata recreates it at the next open): losing it must not
		// fail a flush whose data is already durable in the cloud. Routing it
		// through the local breaker lets a failing device trip degradation.
		if d.localBreaker.Allow() {
			if serr := d.writeMetaSidecar(t.meta.Num, t.metaOff, t.data[t.metaOff:]); serr != nil {
				d.localBreaker.Failure()
			} else {
				d.localBreaker.Success()
			}
		}
		d.evTableUploaded(t.meta.Num, t.meta.Tier, int64(t.meta.Size), attempts, time.Since(start), false)
		return nil
	}
	if d.opts.DisableDegradedMode {
		return err
	}
	if lerr := storage.WriteObject(d.local, name, t.data); lerr != nil {
		// Both tiers failing is a real wedge; surface the local error with
		// the cloud failure that forced the degraded landing.
		return fmt.Errorf("db: degraded landing after cloud failure (%v): %w", err, lerr)
	}
	t.meta.Tier = storage.TierLocal
	t.meta.PendingCloud = true
	d.stats.DegradedTables.Add(1)
	d.evTableUploaded(t.meta.Num, t.meta.Tier, int64(t.meta.Size), attempts, time.Since(start), true)
	return nil
}

// cloudPut uploads one whole object to the cloud tier under the retry
// policy, reporting how many attempts ran.
func (d *engine) cloudPut(name string, data []byte) (attempts int, err error) {
	if d.cloudRel != nil {
		return d.cloudRel.WriteObject(name, data)
	}
	return 1, storage.WriteObject(d.cloud, name, data)
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
	if imm != nil && !imm.Empty() {
		children = append(children, &memIter{imm.NewIterator()})
	}
	for _, m := range rec {
		if !m.Empty() {
			children = append(children, &memIter{m.NewIterator()})
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

	w := &memWriter{}
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
