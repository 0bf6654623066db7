package db

import (
	"cmp"
	"time"

	"rocksmash/internal/manifest"
	"rocksmash/internal/memtable"
)

// flushMemtable builds an L0 table from imm plus any runs rebuilt by WAL
// recovery, and installs it. imm may be nil (recovery-only flush).
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
	reason := "recovery"
	if imm != nil && !imm.Empty() {
		mi := &memIter{}
		imm.InitIterator(&mi.it)
		children = append(children, mi)
		size += imm.ApproximateSize()
		reason = "memtable"
	}
	for _, r := range rec {
		children = append(children, runIter{r.NewIterator()})
		size += r.ApproximateSize()
	}
	if len(children) == 0 {
		return nil
	}
	d.evFlushBegin(reason)
	flushStart := time.Now()
	restoreOnError := func() {
		d.mu.Lock()
		d.recovered = append(rec, d.recovered...)
		d.updateReadStateLocked()
		d.mu.Unlock()
	}

	// The sink's one table (target 0 never cuts) is fresh L0 data, hot by
	// definition: it asks for warming so first reads skip the cloud.
	sink := d.newTableSink(d.opts.tierForLevel(0), 0, size, true)
	it := newMergingIter(children...)
	var err error
	for it.First(); it.Valid() && err == nil; it.Next() {
		err = sink.add(it.Key(), it.Value())
	}
	err = cmp.Or(err, it.Err())
	var outs []*builtTable
	if err == nil {
		outs, err = sink.finish()
	}
	if err != nil {
		sink.abort()
		restoreOnError()
		return err
	}
	// uploadTable may have landed the table off home; trust its metadata,
	// not the intended tier, from here on.
	t := outs[0]

	edit := &manifest.VersionEdit{
		Added:         []manifest.AddedFile{{Level: 0, Meta: t.meta}},
		HasFlushedSeq: true,
		FlushedSeq:    t.meta.MaxSeq,
		HasLastSeq:    true,
		LastSeq:       d.lastSeq.Load(),
	}
	err = d.vs.LogAndApply(edit)
	sink.release()
	if err != nil {
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
