package db

import (
	"sync"
	"time"

	"rocksmash/internal/batch"
	"rocksmash/internal/memtable"
)

// recover replays WAL segments not covered by flushed tables. With the
// extended WAL, segments whose sequence range is wholly below the flushed
// watermark are skipped without being read, and the remainder are replayed
// by RecoveryParallelism goroutines, each rebuilding its segment into its
// own memtable (the paper's fast parallel recovery — the same structure
// RocksDB uses, one memtable per recovered log). The per-segment memtables
// are installed as read-only side memtables and drain into L0 at the next
// flush; sequence numbers in internal keys make cross-segment ordering a
// non-issue.
func (d *engine) recover() error {
	start := time.Now()
	flushed := d.vs.FlushedSeq()

	var (
		mu      sync.Mutex
		maxSeq  = d.lastSeq.Load()
		applied int64
		tables  sync.Map // segment number -> *memtable.MemTable
	)
	stats, err := d.wal.Replay(flushed, d.opts.RecoveryParallelism, func(segNum uint64, payload []byte) error {
		b, err := batch.FromPayload(payload)
		if err != nil {
			return err
		}
		mti, ok := tables.Load(segNum)
		if !ok {
			mti, _ = tables.LoadOrStore(segNum, memtable.New())
		}
		mt := mti.(*memtable.MemTable) // one goroutine per segment: single writer
		var localMax uint64
		var localApplied int64
		err = b.Iterate(func(op batch.Op) error {
			if op.Seq > localMax {
				localMax = op.Seq
			}
			if op.Seq <= flushed {
				// Already durable in an SSTable (segment straddling the
				// watermark); skip the entry.
				return nil
			}
			mt.Add(op.Seq, op.Kind, op.Key, op.Value)
			localApplied++
			return nil
		})
		if err != nil {
			return err
		}
		mu.Lock()
		if localMax > maxSeq {
			maxSeq = localMax
		}
		applied += localApplied
		mu.Unlock()
		return nil
	})
	if err != nil {
		return err
	}

	var rec []*memtable.MemTable
	tables.Range(func(_, v any) bool {
		if m := v.(*memtable.MemTable); !m.Empty() {
			rec = append(rec, m)
		}
		return true
	})
	d.mu.Lock()
	d.recovered = rec
	d.updateReadStateLocked()
	d.mu.Unlock()

	d.lastSeq.Store(maxSeq)
	d.vs.SetLastSeq(maxSeq)

	d.recovery = RecoveryReport{
		WALSegments:   stats.SegmentsTotal,
		WALSkipped:    stats.SegmentsSkipped,
		WALRecords:    stats.Records,
		WALBytes:      stats.Bytes,
		RecoveredKeys: applied,
		Parallelism:   d.opts.RecoveryParallelism,
		Duration:      time.Since(start),
	}

	// Begin a fresh segment so post-recovery writes never append to a
	// segment that predates the crash.
	if err := d.wal.Roll(); err != nil {
		return err
	}
	// Segments left open by the crash now have a known upper bound; seal
	// them so future flushes can garbage-collect them.
	if err := d.wal.SealAll(maxSeq); err != nil {
		return err
	}
	// If recovery rebuilt a large volume, flush it promptly instead of
	// carrying it in memory.
	d.mu.Lock()
	big := d.recoveredBytesLocked() >= d.opts.MemtableBytes
	d.mu.Unlock()
	if big {
		if err := d.flushMemtable(nil); err != nil {
			return err
		}
		if err := d.wal.DeleteObsolete(d.vs.FlushedSeq()); err != nil {
			return err
		}
	}
	return nil
}
