package db

import (
	"sync"
	"time"

	"rocksmash/internal/batch"
	"rocksmash/internal/memtable"
	"rocksmash/internal/wal"
)

// recover replays WAL segments not covered by flushed tables. With the
// extended WAL, segments whose sequence range is wholly below the flushed
// watermark are skipped without being read, and the remainder are replayed
// by RecoveryParallelism goroutines, each rebuilding its segment into its
// own sorted run (the paper's fast parallel recovery — one memtable per
// recovered log, as RocksDB does). A recovered memtable is never written
// after replay, so a segment's run is built over the segment image, and
// sorted once at the segment's end on the goroutine that replayed it: an
// entry kept from a record in one block records where its key and value
// lie in the image, and only a record reassembled from fragments is
// copied. Replay thus touches each WAL byte once, with no skiplist insert
// per record. The runs are installed as read-only side memtables and drain
// into L0 at the next flush; sequence numbers in internal keys make
// cross-segment ordering a non-issue.
func (d *engine) recover() error {
	start := time.Now()
	flushed := d.vs.FlushedSeq()

	// A segment's run and counters belong to its replay goroutine; mu is
	// taken once per segment, to publish them.
	var (
		mu      sync.Mutex
		maxSeq  = d.lastSeq.Load()
		applied int64
		rec     []*memtable.Run
	)
	stats, err := d.wal.Replay(flushed, d.opts.RecoveryParallelism, func(seg *wal.ReplaySegment) error {
		run := memtable.NewRun(seg.Image, replayEntries(seg, flushed))
		var segMax uint64
		err := seg.Records(func(payload []byte, off int) error {
			return batch.IterateAt(payload, func(op batch.OpAt) error {
				segMax = max(segMax, op.Seq)
				if op.Seq <= flushed {
					// Already durable in an SSTable (segment straddling
					// the watermark); skip the entry.
					return nil
				}
				if off == wal.Reassembled {
					return run.Add(op.Seq, op.Kind, payload[op.KeyOff:op.KeyOff+op.KeyLen], payload[op.ValOff:op.ValOff+op.ValLen])
				}
				return run.AddAt(op.Seq, op.Kind, off+op.KeyOff, op.KeyLen, off+op.ValOff, op.ValLen)
			})
		})
		if err != nil {
			return err
		}
		run.Finish()
		mu.Lock()
		defer mu.Unlock()
		maxSeq = max(maxSeq, segMax)
		applied += int64(run.Len())
		if !run.Empty() {
			rec = append(rec, run)
		}
		return nil
	})
	if err != nil {
		return err
	}

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

// replayEntries is the number of entries a segment's run is sized for: the
// sequence numbers above flushed in the segment's range, one per operation,
// when the segment was sealed with its range; none (the index grows as it
// fills) for the segment active at the crash. A range that cannot fit the
// image (an op takes at least 2 payload bytes) is not trusted past that. On
// a sharded store the range overstates the segment's operations: the
// engines draw sequence numbers from one source, so it spans about Shards
// times as many. That is left to Run.Finish, which trims an index holding
// less than half its capacity; no guess at how writes spread over the
// shards is made here.
func replayEntries(seg *wal.ReplaySegment, flushed uint64) int {
	lo := max(seg.MinSeq, flushed+1)
	if seg.MaxSeq == 0 || seg.MaxSeq < lo {
		return 0
	}
	return int(min(seg.MaxSeq-lo+1, uint64(len(seg.Image)/2)))
}
