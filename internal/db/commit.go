package db

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rocksmash/internal/batch"
	"rocksmash/internal/event"
	"rocksmash/internal/memtable"
	"rocksmash/internal/wal"
)

// commitEntry is one writer's batch travelling through the commit pipeline.
// Entries are pooled: the signal channels are 1-buffered and signalled by
// send (never closed), so a drained entry can be reset and reused without
// reallocating channels — commits become allocation-free in steady state.
type commitEntry struct {
	b *batch.Batch
	// d is the engine this entry commits into; the shared seqSource
	// publishes the entry's sequence to d's acked frontier and manifest
	// when it becomes visible.
	d *engine
	// mem is the memtable the group leader captured for this entry; the
	// owning writer applies its batch there after the group's WAL write.
	mem    *memtable.MemTable
	maxSeq uint64
	err    error

	// gidx is this entry's absolute allocation index in the seqSource's
	// global ring, assigned at enqueue; markApplied uses it to find the
	// entry's slot after ring compaction.
	gidx uint64

	// wake is signalled by the group leader once sequences are assigned and
	// the WAL write is done — or, for the head of the follow-up queue, when
	// it is promoted to lead the next group (promoted tells the two apart).
	wake     chan struct{}
	promoted bool
	// applied flips (under the seqSource lock) once the owning writer
	// finished its memtable apply; markApplied pops entries off the pending
	// ring in commit order only while the head has applied, so readers
	// never observe a sequence gap.
	applied bool
	// visible is signalled when the entry's maxSeq has been published as
	// its engine's acked frontier.
	visible chan struct{}
}

// entryPool recycles commitEntries across commits. An entry re-enters the
// pool only after its owner received the visible signal, at which point no
// other goroutine holds a live reference: publishVisible drops the pending
// slot before signalling, and the leader's group slice is abandoned before
// members are woken for the last time.
var entryPool = sync.Pool{
	New: func() any {
		return &commitEntry{
			wake:    make(chan struct{}, 1),
			visible: make(chan struct{}, 1),
		}
	},
}

// commitPipeline implements parallel group commit (the RocksDB write-group /
// Pebble commit-pipeline design). Concurrent writers enqueue their batches;
// the first writer to find the queue unled becomes the leader, claims every
// queued batch, assigns the group a contiguous sequence range under d.mu
// (atomically with memtable rotation), persists all payloads with a single
// vectored WAL append — one fsync for the whole group when WALSync is on —
// then hands leadership to the next queue head before applying its own
// batch, so the next group's WAL write overlaps this group's memtable
// inserts. Each member applies its own batch to the (concurrency-safe)
// memtable in parallel; a pending ring publishes lastSeq strictly in commit
// order, so a reader's snapshot never exposes sequence n+1 before n is in
// the memtable.
type commitPipeline struct {
	d *engine

	// qmu guards the writer queue and the leading flag. qfree is a spare
	// backing array recycled from claimed groups so steady-state enqueues
	// don't grow a fresh slice per group.
	qmu     sync.Mutex
	queue   []*commitEntry
	qfree   []*commitEntry
	leading bool

	// Sequence allocation and the pending visibility ring live in the
	// store's seqSource (d.seqs): allocation runs ahead of visibility while
	// appliers work, a failed group leaves a harmless hole, and every
	// engine's pipeline feeds the same source so the watermark stays
	// globally ordered.

	// inflight counts writers currently inside commit. Group formation
	// reads it (advisorily) to decide whether yielding could possibly add
	// a member: a lone writer must not defer its own fsync.
	inflight atomic.Int64

	// walBuf is the reusable vectored-append scratch. Leaders are mutually
	// exclusive from queue claim through AppendBatch return (handoff only
	// happens after the append), so a single buffer suffices.
	walBuf []wal.Entry
}

func newCommitPipeline(d *engine) *commitPipeline {
	return &commitPipeline{d: d}
}

// commit runs one batch through the pipeline, returning once the batch is
// in the WAL, applied to the memtable, and visible to readers.
func (p *commitPipeline) commit(b *batch.Batch) error {
	e := entryPool.Get().(*commitEntry)
	e.b = b
	e.d = nil
	e.mem = nil
	e.maxSeq = 0
	e.err = nil
	e.promoted = false
	e.applied = false

	p.inflight.Add(1)
	p.qmu.Lock()
	p.queue = append(p.queue, e)
	lead := !p.leading
	if lead {
		p.leading = true
	}
	p.qmu.Unlock()

	if !lead {
		// Wait for a leader to either carry this batch in its group or
		// promote this writer to lead the next one.
		<-e.wake
		lead = e.promoted
	}
	if lead {
		p.leadGroup(e)
	}

	// Sequences are assigned and the group's WAL write is done (or failed).
	// Apply our own batch; members of a group run this concurrently against
	// the same memtable.
	if e.err == nil {
		e.err = e.b.Iterate(func(op batch.Op) error {
			e.mem.Add(op.Seq, op.Kind, op.Key, op.Value)
			return nil
		})
	}
	e.mem.WriterDone()
	p.d.seqs.markApplied(e)
	<-e.visible
	p.inflight.Add(-1)
	err := e.err
	e.b, e.d, e.mem = nil, nil, nil
	entryPool.Put(e)
	return err
}

// leadGroup claims the queued batches (self included), assigns sequences,
// writes the coalesced group to the WAL, and hands off leadership.
func (p *commitPipeline) leadGroup(self *commitEntry) {
	d := p.d

	p.qmu.Lock()
	group := p.queue
	p.queue = p.qfree
	p.qfree = nil
	p.qmu.Unlock()

	// Group formation: a synced append pays one fsync regardless of group
	// size, so before the claim becomes final give runnable writers a
	// bounded chance to reach the queue — each yield lets a writer that
	// just finished the previous group re-enqueue and ride this fsync
	// instead of paying its own. Yielding only helps while some in-flight
	// writer is not yet in the group: a lone writer skips straight to its
	// fsync. Not worth it for unsynced appends, where the append itself
	// is cheaper than the yield.
	if d.opts.WALSync {
		for round := 0; round < 4 && p.inflight.Load() > int64(len(group)); round++ {
			runtime.Gosched()
			p.qmu.Lock()
			grew := len(p.queue) > 0
			group = append(group, p.queue...)
			p.queue = p.queue[:0]
			p.qmu.Unlock()
			if !grew {
				break
			}
		}
	}

	// Assign a contiguous sequence range and capture the target memtable
	// atomically with respect to rotation: makeRoomForWrite swaps d.mem
	// under the same lock, and RegisterWriters here is what lets a later
	// flush wait out in-flight appliers after the seal. Allocation and the
	// pending-ring append happen together under the seqSource lock (nested
	// inside d.mu) so the ring stays in sequence order even when leaders
	// of different engines race for the shared source.
	ss := d.seqs
	d.mu.Lock()
	mem := d.mem
	ss.mu.Lock()
	seq := ss.nextSeq
	for _, e := range group {
		e.b.SetSeq(seq)
		seq += uint64(e.b.Count())
		e.d = d
		e.mem = mem
		e.maxSeq = e.b.MaxSeq()
		ss.enqueueLocked(d, e)
	}
	ss.nextSeq = seq
	ss.mu.Unlock()
	mem.RegisterWriters(len(group))
	d.mu.Unlock()

	// One vectored WAL append for the whole group: a single segment-writer
	// critical section and, when WALSync is on, a single fsync amortized
	// over len(group) commits. The scratch slice is pipeline-owned: leaders
	// are exclusive until after AppendBatch returns.
	entries := p.walBuf
	if cap(entries) < len(group) {
		entries = make([]wal.Entry, len(group))
	} else {
		entries = entries[:len(group)]
	}
	var ops, bytes int64
	for i, e := range group {
		minSeq, maxSeq := e.b.SeqRange()
		entries[i] = wal.Entry{Payload: e.b.Payload(), MinSeq: minSeq, MaxSeq: maxSeq}
		ops += int64(e.b.Count())
		bytes += int64(e.b.Size())
	}
	p.walBuf = entries
	start := time.Now()
	_, err := d.wal.AppendBatch(entries)
	dur := time.Since(start)
	if err != nil {
		// The group's writes never reached the WAL; fail every member and
		// leave the allocated sequences as a hole (harmless: recovery and
		// visibility both tolerate gaps in the allocation space).
		for _, e := range group {
			e.err = err
		}
	} else {
		d.stats.Writes.Add(ops)
		d.stats.BytesWritten.Add(bytes)
		d.stats.CommitGroups.Add(1)
		d.stats.CommitGroupBatches.Add(int64(len(group)))
		if d.opts.WALSync {
			d.stats.WALSyncsAmortized.Add(int64(len(group) - 1))
		}
		d.evCommitGroup(event.CommitGroup{
			Batches:  len(group),
			Ops:      ops,
			Bytes:    bytes,
			Synced:   d.opts.WALSync,
			Duration: dur,
		})
	}

	// Hand leadership to the head of whatever queued up meanwhile, before
	// applying our own batch: the next group's WAL write proceeds while
	// this group's members insert into the memtable.
	p.qmu.Lock()
	if len(p.queue) > 0 {
		next := p.queue[0]
		next.promoted = true
		next.wake <- struct{}{}
	} else {
		p.leading = false
	}
	p.qmu.Unlock()

	// Release the members; the leader applies its own batch on return. A
	// woken member may finish, pool its entry, and see it reused while this
	// loop continues — the stale group pointers are never dereferenced
	// again, and the backing array is recycled only after they are cleared.
	for _, e := range group {
		if e != self {
			e.wake <- struct{}{}
		}
	}
	for i := range group {
		group[i] = nil
	}
	p.qmu.Lock()
	if p.qfree == nil {
		p.qfree = group[:0]
	}
	p.qmu.Unlock()
}
