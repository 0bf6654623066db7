package db

import (
	"sync"
	"sync/atomic"
)

// seqSource is the sequence-number authority: it allocates contiguous
// sequence ranges to commits and tracks two visibility frontiers over the
// shared allocation order. The DB facade owns one and every engine commits
// through it, which is what keeps snapshots and iterators consistent
// across engines — a snapshot at sequence S observes exactly the writes
// with sequence ≤ S, no matter which engine's memtable they landed in.
//
// The two frontiers exist so engines do not serialize on each other's WAL
// writes (with one engine they coincide):
//
//   - Each engine acknowledges its writers at its own frontier: an
//     entry's visible signal fires once every earlier entry of the same
//     engine has been applied. A point Get on engine e depends only on
//     writes to engine e, so acking there preserves read-your-writes
//     without making a commit wait out another engine's in-flight group.
//
//   - The global watermark (visible) advances only when every entry
//     allocated before it — on any engine — has been applied. Snapshots
//     and merged iterators read at this watermark; waitVisible lets them
//     first catch it up to the acked frontier, so a snapshot taken after
//     a Put returned always includes that Put. The lag is bounded by
//     in-flight commit time (the window between a group's sequence
//     allocation and its memtable apply), not by anyone blocking on it.
type seqSource struct {
	// mu guards nextSeq and both pending rings together: allocation and
	// ring append must be atomic with respect to each other across
	// concurrent engines' leaders, or the rings would not be in sequence
	// order. Per-engine rings live on each engine (ackRing/ackHead) but
	// are guarded by this same lock.
	mu      sync.Mutex
	nextSeq uint64
	// pending is the global ring in allocation order. It holds plain
	// (seq, done) slots rather than entry pointers: an entry is released
	// to its pool as soon as its owner is acked at its engine's frontier,
	// which can happen while the global ring is still waiting on another
	// engine's earlier group.
	pending []gslot
	head    int
	// base is the absolute allocation index of pending[0]; entries record
	// their own absolute index (gidx) so markApplied can find their slot
	// after the ring compacts.
	base uint64

	// visible is the published global watermark: the newest sequence all
	// of whose predecessors are applied. Readers load it lock-free.
	visible atomic.Uint64

	// waiters counts goroutines blocked in waitVisible; markApplied only
	// takes the wake lock when someone is actually waiting.
	waiters atomic.Int64
	wakeMu  sync.Mutex
	wake    *sync.Cond
}

type gslot struct {
	seq  uint64
	done bool
}

// ringCompactAt bounds how far a ring's acked prefix may grow before the
// live tail is shifted down in place.
const ringCompactAt = 1024

func newSeqSource() *seqSource {
	ss := &seqSource{nextSeq: 1}
	ss.wake = sync.NewCond(&ss.wakeMu)
	return ss
}

// raise lifts the allocator and the watermark to cover sequences ≤ last.
// Called after each engine's recovery: replayed writes are already applied,
// so they are visible by definition.
func (ss *seqSource) raise(last uint64) {
	ss.mu.Lock()
	if last+1 > ss.nextSeq {
		ss.nextSeq = last + 1
	}
	ss.mu.Unlock()
	raiseMax(&ss.visible, last)
}

// enqueueLocked records a freshly allocated entry in both rings. Caller
// holds ss.mu and has already assigned e's sequences and owner d.
func (ss *seqSource) enqueueLocked(d *engine, e *commitEntry) {
	e.gidx = ss.base + uint64(len(ss.pending))
	ss.pending = append(ss.pending, gslot{seq: e.maxSeq})
	d.ackRing = append(d.ackRing, e)
}

// markApplied records that e's owner finished its memtable apply, acks
// every leading applied entry of e's engine in allocation order, and
// advances the global watermark past every leading applied slot.
func (ss *seqSource) markApplied(e *commitEntry) {
	var (
		one  *commitEntry
		many []*commitEntry
		vis  uint64
	)
	d := e.d
	ss.mu.Lock()
	e.applied = true
	ss.pending[e.gidx-ss.base].done = true

	// Engine frontier: ack this engine's contiguous applied prefix.
	for d.ackHead < len(d.ackRing) {
		front := d.ackRing[d.ackHead]
		if !front.applied {
			break
		}
		d.ackRing[d.ackHead] = nil
		d.ackHead++
		if one == nil {
			one = front
		} else {
			many = append(many, front)
		}
	}
	if d.ackHead == len(d.ackRing) {
		d.ackRing = d.ackRing[:0]
		d.ackHead = 0
	} else if d.ackHead >= ringCompactAt && d.ackHead*2 >= len(d.ackRing) {
		// Under sustained load the ring may never fully drain; shift the
		// live tail down so the acked prefix doesn't accumulate forever.
		n := copy(d.ackRing, d.ackRing[d.ackHead:])
		for i := n; i < len(d.ackRing); i++ {
			d.ackRing[i] = nil
		}
		d.ackRing = d.ackRing[:n]
		d.ackHead = 0
	}

	// Global frontier: pop applied slots regardless of owning engine. Slots
	// are values, so popping an entry another engine's owner has already
	// recycled is safe.
	for ss.head < len(ss.pending) {
		front := ss.pending[ss.head]
		if !front.done {
			break
		}
		ss.head++
		vis = front.seq
	}
	if ss.head == len(ss.pending) {
		ss.base += uint64(len(ss.pending))
		ss.pending = ss.pending[:0]
		ss.head = 0
	} else if ss.head >= ringCompactAt && ss.head*2 >= len(ss.pending) {
		n := copy(ss.pending, ss.pending[ss.head:])
		ss.pending = ss.pending[:n]
		ss.base += uint64(ss.head)
		ss.head = 0
	}
	ss.mu.Unlock()

	// Publish outside ss.mu: SetLastSeq contends with the manifest lock,
	// which flushes hold across an fsync — publishing under ss.mu would
	// stall every engine's commits behind one engine's manifest write. All
	// stores are raise-only, so out-of-order publication between
	// concurrent markApplied calls cannot regress a frontier, and each
	// entry's visible signal still follows its own stores.
	if one != nil {
		publishAcked(one)
		for _, front := range many {
			publishAcked(front)
		}
	}
	if vis > 0 {
		raiseMax(&ss.visible, vis)
		if ss.waiters.Load() > 0 {
			ss.wakeMu.Lock()
			ss.wake.Broadcast()
			ss.wakeMu.Unlock()
		}
	}
}

// publishAcked publishes front at its engine's acked frontier and releases
// its writer. After the signal the owner may recycle the entry.
func publishAcked(front *commitEntry) {
	raiseMax(&front.d.lastSeq, front.maxSeq)
	front.d.vs.SetLastSeq(front.maxSeq)
	front.visible <- struct{}{}
}

// waitVisible blocks until the global watermark reaches target. Snapshot
// and iterator creation use it to fold every already-acked write into the
// watermark before pinning it.
func (ss *seqSource) waitVisible(target uint64) {
	if ss.visible.Load() >= target {
		return
	}
	ss.waiters.Add(1)
	ss.wakeMu.Lock()
	for ss.visible.Load() < target {
		ss.wake.Wait()
	}
	ss.wakeMu.Unlock()
	ss.waiters.Add(-1)
}

// raiseMax lifts a to at least v (CAS loop; raise-only).
func raiseMax(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}
