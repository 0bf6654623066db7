// Package flight is the engine's black-box flight recorder and anomaly
// detector: a bounded lock-free ring of recent events (tapped off the
// event.Listener fan-out as event.Func(ring.Add)), a rule engine evaluated
// on each vitals tick (latency spikes, breaker trips, stalls, debt growth,
// cache collapse, shard skew, cost spikes — each with hysteresis and
// per-rule cooldowns), and atomic postmortem bundle dumps when a rule fires.
//
// Like internal/vitals, the package is engine-agnostic: it depends only on
// the event and vitals vocabularies plus byte slices the DB hands it, so
// internal/db can import it without a cycle. Every store runs the detector;
// the ring joins the DB's listener chain exactly like the trace writer, but
// only in a store with a bundle directory (Options.FlightDir), so a store
// without one pays nothing per event.
package flight

import (
	"sort"
	"sync/atomic"
	"time"

	"rocksmash/internal/event"
)

// Entry is one captured event in the flight ring.
type Entry struct {
	// Seq is the entry's global sequence number (total events ever recorded
	// precede it); the snapshot is ordered by it.
	Seq      uint64     `json:"seq"`
	UnixNano int64      `json:"ts"`
	Type     event.Type `json:"type"`
	Data     any        `json:"data"`
}

// Time returns the entry's wall-clock time.
func (e Entry) Time() time.Time { return time.Unix(0, e.UnixNano) }

// Ring is a bounded lock-free multi-writer event buffer with
// oldest-dropped overflow: writers claim a slot with one fetch-add and
// publish the entry through an atomic pointer, so recording never blocks
// and never waits on readers. Snapshot reassembles the retained window in
// sequence order, skipping slots a writer is mid-publish on.
type Ring struct {
	slots []atomic.Pointer[Entry]
	mask  uint64
	head  atomic.Uint64 // next sequence number to claim
}

// NewRing returns a ring retaining at least capacity entries (rounded up
// to a power of two, minimum 16).
func NewRing(capacity int) *Ring {
	n := 16
	for n < capacity {
		n <<= 1
	}
	return &Ring{slots: make([]atomic.Pointer[Entry], n), mask: uint64(n - 1)}
}

// Cap returns the ring's slot count.
func (r *Ring) Cap() int { return len(r.slots) }

// Add records one event. Safe for concurrent use; when the ring is full
// the oldest entry is overwritten. event.Func(r.Add) is the ring's
// event.Listener.
func (r *Ring) Add(typ event.Type, data any) {
	seq := r.head.Add(1) - 1
	r.slots[seq&r.mask].Store(&Entry{
		Seq:      seq,
		UnixNano: time.Now().UnixNano(),
		Type:     typ,
		Data:     data,
	})
}

// Recorded returns the total number of events ever recorded; Dropped how
// many have been overwritten by ring overflow.
func (r *Ring) Recorded() uint64 { return r.head.Load() }

// Dropped returns how many recorded events have aged out of the ring.
func (r *Ring) Dropped() uint64 {
	if h := r.head.Load(); h > uint64(len(r.slots)) {
		return h - uint64(len(r.slots))
	}
	return 0
}

// Snapshot copies out the retained window, oldest first. Entries a
// concurrent writer has claimed but not yet published are skipped (their
// slot still holds an entry from a lapped generation), so a snapshot is
// always a consistent, ordered subsequence of the recorded stream.
func (r *Ring) Snapshot() []Entry {
	h := r.head.Load()
	n := uint64(len(r.slots))
	lo := uint64(0)
	if h > n {
		lo = h - n
	}
	out := make([]Entry, 0, h-lo)
	for i := range r.slots {
		p := r.slots[i].Load()
		if p != nil && p.Seq >= lo && p.Seq < h {
			out = append(out, *p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}
