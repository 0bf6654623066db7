package db

import (
	"errors"
	"slices"

	"rocksmash/internal/storage"
)

// Background work runs in two lanes per engine (DESIGN.md "flush lane and
// compaction slots"):
//
//   - The flush lane is one goroutine that flushes the sealed memtable as soon
//     as there is one. It never waits for a compaction, so a writer stalls on
//     a full memtable only for as long as a flush takes.
//   - The compaction lane starts jobs while there are jobs to start and slots
//     to run them in. A job holds one of the store's compactionSlots from
//     before its pick until after its CompactionEnd, so that constant is the
//     one limit on how many run, whatever the number of engines.
//
// A job is picked and reserved under compactionMu: it holds the user-key
// range of its inputs plus their overlap on both levels it touches, and a
// pick that would overlap a running job on a level they share is refused
// (pickCompaction). It pins the version it was picked from and releases the
// pin right after its install. compactionMu is taken again only to install.
//
// CompactAll is the deterministic path. It pauses background picks, waits out
// the running jobs, flushes, and then runs one job at a time on the caller's
// goroutine until nothing is left to pick. From the same tree and the same
// writes it runs the same jobs in the same order, which the benchmark's
// byte-identical set-up relies on.

// wake nudges the goroutine that waits on ch without blocking; one pending
// nudge stands for any number.
func wake(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// flushLane flushes each sealed memtable.
func (d *engine) flushLane() {
	defer close(d.flushDone)
	for {
		select {
		case <-d.bgQuit:
			return
		case <-d.flushWake:
		}
		d.mu.Lock()
		imm := d.imm
		d.mu.Unlock()
		if imm == nil {
			continue
		}
		err := d.flushMemtable(imm)
		d.mu.Lock()
		if err != nil {
			d.bgErr = err
		} else {
			d.imm = nil
			d.updateReadStateLocked()
		}
		d.immWake.Broadcast()
		d.mu.Unlock()
		if err == nil {
			wake(d.compactWake)
		}
	}
}

// compactionLane starts background compaction jobs.
func (d *engine) compactionLane() {
	defer close(d.compactDone)
	for {
		select {
		case <-d.bgQuit:
			return
		case <-d.compactWake:
		}
		for d.takeSlot() {
			c := d.reserve(false)
			if c == nil {
				d.returnSlot()
				break
			}
			d.jobs.Add(1)
			go d.backgroundCompaction(c)
		}
	}
}

// backgroundCompaction runs one job the lane started and settles what its
// outcome means for the engine.
func (d *engine) backgroundCompaction(c *compaction) {
	defer d.jobs.Done()
	err := d.runCompaction(c)
	d.returnSlot()
	switch {
	case err == nil:
		wake(d.compactWake)
	case errors.Is(err, storage.ErrCloudUnavailable):
		// Deferred, not fatal: the tree is unchanged, and the breaker's close
		// transition wakes the lane again.
		d.stats.CompactionsDeferred.Add(1)
	default:
		d.mu.Lock()
		d.bgErr = err
		d.immWake.Broadcast()
		d.mu.Unlock()
	}
}

// takeSlot waits for one of the store's compaction slots. It reports false
// when the engine is stopping.
func (d *engine) takeSlot() bool {
	select {
	case d.slots <- struct{}{}:
		return true
	case <-d.bgQuit:
		return false
	}
}

func (d *engine) returnSlot() { <-d.slots }

// reserve picks a job from the current version and reserves it, pinning that
// version; nil means there is nothing to start. A background pick finds
// nothing while CompactAll holds the lane paused. CompactAll's own pick
// (compactAll true) waits out running jobs when they are all that stands in
// its way, so it finds nothing only once the tree is quiescent.
func (d *engine) reserve(compactAll bool) *compaction {
	d.compactionMu.Lock()
	defer d.compactionMu.Unlock()
	if !compactAll && d.paused > 0 {
		return nil
	}
	for {
		v := d.vs.Acquire()
		if c := d.pickCompaction(v); c != nil {
			c.job = d.compactionJobs.Add(1)
			d.running = append(d.running, c)
			d.compactionsRunning.Add(1)
			return c
		}
		d.unpin(v)
		if !compactAll || len(d.running) == 0 {
			return nil
		}
		d.jobDone.Wait()
	}
}

// runCompaction runs a reserved job and then lets go of its reservation. It
// wakes writers stalled on L0 whichever lane ran the job: CompactAll's jobs
// drain L0 too, and no background job may follow them to do it.
func (d *engine) runCompaction(c *compaction) error {
	err := d.doCompaction(c)
	d.compactionMu.Lock()
	d.running = slices.DeleteFunc(d.running, func(r *compaction) bool { return r == c })
	d.jobDone.Broadcast()
	d.compactionMu.Unlock()
	d.compactionsRunning.Add(-1)
	d.mu.Lock()
	d.immWake.Broadcast() // L0 may have drained below the stall limit
	d.mu.Unlock()
	return err
}

// compactAll flushes and then compacts, one job at a time, until the tree is
// quiescent.
func (d *engine) compactAll() error {
	d.compactionMu.Lock()
	d.paused++
	for len(d.running) > 0 {
		d.jobDone.Wait()
	}
	d.compactionMu.Unlock()
	defer func() {
		d.compactionMu.Lock()
		d.paused--
		d.compactionMu.Unlock()
		wake(d.compactWake)
	}()
	if err := d.flush(); err != nil {
		return err
	}
	for {
		if !d.takeSlot() {
			return ErrClosed
		}
		c := d.reserve(true)
		if c == nil {
			d.returnSlot()
			return nil
		}
		err := d.runCompaction(c)
		d.returnSlot()
		if err != nil {
			return err
		}
	}
}
