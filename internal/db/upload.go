package db

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rocksmash/internal/storage"
)

// uploadParallelism is how many compaction output tables upload at once
// while the merge keeps running.
const uploadParallelism = 4

// uploader ships finished compaction output tables to their tier while the
// merge keeps running: up to uploadParallelism uploads proceed concurrently,
// each with uploadTable's retry semantics. wait must be called (and return
// nil) before the outputs are installed in the manifest, so installation
// stays atomic.
type uploader struct {
	d    *engine
	warm bool
	sem  chan struct{}
	wg   sync.WaitGroup

	mu       sync.Mutex
	err      error
	uploaded []*builtTable

	// ns sums per-table upload wall time (including pcache warming). Uploads
	// overlap, so this can exceed the compaction's elapsed time; the sum
	// still measures how much work the upload stage absorbed.
	ns atomic.Int64
}

// dur returns the summed upload wall time recorded so far.
func (u *uploader) dur() time.Duration { return time.Duration(u.ns.Load()) }

func (d *engine) newUploader(warm bool) *uploader {
	return &uploader{d: d, warm: warm, sem: make(chan struct{}, uploadParallelism)}
}

// add hands a finished table to the pool. It blocks only when
// uploadParallelism uploads are already in flight (backpressure so the merge
// cannot build output tables faster than they drain).
func (u *uploader) add(t *builtTable) {
	u.sem <- struct{}{}
	u.wg.Add(1)
	go func() {
		defer u.wg.Done()
		defer func() { <-u.sem }()
		u.record(t, u.uploadOne(t))
	}()
}

func (u *uploader) uploadOne(t *builtTable) error {
	start := time.Now()
	defer func() { u.ns.Add(time.Since(start).Nanoseconds()) }()
	if err := u.d.uploadTable(t); err != nil {
		return fmt.Errorf("db: compaction upload: %w", err)
	}
	// A degraded landing leaves the table on local storage; skip warming —
	// the persistent cache only fronts cloud-tier reads.
	if u.warm && t.meta.Tier == storage.TierCloud {
		return u.d.warmPCache(t)
	}
	return nil
}

func (u *uploader) record(t *builtTable, err error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if err != nil {
		if u.err == nil {
			u.err = err
		}
		return
	}
	u.uploaded = append(u.uploaded, t)
}

// peekErr reports the first failure recorded so far without waiting, so the
// merge loop can stop producing outputs early.
func (u *uploader) peekErr() error {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.err
}

// wait blocks until every submitted upload finished and returns the first
// failure, if any.
func (u *uploader) wait() error {
	u.wg.Wait()
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.err
}

// abort waits out in-flight uploads and then deletes every output object
// (and local metadata sidecar) that already landed, so a failed compaction
// does not leak orphaned tables into the cloud backend. A delete that fails
// (cloud breaker open during an outage) goes on the deferred queue and the
// drainer retries it once the cloud recovers.
func (u *uploader) abort() {
	u.wg.Wait()
	u.mu.Lock()
	uploaded := u.uploaded
	u.uploaded = nil
	u.mu.Unlock()
	for _, t := range uploaded {
		u.d.removeTable(t.meta.Tier, t.meta.Num)
	}
}
