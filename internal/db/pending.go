package db

import (
	"time"

	"rocksmash/internal/manifest"
	"rocksmash/internal/retry"
	"rocksmash/internal/sstable"
	"rocksmash/internal/storage"
)

// This file implements the degraded-mode machinery behind the cloud
// fault-tolerance layer:
//
//   - the pending-upload drainer, which migrates tables landed on local
//     storage during an outage (FileMetadata.PendingCloud) to the cloud
//     tier once the circuit breaker closes;
//   - the deferred-delete queue, which retries object deletions that
//     failed during compaction retirement (the version no longer
//     references them, so losing a delete must not fail the compaction);
//   - the orphan sweep at Open, which removes table objects no version
//     references (crash between an object write and its manifest edit).
//
// Invariants:
//
//   - A PendingCloud file is always on TierLocal and readable locally; the
//     manifest never references a cloud object that is not durable.
//   - Migration is atomic in the manifest: one edit deletes the local
//     entry and re-adds it as TierCloud with the flag cleared, applied
//     only after the cloud object and its metadata sidecar are durable.
//   - The drainer is the only mutator of a file's tier, and it re-verifies
//     the file is still live under compactionMu before the edit, so a
//     concurrent compaction can never resurrect a retired table.

// deferredDelete is an object deletion that failed and awaits retry.
type deferredDelete struct {
	tier storage.Tier
	name string
}

// deferDelete queues an object deletion for the drainer to retry.
func (d *engine) deferDelete(tier storage.Tier, name string) {
	d.deferredMu.Lock()
	d.deferred = append(d.deferred, deferredDelete{tier: tier, name: name})
	d.deferredMu.Unlock()
	d.stats.DeferredDeletes.Add(1)
}

// onCloudRetry is the Reliable wrapper's retry observer: it keeps the
// per-direction retry counters and fires the CloudRetry event.
func (d *engine) onCloudRetry(op, name string, attempt int, err error, delay time.Duration) {
	if op == "put" {
		d.stats.UploadRetries.Add(1)
	} else {
		d.stats.ReadRetries.Add(1)
	}
	d.evCloudRetry(op, name, attempt, err)
}

// tierRecovered is called when either tier's breaker closes: it nudges the
// drainer so the pending (or misplaced) backlog starts migrating
// immediately, and reschedules compactions deferred during the outage.
func (d *engine) tierRecovered() {
	select {
	case d.drainWake <- struct{}{}:
	default:
	}
	d.scheduleWork()
}

// drainLoop runs until shutdown, retrying deferred deletes and migrating
// pending-upload tables. Each round is also the outage probe: the first
// cloud request either passes (half-open probe admitted) or fails fast
// with ErrCloudUnavailable, so recovery needs no foreground traffic.
func (d *engine) drainLoop() {
	defer close(d.drainDone)
	ticker := time.NewTicker(d.opts.PendingDrainInterval)
	defer ticker.Stop()
	for {
		select {
		case <-d.bgQuit:
			return
		case <-ticker.C:
		case <-d.drainWake:
		}
		d.drainDeferredDeletes()
		if d.cloudRel != nil {
			d.drainPending()
			// While the local breaker is open the drain-back fails fast
			// without touching the cloud; once the cooldown elapses the
			// round itself carries the recovery probe (drainBackOne's local
			// write), so recovery needs no foreground traffic.
			if d.localBreaker.State() != retry.StateOpen || d.localBreaker.ProbeDue() {
				d.drainMisplaced()
			}
			d.mirrorLocals()
		}
	}
}

// drainDeferredDeletes retries queued deletions, re-queueing failures.
func (d *engine) drainDeferredDeletes() {
	d.deferredMu.Lock()
	q := d.deferred
	d.deferred = nil
	d.deferredMu.Unlock()
	if len(q) == 0 {
		return
	}
	var keep []deferredDelete
	for _, dd := range q {
		if err := d.backendFor(dd.tier).Delete(dd.name); err != nil {
			keep = append(keep, dd)
		}
	}
	if len(keep) > 0 {
		d.deferredMu.Lock()
		d.deferred = append(keep, d.deferred...)
		d.deferredMu.Unlock()
	}
}

// pendingFile locates one PendingCloud file in a version snapshot.
type pendingFile struct {
	level int
	meta  manifest.FileMetadata
}

func (d *engine) nextPending() *pendingFile {
	var out *pendingFile
	d.vs.Current().AllFiles(func(level int, f *manifest.FileMetadata) {
		if out == nil && f.PendingCloud {
			out = &pendingFile{level: level, meta: *f}
		}
	})
	return out
}

// drainPending migrates pending tables one at a time until the backlog is
// empty or the cloud stops cooperating.
func (d *engine) drainPending() {
	for {
		select {
		case <-d.bgQuit:
			return
		default:
		}
		p := d.nextPending()
		if p == nil {
			return
		}
		if !d.drainOne(p.level, p.meta) {
			return
		}
	}
}

// drainOne uploads one pending table to the cloud and installs the tier
// change. It returns false when the round should stop (cloud still down,
// shutdown, manifest failure) and true when the drainer may continue with
// the next candidate.
func (d *engine) drainOne(level int, meta manifest.FileMetadata) bool {
	name := manifest.TableName(meta.Num)
	start := time.Now()
	data, err := d.local.ReadAll(name)
	if err != nil {
		// The table vanished: a concurrent compaction retired it between the
		// version snapshot and now. The next round sees the fresh version.
		return true
	}
	attempts, err := d.cloudPut(name, data)
	if err != nil {
		// Cloud still unreachable (breaker open fails fast); try next tick.
		return false
	}
	tailOff, tail, err := sstable.MetaTail(bytesReader{data})
	if err == nil {
		err = d.writeMetaSidecar(meta.Num, tailOff, tail)
	}
	if err != nil {
		_ = d.cloud.Delete(name)
		return false
	}

	// Install the migration, re-verifying liveness under compactionMu so a
	// concurrent compaction cannot retire the file between our check and
	// the manifest append (LogAndApply persists before applying, so a
	// conflicting edit must be impossible, not merely detected).
	d.compactionMu.Lock()
	live := false
	for _, f := range d.vs.Current().Levels[level] {
		if f.Num == meta.Num && f.PendingCloud {
			live = true
			break
		}
	}
	if !live {
		d.compactionMu.Unlock()
		// Compacted away mid-drain: the cloud copy and sidecar are orphans.
		_ = d.cloud.Delete(name)
		_ = d.local.Delete(metaSidecarName(meta.Num))
		return true
	}
	newMeta := meta
	newMeta.Tier = storage.TierCloud
	newMeta.PendingCloud = false
	err = d.vs.LogAndApply(&manifest.VersionEdit{
		Deleted: []manifest.DeletedFile{{Level: level, Num: meta.Num}},
		Added:   []manifest.AddedFile{{Level: level, Meta: newMeta}},
	})
	d.compactionMu.Unlock()
	if err != nil {
		// Manifest I/O failure is a local-tier problem; wedge like any
		// other background failure.
		d.mu.Lock()
		if d.bgErr == nil {
			d.bgErr = err
		}
		d.immWake.Broadcast()
		d.mu.Unlock()
		return false
	}
	// Counted with the edit, not after the cleanup below: a reader that sees
	// the backlog gauge drop must already see the counter.
	d.stats.DrainedTables.Add(1)

	// The handle cached for the local file must be reopened against the
	// cloud tier (with its sidecar overlay) on next use. Block-cache
	// entries are content-identical and stay valid.
	d.tables.evict(meta.Num)
	if err := d.local.Delete(name); err != nil {
		d.deferDelete(storage.TierLocal, name)
	}
	if d.opts.Policy == PolicyMash {
		// Keep the just-migrated data warm: it was serving reads locally a
		// moment ago and must not fall off a latency cliff.
		_ = d.warmPCache(&builtTable{meta: newMeta, metaOff: tailOff, data: data})
	}
	d.evTableUploaded(meta.Num, storage.TierCloud, int64(meta.Size), attempts, time.Since(start), false)
	return true
}

// nextMisplaced locates one misplaced file: a table sitting on the cloud
// tier whose level belongs to the local tier under the placement policy —
// the footprint of a cloud-direct landing during local degradation.
func (d *engine) nextMisplaced() *pendingFile {
	var out *pendingFile
	d.vs.Current().AllFiles(func(level int, f *manifest.FileMetadata) {
		if out == nil && d.isMisplaced(level, f) {
			out = &pendingFile{level: level, meta: *f}
		}
	})
	return out
}

func (d *engine) isMisplaced(level int, f *manifest.FileMetadata) bool {
	return f.Tier == storage.TierCloud && !f.PendingCloud &&
		d.opts.tierForLevel(level) == storage.TierLocal
}

// drainMisplaced migrates misplaced tables back to local storage one at a
// time until the backlog is empty or either tier stops cooperating.
func (d *engine) drainMisplaced() {
	for {
		select {
		case <-d.bgQuit:
			return
		default:
		}
		p := d.nextMisplaced()
		if p == nil {
			return
		}
		if !d.drainBackOne(p.level, p.meta) {
			return
		}
	}
}

// drainBackOne copies one misplaced table's bytes back to local storage and
// installs the tier change, mirroring drainOne's liveness discipline. The
// local write doubles as the local breaker's recovery probe: it runs only
// when Allow() admits it, and its outcome is reported back.
func (d *engine) drainBackOne(level int, meta manifest.FileMetadata) bool {
	name := manifest.TableName(meta.Num)
	data, err := d.cloud.ReadAll(name)
	if err != nil {
		// Cloud unreachable (or the object vanished with its table mid-race);
		// stop the round and let the next tick re-evaluate the fresh version.
		return false
	}
	if !d.localBreaker.Allow() {
		return false
	}
	if err := storage.WriteObject(d.local, name, data); err != nil {
		d.localBreaker.Failure()
		return false
	}
	d.localBreaker.Success()

	d.compactionMu.Lock()
	live := false
	for _, f := range d.vs.Current().Levels[level] {
		if f.Num == meta.Num && f.Tier == storage.TierCloud {
			live = true
			break
		}
	}
	if !live {
		d.compactionMu.Unlock()
		// Compacted away mid-drain: the fresh local copy is an orphan.
		_ = d.local.Delete(name)
		return true
	}
	newMeta := meta
	newMeta.Tier = storage.TierLocal
	err = d.vs.LogAndApply(&manifest.VersionEdit{
		Deleted: []manifest.DeletedFile{{Level: level, Num: meta.Num}},
		Added:   []manifest.AddedFile{{Level: level, Meta: newMeta}},
	})
	d.compactionMu.Unlock()
	if err != nil {
		d.mu.Lock()
		if d.bgErr == nil {
			d.bgErr = err
		}
		d.immWake.Broadcast()
		d.mu.Unlock()
		return false
	}
	d.stats.LocalDrainedBack.Add(1)

	// Reopen against the local tier on next use; the sidecar is no longer
	// referenced (local-tier tables carry their metadata in-file).
	d.tables.evict(meta.Num)
	if err := d.local.Delete(metaSidecarName(meta.Num)); err != nil {
		d.deferDelete(storage.TierLocal, metaSidecarName(meta.Num))
	}
	if d.opts.MirrorLocalLevels {
		// The cloud object we just copied from is a byte-identical mirror of
		// the new local table; keep it as the repair source.
		d.markMirrored(meta.Num)
	} else if err := d.cloud.Delete(name); err != nil {
		d.deferDelete(storage.TierCloud, name)
	}
	return true
}

// markMirrored / isMirrored / dropMirror track which local-tier tables have
// a byte-identical cloud copy. dropMirror reports whether the table was
// mirrored, so compaction retirement knows to delete the cloud object.
func (d *engine) markMirrored(num uint64) {
	d.mirrorMu.Lock()
	d.mirrored[num] = true
	d.mirrorMu.Unlock()
}

func (d *engine) isMirrored(num uint64) bool {
	d.mirrorMu.Lock()
	defer d.mirrorMu.Unlock()
	return d.mirrored[num]
}

func (d *engine) dropMirror(num uint64) bool {
	d.mirrorMu.Lock()
	defer d.mirrorMu.Unlock()
	if !d.mirrored[num] {
		return false
	}
	delete(d.mirrored, num)
	return true
}

// mirrorLocals lazily uploads local-tier tables to the cloud so every table
// has a repair source (Options.MirrorLocalLevels). It rides the drainer —
// strictly off the write path — and verifies each table's checksums before
// upload so a mirror is never seeded from already-damaged bytes.
func (d *engine) mirrorLocals() {
	if !d.opts.MirrorLocalLevels {
		return
	}
	var cands []uint64
	d.vs.Current().AllFiles(func(level int, f *manifest.FileMetadata) {
		if f.Tier == storage.TierLocal && !f.PendingCloud &&
			!d.isMirrored(f.Num) && !d.isQuarantined(f.Num) {
			cands = append(cands, f.Num)
		}
	})
	for _, num := range cands {
		select {
		case <-d.bgQuit:
			return
		default:
		}
		name := manifest.TableName(num)
		data, err := d.local.ReadAll(name)
		if err != nil {
			continue // retired mid-round; the next round sees the fresh version
		}
		if err := d.verifyTableBytes(data, num); err != nil {
			// Never poison the mirror: the read path and scrubber classify
			// the damage through their own channels.
			continue
		}
		if _, err := d.cloudPut(name, data); err != nil {
			return // cloud uncooperative; next tick
		}
		// A compaction may have retired the table mid-upload, in which case
		// its retirement already passed dropMirror (a no-op then) and the
		// fresh cloud object is an orphan until the next Open's sweep.
		live := false
		d.vs.Current().AllFiles(func(level int, f *manifest.FileMetadata) {
			if f.Num == num && f.Tier == storage.TierLocal {
				live = true
			}
		})
		if !live {
			if err := d.cloud.Delete(name); err != nil {
				d.deferDelete(storage.TierCloud, name)
			}
			continue
		}
		d.markMirrored(num)
		d.stats.MirroredTables.Add(1)
	}
}

// cleanOrphans removes table objects and metadata sidecars that no version
// references: leftovers of a crash between an object write and its
// manifest edit, or of a degraded-mode drain cut short. It runs during
// Open, before background work starts. The cloud sweep is skipped wholesale
// when the cloud is unreachable (the next Open retries it).
func (d *engine) cleanOrphans() {
	localRef := map[string]bool{}
	cloudRef := map[string]bool{}
	sidecarRef := map[string]bool{}
	localNum := map[string]uint64{}
	d.vs.Current().AllFiles(func(level int, f *manifest.FileMetadata) {
		name := manifest.TableName(f.Num)
		// Every live table's cloud object is legitimate regardless of tier:
		// cloud-tier primaries, lazy mirrors of local-tier tables, and copies
		// left mid-flight by a drain in either direction.
		cloudRef[name] = true
		if f.Tier == storage.TierCloud {
			sidecarRef[metaSidecarName(f.Num)] = true
		} else {
			localRef[name] = true
			localNum[name] = f.Num
		}
	})
	if names, err := d.local.List("sst/"); err == nil {
		for _, n := range names {
			if !localRef[n] {
				_ = d.local.Delete(n)
			}
		}
	}
	if names, err := d.local.List("meta/"); err == nil {
		for _, n := range names {
			if !sidecarRef[n] {
				_ = d.local.Delete(n)
			}
		}
	}
	// Sorted-view sidecars are valid only when named for the exact current
	// membership of their level; anything else is leftover from a previous
	// run's compactions.
	viewRef := map[string]bool{}
	cur := d.vs.Current()
	for l := 1; l < manifest.NumLevels; l++ {
		if len(cur.Levels[l]) > 0 {
			viewRef[manifest.ViewName(l, manifest.ViewFingerprint(cur.Levels[l]))] = true
		}
	}
	if names, err := d.local.List(manifest.ViewPrefix); err == nil {
		for _, n := range names {
			if !viewRef[n] {
				_ = d.local.Delete(n)
			}
		}
	}
	if d.cloud == nil {
		return
	}
	if names, err := d.cloud.List("sst/"); err == nil {
		for _, n := range names {
			if !cloudRef[n] {
				_ = d.cloud.Delete(n)
			} else if num, ok := localNum[n]; ok {
				// A cloud copy of a live local-tier table is a mirror from a
				// previous run; remember it so the mirror pass skips it and
				// the repair path can trust that a source may exist.
				d.markMirrored(num)
			}
		}
	}
}

// PendingCloudTables reports the degraded-mode backlog: how many tables
// (and bytes) are on local storage awaiting upload to the cloud tier.
func (d *DB) PendingCloudTables() (tables int, bytes int64) {
	d.allFiles(func(_ *engine, _ int, f *manifest.FileMetadata) {
		if f.PendingCloud {
			tables++
			bytes += int64(f.Size)
		}
	})
	return tables, bytes
}

// BreakerState returns the cloud circuit breaker's position ("closed",
// "open", "half-open"), or "" when the DB has no cloud tier.
func (d *DB) BreakerState() string {
	if d.breaker == nil {
		return ""
	}
	return d.breaker.State().String()
}

// LocalBreakerState returns the local tier's breaker position.
func (d *DB) LocalBreakerState() string { return d.localBreaker.State().String() }

// MisplacedTables reports how many tables are sitting on the cloud tier
// while their level belongs to the local tier — the drain-back backlog
// left by a local-degraded episode.
func (d *DB) MisplacedTables() int {
	n := 0
	d.allFiles(func(e *engine, level int, f *manifest.FileMetadata) {
		if e.isMisplaced(level, f) {
			n++
		}
	})
	return n
}
