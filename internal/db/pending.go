package db

import (
	"time"

	"rocksmash/internal/manifest"
	"rocksmash/internal/retry"
	"rocksmash/internal/storage"
)

// This file keeps every table on its home tier — the tier
// Options.tierForLevel assigns its level — or moves it back there:
//
//   - A table is off home when uploadTable could not reach its home tier and
//     landed it on the other one (output.go): on local storage for a cloud
//     home (FileMetadata.PendingCloud), or in the cloud for a local home
//     (recognised by level; offHome). The drainer relocates off-home tables
//     once the home tier cooperates. The direction is a parameter; the rules
//     below hold for both.
//   - The deferred-delete queue retries object deletions that failed (no
//     version references them any more, so losing a delete must not fail a
//     compaction or a relocation).
//   - The lazy mirror pass and the orphan sweep at Open (table objects no
//     version references: a crash between an object write and its manifest
//     edit) ride along.
//
// Invariants:
//
//   - The manifest never references an object that is not durable: a
//     relocation's one manifest edit (delete the entry, re-add it on the
//     home tier with PendingCloud cleared) is applied only after the home
//     copy is durable. Nor does a copy carry damage: the source is verified
//     first, and a damaged one is repaired from a clean cloud copy or stays
//     where it is, quarantined.
//   - The drainer is the only mutator of a file's tier. It pins the version
//     whose tables it copies, so a source it cannot read is a tier failing,
//     never a table retired under it; a pin stops deletion, not retirement,
//     so it still re-verifies the file is live under compactionMu before the
//     edit — compactions install under that lock too, so a relocation never
//     resurrects a table one has dropped — and removes a copy made for a
//     table retired meanwhile as the orphan it is. A relocation may land
//     while a job that picked the table merges: the job reads the old-tier
//     copy its own pin keeps, its edit deletes the table by number, and both
//     copies are retired once the versions naming them are released.
//   - A relocation lands like any table (land), so one to the local tier is
//     that tier's recovery probe, and none is attempted while the local
//     breaker is open with no probe due.

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

// removeObject deletes an object no version references any more; a delete
// that fails (breaker open, device error) is queued for the drainer.
func (d *engine) removeObject(tier storage.Tier, name string) {
	if err := d.backendFor(tier).Delete(name); err != nil {
		d.deferDelete(tier, name)
	}
}

// removeTable removes a table no version references any more from tier:
// its object and, for a cloud table, the local metadata sidecar.
func (d *engine) removeTable(tier storage.Tier, num uint64) {
	d.removeObject(tier, manifest.TableName(num))
	if tier == storage.TierCloud {
		d.removeObject(storage.TierLocal, metaSidecarName(num))
	}
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
// drainer so the off-home backlog starts relocating immediately, and
// reschedules compactions deferred during the outage.
func (d *engine) tierRecovered() {
	wake(d.drainWake)
	wake(d.compactWake)
}

// drainEvery is the drainer's period: a tenth of the shorter breaker
// cooldown, so an open breaker gets its recovery probe within a tenth of a
// cooldown of it falling due, and never less than a millisecond.
func drainEvery(o Options) time.Duration {
	c := min(o.CloudBreaker.Sanitize().Cooldown, o.LocalBreaker.Sanitize().Cooldown)
	return max(c/10, time.Millisecond)
}

// drainLoop runs until shutdown, retiring the tables readers left obsolete,
// retrying deferred deletes and relocating off-home tables. Each round is also
// the recovery probe for both tiers: its first request to a broken tier either
// passes (half-open probe admitted) or fails fast, so recovery needs no
// foreground traffic.
func (d *engine) drainLoop() {
	defer close(d.drainDone)
	ticker := time.NewTicker(drainEvery(d.opts))
	defer ticker.Stop()
	for {
		select {
		case <-d.bgQuit:
			return
		case <-ticker.C:
		case <-d.drainWake:
		}
		d.retireObsolete()
		d.drainDeferredDeletes()
		if d.cloud != nil {
			d.drainOffHome()
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

// offHome reports whether f sits off its home tier, and which tier that is:
// the cloud for a table landed locally during a cloud outage (PendingCloud),
// local storage for a table sitting in the cloud while its level belongs to
// the local tier under the placement policy.
func (d *engine) offHome(level int, f *manifest.FileMetadata) (home storage.Tier, ok bool) {
	if f.PendingCloud {
		return storage.TierCloud, true
	}
	if f.Tier == storage.TierCloud && d.opts.tierForLevel(level) == storage.TierLocal {
		return storage.TierLocal, true
	}
	return f.Tier, false
}

// drainOffHome relocates the off-home tables of the current version one at a
// time, until none is left or a tier stops cooperating. Tables that go off
// home meanwhile wait for the next round. The version is pinned for the round
// and the old-tier copies go when it ends.
func (d *engine) drainOffHome() {
	// While the local breaker is open a relocation to local storage would be
	// refused without touching the device; once its cooldown elapses the
	// relocation's write is the recovery probe.
	localDown := d.localBreaker.State() == retry.StateOpen && !d.localBreaker.ProbeDue()
	stop := false
	v := d.vs.Acquire()
	v.AllFiles(func(level int, f *manifest.FileMetadata) {
		home, ok := d.offHome(level, f)
		if stop || !ok || (localDown && home == storage.TierLocal) || d.isQuarantined(f.Num) {
			return
		}
		stop = d.closed.Load() || !d.relocate(level, *f, home)
	})
	d.unpinAndRetire(v)
}

// liveOffHome reports whether table num is still in the current version at
// level and still off its home tier.
func (d *engine) liveOffHome(level int, num uint64) bool {
	for _, f := range d.vs.Current().Levels[level] {
		if f.Num == num {
			_, ok := d.offHome(level, f)
			return ok
		}
	}
	return false
}

// relocate copies one off-home table of a version the caller has pinned to
// its home tier and installs the tier change. It returns false when the round
// should stop (a tier not cooperating, manifest failure) and true when the
// drainer may go on to the next table.
func (d *engine) relocate(level int, meta manifest.FileMetadata, to storage.Tier) bool {
	start := time.Now()
	data, err := d.backendFor(meta.Tier).ReadAll(manifest.TableName(meta.Num))
	if err != nil {
		// The pin keeps the object in place, so this is the tier failing
		// (down, EIO): the round ends and the next tick retries, not a spin.
		return false
	}
	t := &builtTable{meta: meta, data: data}
	t.meta.Tier, t.meta.PendingCloud = to, false
	t.metaOff, err = d.verifyTableBytes(data, meta.Num)
	if err != nil && meta.Tier == storage.TierLocal {
		// A clean cloud copy (a mirror, or one left by an earlier relocation
		// cut short) repairs the source, and its bytes move.
		if t.data, err = d.repairLocalTable(meta.Num, err, false); err == nil {
			t.metaOff, err = d.verifyTableBytes(t.data, meta.Num)
		}
	} else if err != nil {
		d.quarantine(meta.Num, err)
	}
	if err != nil {
		// Never carry damage home: the table stays quarantined where it is,
		// counted once, and later rounds pass it over.
		return true
	}
	attempts, err := d.land(t, to, false)
	if err != nil {
		return false // home tier still not cooperating; try next tick
	}

	// Install the move, re-verifying liveness under compactionMu so a
	// concurrent compaction cannot retire the file between our check and
	// the manifest append (LogAndApply persists before applying, so a
	// conflicting edit must be impossible, not merely detected).
	moved := &d.stats.DrainedTables
	if to == storage.TierLocal {
		moved = &d.stats.LocalDrainedBack
	}
	d.compactionMu.Lock()
	live := d.liveOffHome(level, meta.Num)
	if live {
		// Counted before the edit becomes visible, and taken back if it
		// fails: a reader that sees the backlog gauge drop must already see
		// the counter.
		moved.Add(1)
		err = d.vs.LogAndApply(&manifest.VersionEdit{
			Deleted: []manifest.DeletedFile{{Level: level, Num: meta.Num}},
			Added:   []manifest.AddedFile{{Level: level, Meta: t.meta}},
		})
		if err != nil {
			moved.Add(-1)
		}
	}
	d.compactionMu.Unlock()
	if !live {
		// Compacted away mid-copy: the home copy (and sidecar) are orphans.
		d.removeTable(to, meta.Num)
		return true
	}
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

	// The copy on the old tier goes when the last version naming it does
	// (retire): at the end of this round, or when the last reader lets go.
	_ = d.warm(t, true)
	d.evTableUploaded(meta.Num, to, int64(meta.Size), attempts, time.Since(start), false)
	return true
}

// markMirrored / isMirrored / dropMirror track which local-tier tables have
// a byte-identical cloud copy. dropMirror reports whether the table was
// mirrored, so retire knows to delete the cloud object.
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
	// Pinned for the round: a candidate that cannot be read is the device
	// failing, and one retired meanwhile keeps its object until the pin goes —
	// its retirement then finds the mirror mark and removes the mirror too.
	v := d.vs.Acquire()
	defer d.unpinAndRetire(v)
	var cands []uint64
	v.AllFiles(func(level int, f *manifest.FileMetadata) {
		if f.Tier == storage.TierLocal && !f.PendingCloud &&
			!d.isMirrored(f.Num) && !d.isQuarantined(f.Num) {
			cands = append(cands, f.Num)
		}
	})
	for _, num := range cands {
		if d.closed.Load() {
			return
		}
		name := manifest.TableName(num)
		data, err := d.local.ReadAll(name)
		if err != nil {
			return // local device uncooperative; next tick
		}
		if _, err := d.verifyTableBytes(data, num); err != nil {
			// Never poison the mirror: the read path and scrubber classify
			// the damage through their own channels.
			continue
		}
		if _, err := d.putTable(storage.TierCloud, name, data); err != nil {
			return // cloud uncooperative; next tick
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
	// Sorted views live in memory only; view/ holds the sidecars an older
	// store persisted them to.
	if names, err := d.local.List("view/"); err == nil {
		for _, n := range names {
			_ = d.local.Delete(n)
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

// MisplacedTables reports how many tables are sitting on the cloud tier
// while their level belongs to the local tier — the drain-back backlog
// left by a local-degraded episode.
func (d *DB) MisplacedTables() int {
	n := 0
	d.allFiles(func(e *engine, level int, f *manifest.FileMetadata) {
		if home, ok := e.offHome(level, f); ok && home == storage.TierLocal {
			n++
		}
	})
	return n
}
