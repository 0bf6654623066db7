package db

import (
	"rocksmash/internal/manifest"
	"rocksmash/internal/storage"
)

// Table lifetime, the engine's half (the rule is in manifest/lifetime.go):
// every reader that opens tables named by a version pins that version, the
// manifest set reports a table obsolete once no live version names it, and
// retire — below, the only place a table that was in a version is deleted —
// removes it.
//
// Deletion never runs on a client goroutine. The compaction and relocation
// goroutines retire what their edit made obsolete right after installing it;
// a reader that drops the last pin on an old version (a Get, an iterator's
// Close) only queues the tables and wakes the drainer. Tables still pinned
// when the store closes or crashes are left for the next Open's orphan sweep.

// tablesObsolete is the manifest set's callback: it queues, nothing more.
func (d *engine) tablesObsolete(files []manifest.Obsolete) {
	d.obsoleteMu.Lock()
	d.obsolete = append(d.obsolete, files...)
	d.obsoleteMu.Unlock()
}

// unpin releases a version pinned with vs.Acquire on a goroutine that must
// not delete anything itself.
func (d *engine) unpin(v *manifest.Version) {
	if d.vs.Release(v) {
		d.wakeDrainer()
	}
}

// retireObsolete retires every table queued so far. Drains are serialized,
// so when it returns, whatever was queued before the call is gone — also
// when another goroutine had already taken it off the queue.
func (d *engine) retireObsolete() {
	d.retireMu.Lock()
	defer d.retireMu.Unlock()
	d.obsoleteMu.Lock()
	q := d.obsolete
	d.obsolete = nil
	d.obsoleteMu.Unlock()
	for _, o := range q {
		d.retire(o)
	}
}

// retire removes a table no live version names any more: its open handle,
// its cached blocks, its object (and a cloud table's sidecar, a local table's
// lazy cloud mirror). A delete that fails — cloud outage, device error — goes
// on the deferred queue for the drainer to retry, never back to the caller.
func (d *engine) retire(o manifest.Obsolete) {
	f := o.File
	d.tables.evict(f.Num)
	if o.Moved {
		// A relocation's leftover: the table lives on under the same number
		// on the other tier, so its cached blocks (content-identical) stay
		// valid and only this tier's copy goes.
		if f.Tier == storage.TierCloud && d.opts.MirrorLocalLevels {
			// The cloud object is a byte-identical mirror of the table now
			// on local storage; keep it as the repair source. Only its
			// sidecar goes: local-tier tables carry their metadata in-file.
			d.removeObject(storage.TierLocal, metaSidecarName(f.Num))
			d.markMirrored(f.Num)
		} else {
			d.removeTable(f.Tier, f.Num)
		}
		return
	}
	// Caches first (constant-time region frees for the LSM-aware cache),
	// then the objects themselves.
	d.blockCache.InvalidateFile(f.Num)
	d.pcache.DropFile(f.Num)
	d.removeTable(f.Tier, f.Num)
	if d.dropMirror(f.Num) && f.Tier == storage.TierLocal {
		// A retired local table's lazy cloud mirror goes with it.
		d.removeObject(storage.TierCloud, manifest.TableName(f.Num))
	}
	d.unquarantine(f.Num)
	d.evTableDeleted(f.Num, f.Tier)
}

// unpinAndRetire releases a version pinned by a background goroutine, which
// retires what that leaves obsolete itself.
func (d *engine) unpinAndRetire(v *manifest.Version) {
	d.vs.Release(v)
	d.retireObsolete()
}
