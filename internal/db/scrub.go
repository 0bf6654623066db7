package db

import (
	"errors"
	"fmt"
	"io"
	"time"

	"rocksmash/internal/manifest"
	"rocksmash/internal/sstable"
	"rocksmash/internal/storage"
)

// This file implements the local tier's self-healing layer:
//
//   - repairLocalTable, the cloud-backed repair of a corrupt local SSTable
//     (re-fetch, verify, rewrite in place), invoked inline by the read path
//     and by the scrubber;
//   - repairSidecar, the recovery of a corrupt metadata sidecar (delete it;
//     the next open rebuilds it from the cloud object's own tail);
//   - Scrub, the on-demand full-checksum walk over every local artifact
//     class (SSTable blocks, metadata sidecars, WAL segments), and
//     scrubLoop, its background driver (Options.ScrubInterval).
//
// Counting invariant: every counted detection resolves to exactly one of
// CorruptionsRepaired or CorruptionsUnrepaired, so the three counters
// reconcile (Detected == Repaired + Unrepaired) at any quiescent point.

// ScrubReport summarizes one scrub pass.
type ScrubReport struct {
	Checked    int // artifacts verified end to end
	Corrupt    int // artifacts that failed verification: bad checksum, or unreadable
	Repaired   int // artifacts re-materialized from a cloud source
	Unrepaired int // damaged artifacts with no clean source

	// Per-artifact-class breakdown of Checked.
	Tables      int
	Sidecars    int
	WALSegments int
}

func (r *ScrubReport) add(o ScrubReport) {
	r.Checked += o.Checked
	r.Corrupt += o.Corrupt
	r.Repaired += o.Repaired
	r.Unrepaired += o.Unrepaired
	r.Tables += o.Tables
	r.Sidecars += o.Sidecars
	r.WALSegments += o.WALSegments
}

// isQuarantined reports whether a table's damage was already found
// unrepairable, so hot read paths fail fast with a typed error instead of
// re-fetching from the cloud on every block.
func (d *engine) isQuarantined(num uint64) bool {
	d.repairMu.Lock()
	defer d.repairMu.Unlock()
	return d.quarantined[num]
}

// unquarantine clears a table's quarantine mark (it was retired, or a scrub
// pass found it clean).
func (d *engine) unquarantine(num uint64) {
	d.repairMu.Lock()
	delete(d.quarantined, num)
	d.repairMu.Unlock()
}

func (d *engine) quarantinedCount() int {
	d.repairMu.Lock()
	defer d.repairMu.Unlock()
	return len(d.quarantined)
}

// verifyTableBytes checks a whole table image end to end: footer and
// metadata blocks (sstable.Open), then the CRC of every data block.
func (d *engine) verifyTableBytes(data []byte, num uint64) error {
	r, err := sstable.Open(bytesReader{data}, num)
	if err != nil {
		return err
	}
	defer r.Close()
	handles, err := r.DataHandles()
	if err != nil {
		return err
	}
	for _, h := range handles {
		if _, err := sstable.ReadRawBlock(bytesReader{data}, h); err != nil {
			return err
		}
	}
	return nil
}

// repairLocalTable re-materializes a corrupt local-tier table from its
// cloud copy (a lazy mirror, or the object left behind by a drain). On
// success the verified bytes are returned so the caller can serve the
// blocked read without re-rolling the damaged device, and the local file is
// rewritten in place (temp + rename, so concurrent readers holding the old
// inode never observe a truncated image). Damage with no clean cloud
// source quarantines the table: later reads fail fast with a typed error
// (wrapping storage.ErrCorruption) until force — a scrub pass — retries.
func (d *engine) repairLocalTable(num uint64, cause error, force bool) ([]byte, error) {
	name := manifest.TableName(num)
	d.repairMu.Lock()
	defer d.repairMu.Unlock()
	if d.quarantined[num] && !force {
		return nil, fmt.Errorf("db: table %s quarantined: %w", name, storage.ErrCorruption)
	}
	d.stats.CorruptionsDetected.Add(1)
	d.evCorruptionDetected("sstable-block", name, num, cause)
	start := time.Now()
	fail := func(reason error) ([]byte, error) {
		d.quarantined[num] = true
		d.stats.CorruptionsUnrepaired.Add(1)
		return nil, fmt.Errorf("db: table %s corrupt with no clean cloud source (%v): %w",
			name, reason, storage.ErrCorruption)
	}
	if d.cloud == nil {
		return fail(errors.New("no cloud tier"))
	}
	data, err := d.cloud.ReadAll(name)
	if err != nil {
		return fail(err)
	}
	if verr := d.verifyTableBytes(data, num); verr != nil {
		return fail(verr)
	}
	// The cloud source is clean: whatever happens to the rewrite below, the
	// table is repairable and must not stay quarantined.
	delete(d.quarantined, num)
	tmp := name + ".repair"
	werr := storage.WriteObject(d.local, tmp, data)
	if werr == nil {
		werr = d.local.Rename(tmp, name)
	}
	if werr != nil {
		// The clean bytes are in hand but the device refused them; serve the
		// read anyway and leave the on-disk damage for the next attempt. Not
		// a quarantine: the cloud source is good.
		_ = d.local.Delete(tmp)
		d.stats.CorruptionsRepaired.Add(1)
		d.evCorruptionRepaired("sstable-block", name, num, "cloud-mirror", time.Since(start))
		return data, nil
	}
	// Reopen against the rewritten file on next use.
	d.tables.evict(num)
	d.stats.CorruptionsRepaired.Add(1)
	d.evCorruptionRepaired("sstable-block", name, num, "cloud-mirror", time.Since(start))
	return data, nil
}

// repairSidecar handles a corrupt metadata sidecar discovered when opening
// a cloud-tier table: the sidecar is deleted so the next open rebuilds it
// from the cloud object's own metadata tail (overlayMetadata). It reports
// whether the open should be retried.
func (d *engine) repairSidecar(num uint64, cause error) bool {
	name := metaSidecarName(num)
	d.repairMu.Lock()
	defer d.repairMu.Unlock()
	if _, err := d.local.ReadAll(name); err != nil {
		// No cached sidecar fed the open: the corruption is in the cloud
		// object itself, which repair cannot fix.
		return false
	}
	d.stats.CorruptionsDetected.Add(1)
	d.evCorruptionDetected("sidecar", name, num, cause)
	start := time.Now()
	if err := d.local.Delete(name); err != nil {
		d.stats.CorruptionsUnrepaired.Add(1)
		return false
	}
	d.stats.CorruptionsRepaired.Add(1)
	d.evCorruptionRepaired("sidecar", name, num, "meta-tail", time.Since(start))
	return true
}

// sizeOnlyReader backs a TailReader when only the metadata overlay should
// ever be touched: any read below the tail is a bug and returns EOF.
type sizeOnlyReader struct{ size int64 }

func (r sizeOnlyReader) ReadAt([]byte, int64) (int, error) { return 0, io.EOF }
func (r sizeOnlyReader) Size() int64                       { return r.size }
func (r sizeOnlyReader) Close() error                      { return nil }

// verifySidecar structurally validates a cached metadata sidecar: the
// footer and every metadata block it holds are parsed and CRC-checked
// without touching the cloud object.
func (d *engine) verifySidecar(num uint64) (ok, present bool) {
	tailOff, tail, err := d.readMetaSidecar(num)
	if err != nil {
		return false, false
	}
	f := sstable.NewTailReader(sizeOnlyReader{int64(tailOff) + int64(len(tail))}, int64(tailOff), tail)
	r, err := sstable.Open(f, num)
	if err != nil {
		return false, true
	}
	_, err = r.DataHandles()
	_ = r.Close()
	return err == nil, true
}

// Scrub walks every local artifact the store owns — local-tier SSTables,
// cloud-tier metadata sidecars, sealed WAL segments — verifying checksums
// end to end and repairing damage that has a cloud source of truth in
// place, one engine after another. It is safe to run concurrently with
// reads and writes.
func (d *DB) Scrub() ScrubReport {
	var rep ScrubReport
	for _, e := range d.engines {
		rep.add(e.scrub())
	}
	return rep
}

// scrub is one pass over this engine's artifacts.
func (d *engine) scrub() ScrubReport {
	var rep ScrubReport

	// Local-tier tables: full image verification, cloud-backed repair.
	// force=true retries quarantined tables — a mirror may have appeared
	// since the damage was first found. The version is pinned for the pass,
	// so every table it names is in place: one that cannot be read is damage
	// like a failed checksum, not a table a compaction took away meanwhile.
	type tbl struct {
		num  uint64
		tier storage.Tier
	}
	var tables []tbl
	v := d.vs.Acquire()
	v.AllFiles(func(level int, f *manifest.FileMetadata) {
		tables = append(tables, tbl{f.Num, f.Tier})
	})
	for _, t := range tables {
		if t.tier == storage.TierCloud {
			// The cloud object is authoritative; what the local tier owns for
			// it is the metadata sidecar.
			ok, present := d.verifySidecar(t.num)
			if !present {
				continue // rebuilt lazily at next open; nothing to verify
			}
			rep.Checked++
			rep.Sidecars++
			if ok {
				continue
			}
			rep.Corrupt++
			if d.repairSidecar(t.num, errors.New("scrub: sidecar failed verification")) {
				rep.Repaired++
			} else {
				rep.Unrepaired++
			}
			continue
		}
		rep.Checked++
		rep.Tables++
		data, verr := d.local.ReadAll(manifest.TableName(t.num))
		if verr == nil {
			verr = d.verifyTableBytes(data, t.num)
		}
		if verr == nil {
			// Whatever an earlier pass could not read or repair is readable
			// and clean now.
			d.unquarantine(t.num)
			continue
		}
		rep.Corrupt++
		if _, rerr := d.repairLocalTable(t.num, verr, true); rerr == nil {
			rep.Repaired++
		} else {
			rep.Unrepaired++
		}
	}
	d.unpin(v)

	// Sealed WAL segments: record checksums, backup-tier restore.
	if d.wal != nil {
		checked, corrupt, repaired := d.wal.Scrub()
		rep.Checked += checked
		rep.WALSegments += checked
		rep.Corrupt += corrupt
		rep.Repaired += repaired
		rep.Unrepaired += corrupt - repaired
		d.stats.CorruptionsDetected.Add(int64(corrupt))
		d.stats.CorruptionsRepaired.Add(int64(repaired))
		d.stats.CorruptionsUnrepaired.Add(int64(corrupt - repaired))
	}

	d.stats.ScrubPasses.Add(1)
	return rep
}

// scrubLoop drives periodic scrub passes (Options.ScrubInterval > 0).
func (d *engine) scrubLoop() {
	defer close(d.scrubDone)
	t := time.NewTicker(d.opts.ScrubInterval)
	defer t.Stop()
	for {
		select {
		case <-d.bgQuit:
			return
		case <-t.C:
		}
		d.scrub()
	}
}
