package db

import (
	"fmt"
	"path/filepath"

	"rocksmash/internal/manifest"
	"rocksmash/internal/storage"
)

// Backup writes a self-contained, consistent copy of the store under dir:
// a manifest snapshot plus every live table — local tables and metadata
// sidecars into dir/local, cloud-resident tables into dir/cloud (so the
// backup does not reference objects the live store may later delete). The
// memtable is flushed first, so the backup needs no WAL. The result opens
// with OpenAt(dir, sameOptions).
//
// Writes and compactions go on during the backup: each engine's file set is
// frozen by pinning one version, and writes land after that consistency
// point.
func (d *DB) Backup(dir string) error {
	if d.closed.Load() {
		return ErrClosed
	}
	dstLocal, err := storage.NewLocal(filepath.Join(dir, "local"))
	if err != nil {
		return err
	}
	dstCloud, err := storage.NewLocal(filepath.Join(dir, "cloud"))
	if err != nil {
		return err
	}
	// Reproduce the source's layout (ensureShardLayout writes the marker of
	// a sharded one), each engine backed up into its prefix. Per-engine
	// consistency points may differ slightly (each engine freezes
	// independently); writes racing the backup land after some engine's
	// point, the same guarantee the live store gives racing readers.
	if err := ensureShardLayout(dstLocal, d.opts.Shards); err != nil {
		return err
	}
	return d.eachEngine(func(e *engine) error {
		prefix := d.opts.enginePrefix(e.id)
		return e.backupInto(prefixed(dstLocal, prefix), prefixed(dstCloud, prefix))
	})
}

// backupInto copies this engine's live tables and a manifest snapshot into
// the destination backends.
func (d *engine) backupInto(dstLocal, dstCloud storage.Backend) error {
	// Make the memtable durable in tables so the backup is WAL-free.
	if err := d.flush(); err != nil {
		return err
	}
	// Freeze the file set by pinning the current version: compactions go on,
	// and the inputs they retire stay in place until the copy is done. The
	// allocation cursor is read after the pin, so it is past every table of v.
	v := d.vs.Acquire()
	defer d.unpin(v)
	nextFileNum, lastSeq, flushedSeq := d.vs.PeekFileNum(), d.lastSeq.Load(), d.vs.FlushedSeq()

	copyObject := func(src storage.Backend, dst storage.Backend, name string) error {
		data, err := src.ReadAll(name)
		if err != nil {
			return fmt.Errorf("db: backup read %s: %w", name, err)
		}
		return storage.WriteObject(dst, name, data)
	}

	var firstErr error
	v.AllFiles(func(level int, f *manifest.FileMetadata) {
		if firstErr != nil {
			return
		}
		name := manifest.TableName(f.Num)
		if f.Tier == storage.TierCloud {
			if err := copyObject(d.cloud, dstCloud, name); err != nil {
				firstErr = err
				return
			}
			// The sidecar lets the restored store open the table without
			// touching its cloud copy.
			if err := copyObject(d.local, dstLocal, metaSidecarName(f.Num)); err != nil {
				firstErr = err
				return
			}
		} else {
			if err := copyObject(d.local, dstLocal, name); err != nil {
				firstErr = err
				return
			}
		}
	})
	if firstErr != nil {
		return firstErr
	}

	return manifest.WriteSnapshot(dstLocal, v, nextFileNum, lastSeq, flushedSeq)
}
