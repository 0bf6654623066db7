package db

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"rocksmash/internal/storage"
	"rocksmash/internal/wal"
)

// TestWALCloudBackupSurvivesLocalSegmentLoss enables WAL cloud backup,
// crashes, deletes a sealed local WAL segment, and verifies the data still
// recovers from the cloud copy — the paper's reliability story for
// unflushed writes.
func TestWALCloudBackupSurvivesLocalSegmentLoss(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(PolicyMash)
	opts.WALCloudBackup = true
	opts.WALSegmentBytes = 8 << 10
	opts.MemtableBytes = 1 << 30 // keep everything in the WAL

	d, err := OpenAt(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	const n = 1500
	for i := 0; i < n; i++ {
		mustPut(t, d, fmt.Sprintf("k%05d", i), fmt.Sprintf("v%d-%0100d", i, i))
	}
	d.CrashForTest()

	// Delete every *sealed* local segment (keep only the newest, which
	// was active at crash and never reached the cloud).
	walDir := filepath.Join(dir, "local", "wal")
	entries, err := os.ReadDir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".log" {
			segs = append(segs, e.Name())
		}
	}
	if len(segs) < 3 {
		t.Fatalf("expected several segments, got %v", segs)
	}
	for _, s := range segs[:len(segs)-1] {
		if err := os.Remove(filepath.Join(walDir, s)); err != nil {
			t.Fatal(err)
		}
	}

	d2, err := OpenAt(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	for i := 0; i < n; i++ {
		mustGet(t, d2, fmt.Sprintf("k%05d", i), fmt.Sprintf("v%d-%0100d", i, i))
	}
}

// TestWALBackupDisabledLosesSegments is the control: without backup,
// deleting local segments loses their data (recovery still succeeds for
// the rest — the engine must not fail the open).
func TestWALBackupDisabledLosesSegments(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(PolicyMash)
	opts.WALCloudBackup = false
	opts.WALSegmentBytes = 8 << 10
	opts.MemtableBytes = 1 << 30

	d, err := OpenAt(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	const n = 1500
	for i := 0; i < n; i++ {
		mustPut(t, d, fmt.Sprintf("k%05d", i), "v")
	}
	d.CrashForTest()

	walDir := filepath.Join(dir, "local", "wal")
	entries, _ := os.ReadDir(walDir)
	removed := 0
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".log" && removed == 0 {
			os.Remove(filepath.Join(walDir, e.Name()))
			removed++
		}
	}
	d2, err := OpenAt(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	missing := 0
	for i := 0; i < n; i++ {
		if _, err := d2.Get([]byte(fmt.Sprintf("k%05d", i))); err != nil {
			missing++
		}
	}
	if missing == 0 {
		t.Fatal("control: expected data loss without backup")
	}
}

// TestWALBackupHealsMidLogCorruption damages a record in the middle of a
// sealed local WAL segment — damage a torn tail cannot explain — and
// reopens. With WALCloudBackup the replay pass meets the damage after
// delivering the records before it, drops that pass, replays the backup
// copy instead and heals the local file from it: every key recovers, with
// its value, and one restore is counted. Without a backup copy nothing can
// heal the segment, and Open fails.
func TestWALBackupHealsMidLogCorruption(t *testing.T) {
	for _, backup := range []bool{true, false} {
		t.Run(fmt.Sprintf("backup=%v", backup), func(t *testing.T) {
			dir := t.TempDir()
			opts := testOptions(PolicyMash)
			opts.WALCloudBackup = backup
			opts.WALSegmentBytes = 8 << 10
			opts.MemtableBytes = 1 << 30 // keep everything in the WAL
			d, err := OpenAt(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			const n = 600
			val := func(i int) string { return fmt.Sprintf("v%d-%0100d", i, i) }
			for i := 0; i < n; i++ {
				mustPut(t, d, fmt.Sprintf("k%05d", i), val(i))
			}
			d.CrashForTest()

			local, err := storage.NewLocal(filepath.Join(dir, "local"))
			if err != nil {
				t.Fatal(err)
			}
			segs, err := local.List("wal/")
			if err != nil {
				t.Fatal(err)
			}
			var logs []string
			for _, s := range segs {
				if filepath.Ext(s) == ".log" {
					logs = append(logs, s)
				}
			}
			if len(logs) < 3 {
				t.Fatalf("expected several segments, got %v", logs)
			}
			// The second segment is sealed (and, with backup, copied to the
			// cloud tier). Flip a payload byte of its middle record.
			name := logs[1]
			data, err := local.ReadAll(name)
			if err != nil {
				t.Fatal(err)
			}
			records := 0
			for off := 0; off+7 <= len(data) && data[off+6] != 0; off += 7 + int(binary.LittleEndian.Uint16(data[off+4:])) {
				records++
			}
			for i, off := 0, 0; ; i++ {
				if i == records/2 {
					data[off+7+2] ^= 0xFF
					break
				}
				off += 7 + int(binary.LittleEndian.Uint16(data[off+4:]))
			}
			if err := storage.WriteObject(local, name, data); err != nil {
				t.Fatal(err)
			}

			d2, err := OpenAt(dir, opts)
			if !backup {
				if !errors.Is(err, wal.ErrCorrupt) {
					if err == nil {
						d2.Close()
					}
					t.Fatalf("Open over a corrupt segment without a backup = %v, want wal.ErrCorrupt", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer d2.Close()
			if got := d2.RecoveryReport().RecoveredKeys; got != n {
				t.Fatalf("recovered %d keys, want %d (a failed pass must publish nothing)", got, n)
			}
			for i := 0; i < n; i++ {
				mustGet(t, d2, fmt.Sprintf("k%05d", i), val(i))
			}
			if got := d2.Metrics().WALRestored; got != 1 {
				t.Fatalf("WALRestored = %d, want 1", got)
			}
			cloud, err := storage.NewCloud(filepath.Join(dir, "cloud"), storage.NoLatency(), storage.DefaultCost())
			if err != nil {
				t.Fatal(err)
			}
			healed, err := local.ReadAll(name)
			if err != nil {
				t.Fatal(err)
			}
			copyData, err := cloud.ReadAll(name)
			if err != nil || !bytes.Equal(healed, copyData) {
				t.Fatalf("local segment %s not healed from its backup copy (%v)", name, err)
			}
		})
	}
}
