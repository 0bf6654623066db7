package db

import (
	"errors"
	"fmt"
	"testing"

	"rocksmash/internal/manifest"
	"rocksmash/internal/sstable"
	"rocksmash/internal/storage"
)

// TestMetadataStaysLocal verifies the paper's placement rule: opening a
// cloud-resident table must not fetch metadata (footer/index/filter) from
// the cloud — the sidecar serves it from local storage.
func TestMetadataStaysLocal(t *testing.T) {
	d, _ := openTest(t, PolicyCloudOnly)
	defer d.Close()
	for i := 0; i < 300; i++ {
		mustPut(t, d, fmt.Sprintf("k%05d", i), "some-value-payload")
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	// Table opens are lazy: the next read opens the cloud table. With the
	// sidecar in place, the only cloud GET should be the data block.
	before := d.cloud.Stats().Snapshot()
	mustGet(t, d, "k00000", "some-value-payload")
	after := d.cloud.Stats().Snapshot()
	gets := after.GetOps - before.GetOps
	if gets > 1 {
		t.Fatalf("opening a cloud table cost %d cloud GETs; metadata should be local", gets)
	}
}

// TestSidecarRebuiltWhenMissing deletes the sidecar (crash window between
// upload and sidecar write) and opens the table: with the cloud object in
// place it opens, and the sidecar is re-persisted for the next open; with the
// object lost or out of reach the read fails with that — a missing or
// unreachable object is not corruption and starts no repair — and only an
// object that is there and too short to be a table is corrupt.
func TestSidecarRebuiltWhenMissing(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, d *DB, faulty *storage.Faulty, table string)
		want   error // nil: the read succeeds and the sidecar is rebuilt
	}{
		{"object present", func(*testing.T, *DB, *storage.Faulty, string) {}, nil},
		{"object lost", func(t *testing.T, d *DB, _ *storage.Faulty, table string) {
			if !d.LoseCloudObject(table) {
				t.Fatal("no simulated cloud to lose an object from")
			}
		}, storage.ErrNotFound},
		{"cloud outage", func(_ *testing.T, _ *DB, faulty *storage.Faulty, _ string) {
			faulty.StartOutage(0)
		}, ErrCloudUnavailable},
		{"object truncated", func(t *testing.T, d *DB, _ *storage.Faulty, table string) {
			if err := storage.WriteObject(d.cloud, table, []byte("not a table")); err != nil {
				t.Fatal(err)
			}
		}, sstable.ErrCorrupt},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, faulty := openFaultyTest(t, PolicyCloudOnly, storage.FaultConfig{})
			defer d.Close()
			for i := 0; i < 300; i++ {
				mustPut(t, d, fmt.Sprintf("k%05d", i), "v")
			}
			if err := d.Flush(); err != nil {
				t.Fatal(err)
			}
			// Find and remove the sidecar(s).
			names, err := d.local.List("meta/")
			if err != nil || len(names) == 0 {
				t.Fatalf("no sidecars written: %v %v", names, err)
			}
			for _, n := range names {
				if err := d.local.Delete(n); err != nil {
					t.Fatal(err)
				}
			}
			// Evict open tables so the next read re-opens them.
			v := d.engines[0].vs.Current()
			v.AllFiles(func(level int, f *manifest.FileMetadata) {
				d.tables.evict(f.Num)
				tc.damage(t, d, faulty, manifest.TableName(f.Num))
			})
			detected := d.Metrics().CorruptionsDetected

			_, err = d.Get([]byte("k00000"))
			if !errors.Is(err, tc.want) {
				t.Fatalf("Get = %v, want %v", err, tc.want)
			}
			if got := d.Metrics().CorruptionsDetected; got != detected {
				t.Errorf("CorruptionsDetected went %d -> %d over a table with no sidecar to repair", detected, got)
			}
			faulty.EndOutage()
			if tc.want != nil {
				return
			}
			rebuilt, err := d.local.List("meta/")
			if err != nil {
				t.Fatal(err)
			}
			if len(rebuilt) == 0 {
				t.Fatal("sidecar not rebuilt after fallback open")
			}
		})
	}
}

// TestSidecarDeletedWithTable verifies compaction retires sidecars along
// with their cloud tables.
func TestSidecarDeletedWithTable(t *testing.T) {
	d, _ := openTest(t, PolicyCloudOnly)
	defer d.Close()
	fillKeys(t, d, 2000, 100)
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}
	sidecars, err := d.local.List("meta/")
	if err != nil {
		t.Fatal(err)
	}
	tables, err := d.cloud.List("sst/")
	if err != nil {
		t.Fatal(err)
	}
	if len(sidecars) != len(tables) {
		t.Fatalf("sidecars (%d) out of sync with cloud tables (%d)", len(sidecars), len(tables))
	}
	if len(sidecars) == 0 {
		t.Fatal("no tables survived")
	}
}
