package db

import (
	"fmt"
	"testing"

	"rocksmash/internal/manifest"
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
// upload and sidecar write) and verifies the table still opens, with the
// sidecar re-persisted for the next open.
func TestSidecarRebuiltWhenMissing(t *testing.T) {
	d, _ := openTest(t, PolicyCloudOnly)
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
	v.AllFiles(func(level int, f *manifest.FileMetadata) { d.tables.evict(f.Num) })

	mustGet(t, d, "k00000", "v")
	rebuilt, err := d.local.List("meta/")
	if err != nil {
		t.Fatal(err)
	}
	if len(rebuilt) == 0 {
		t.Fatal("sidecar not rebuilt after fallback open")
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
