package db

import (
	"fmt"
	"testing"
)

// TestTableCacheBoundsOpenFiles fills the tree with many small tables and
// verifies the open-table count stays at or below the configured cap while
// reads keep working.
func TestTableCacheBoundsOpenFiles(t *testing.T) {
	opts := testOptions(PolicyLocalOnly)
	opts.MaxOpenTables = 8
	// Disable compaction consolidation so many tables accumulate.
	opts.L0CompactTrigger = 100
	opts.L0StallFiles = 400
	d, err := OpenAt(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	for round := 0; round < 30; round++ {
		for i := 0; i < 50; i++ {
			mustPut(t, d, fmt.Sprintf("r%02d-k%03d", round, i), "v")
		}
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if d.engines[0].vs.Current().NumFiles() < 20 {
		t.Fatalf("fixture built only %d tables", d.engines[0].vs.Current().NumFiles())
	}
	// Touch every table via reads.
	for round := 0; round < 30; round++ {
		mustGet(t, d, fmt.Sprintf("r%02d-k%03d", round, round), "v")
	}
	d.tables.mu.Lock()
	open := len(d.tables.tables)
	d.tables.mu.Unlock()
	// The cap is 8 (with the min clamp); transiently referenced tables may
	// push slightly over, but after the reads completed everything is idle.
	if open > opts.MaxOpenTables {
		t.Fatalf("open tables = %d, cap %d", open, opts.MaxOpenTables)
	}
	// Reads still work for evicted tables (they reopen transparently).
	for round := 0; round < 30; round++ {
		mustGet(t, d, fmt.Sprintf("r%02d-k%03d", round, 7), "v")
	}
}

// TestTableCacheSkipsReferencedHandles ensures an iterator's pinned tables
// survive cap enforcement.
func TestTableCacheSkipsReferencedHandles(t *testing.T) {
	opts := testOptions(PolicyLocalOnly)
	opts.MaxOpenTables = 8
	opts.L0CompactTrigger = 100
	opts.L0StallFiles = 400
	d, err := OpenAt(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for round := 0; round < 20; round++ {
		for i := 0; i < 30; i++ {
			mustPut(t, d, fmt.Sprintf("r%02d-k%03d", round, i), fmt.Sprint(round))
		}
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	it, err := d.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	it.First()
	// Churn the cache with reads while the iterator holds references.
	for round := 0; round < 20; round++ {
		mustGet(t, d, fmt.Sprintf("r%02d-k%03d", round, 3), fmt.Sprint(round))
	}
	// The iterator must still scan correctly to the end.
	n := 0
	for ; it.Valid(); it.Next() {
		n++
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if n != 20*30 {
		t.Fatalf("scan saw %d keys, want %d", n, 20*30)
	}
}
