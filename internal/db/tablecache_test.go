package db

import (
	"errors"
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

// TestCacheLadder follows cloud blocks down the store's cache ladder: a
// fetched block is admitted to the block cache only, reaches the persistent
// cache when the block cache lets go of it — at the latest on a clean Close —
// and is served from there, without a cloud GET, by the next process.
func TestCacheLadder(t *testing.T) {
	o := testOptions(PolicyMash)
	o.CompactionInheritance = false // nothing but the ladder fills the pcache
	dir := t.TempDir()
	d, err := OpenAt(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	fillKeys(t, d, 3000, 200)
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if d.Metrics().CloudBytes == 0 {
		t.Fatal("data set did not reach the cloud levels")
	}
	readSome := func(d *DB) (cloudGETs int64) {
		before := d.cloud.Stats().Snapshot().GetOps
		for i := 0; i < 3000; i += 40 { // 75 keys: their blocks fit the block cache
			// fillKeys draws keys at random: an absent one reads a block too.
			if _, err := d.Get([]byte(fmt.Sprintf("key%06d", i))); err != nil && !errors.Is(err, ErrNotFound) {
				t.Fatal(err)
			}
		}
		return d.cloud.Stats().Snapshot().GetOps - before
	}
	admitted := d.pcache.Stats().Inserted.Load()
	if gets := readSome(d); gets == 0 {
		t.Fatal("cold reads of cloud tables cost no cloud GET: the test reads nothing cold")
	}
	if now := d.pcache.Stats().Inserted.Load(); now != admitted {
		t.Fatalf("%d blocks admitted to the persistent cache at fetch time; admission is the block cache's eviction", now-admitted)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d, err = OpenAt(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if gets := readSome(d); gets != 0 {
		t.Fatalf("%d cloud GETs for blocks that were resident at a clean Close", gets)
	}
	if m := d.Metrics(); m.PCacheHits == 0 {
		t.Fatal("no persistent-cache hit after a clean restart")
	}
}
