package db

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"rocksmash/internal/storage"
)

// TestBackupAndRestore takes a backup of a tiered store and opens it as an
// independent store with identical contents.
func TestBackupAndRestore(t *testing.T) {
	d, _ := openTest(t, PolicyMash)
	defer d.Close()
	ref := fillKeys(t, d, 2000, 100)
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if d.Metrics().CloudBytes == 0 {
		t.Skip("dataset did not reach cloud levels")
	}

	backupDir := t.TempDir()
	if err := d.Backup(backupDir); err != nil {
		t.Fatal(err)
	}

	restored, err := OpenAt(backupDir, testOptions(PolicyMash))
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	for k, v := range ref {
		got, err := restored.Get([]byte(k))
		if err != nil || string(got) != v {
			t.Fatalf("restored Get(%q) = %q, %v", k, got, err)
		}
	}
	// The restored store is fully functional.
	if err := restored.Put([]byte("post-restore"), []byte("x")); err != nil {
		t.Fatal(err)
	}
}

// TestBackupIsConsistencyPoint verifies writes after the backup don't leak
// into it, and that the original store is unaffected.
func TestBackupIsConsistencyPoint(t *testing.T) {
	d, _ := openTest(t, PolicyMash)
	defer d.Close()
	mustPut(t, d, "before", "1")
	backupDir := t.TempDir()
	if err := d.Backup(backupDir); err != nil {
		t.Fatal(err)
	}
	mustPut(t, d, "after", "2")

	restored, err := OpenAt(backupDir, testOptions(PolicyMash))
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if v, err := restored.Get([]byte("before")); err != nil || string(v) != "1" {
		t.Fatalf("before = %q, %v", v, err)
	}
	if _, err := restored.Get([]byte("after")); !errors.Is(err, ErrNotFound) {
		t.Fatal("post-backup write leaked into the backup")
	}
	// Original store still has both.
	mustGet(t, d, "before", "1")
	mustGet(t, d, "after", "2")
}

// TestBackupSurvivesOriginalCompaction ensures the backup does not break
// when the original store compacts and deletes the files the backup copies —
// while it is copying them: the backup is held at its first table read, every
// key is overwritten and compacted away (compactions run during a backup; the
// pin keeps its file set in place), and the backup then finishes and restores
// to exactly what the store held when it was taken.
func TestBackupSurvivesOriginalCompaction(t *testing.T) {
	d, lf, cf, err := OpenAtChaosLocal(t.TempDir(), testOptions(PolicyMash), storage.FaultConfig{}, storage.FaultConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ref := fillKeys(t, d, 1500, 100)

	var (
		backupGoroutine atomic.Value // goroutine id of the Backup call
		once            sync.Once
		copying         = make(chan struct{})
		proceed         = make(chan struct{})
	)
	hold := func(op, name string) error {
		if op == "GET" && strings.HasPrefix(name, "sst/") && backupGoroutine.Load() == goid() {
			once.Do(func() {
				close(copying)
				<-proceed
			})
		}
		return nil
	}
	lf.SetHook(hold)
	cf.SetHook(hold)
	backupDir := t.TempDir()
	done := make(chan error, 1)
	go func() {
		backupGoroutine.Store(goid())
		done <- d.Backup(backupDir)
	}()
	select {
	case <-copying:
	case err := <-done:
		t.Fatalf("backup finished without reading a table: %v", err)
	}

	// Churn the original heavily: overwrite everything and compact, which
	// retires every file the backup is being taken from.
	before := d.Metrics().Compactions
	for i := 0; i < 1500; i++ {
		mustPut(t, d, fmt.Sprintf("key%06d", i), "overwritten")
	}
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if after := d.Metrics().Compactions; after == before {
		t.Fatal("no compaction ran while the backup was copying")
	}
	close(proceed)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	checkTableObjects(t, d, "after the backup")

	restored, err := OpenAt(backupDir, testOptions(PolicyMash))
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	var want []string
	for k, v := range ref {
		want = append(want, k+"="+v)
	}
	sort.Strings(want)
	if got := scanAll(t, restored); !slices.Equal(got, want) {
		t.Fatalf("restored store holds %d keys, the model %d (or contents differ)", len(got), len(want))
	}
}
