package wal

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"rocksmash/internal/storage"
)

func newCloudBackend(t *testing.T) *storage.Cloud {
	t.Helper()
	c, err := storage.NewCloud(t.TempDir(), storage.NoLatency(), storage.DefaultCost())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBackupCopiesSealedSegments(t *testing.T) {
	local := newBackend(t)
	cloud := newCloudBackend(t)
	opts := DefaultOptions()
	opts.Backup = cloud
	m, err := Open(local, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	appendOne(m, []byte("one"), 1, 1)
	if err := m.Roll(); err != nil {
		t.Fatal(err)
	}
	appendOne(m, []byte("two"), 2, 2)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := cloud.List("wal/")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("cloud holds %d segments, want 2: %v", len(names), names)
	}
}

func TestRecoveryFallsBackToBackup(t *testing.T) {
	local := newBackend(t)
	cloud := newCloudBackend(t)
	opts := DefaultOptions()
	opts.Backup = cloud
	m, err := Open(local, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	appendOne(m, []byte("precious"), 1, 1)
	m.Roll()
	appendOne(m, []byte("more"), 2, 2)
	m.Close()

	// Local device "loses" the first segment.
	if err := local.Delete(SegmentName("wal", 1)); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(local, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var got []string
	if _, err := m2.Replay(0, 2, eachRecord(func(_ uint64, p []byte) error {
		mu.Lock()
		got = append(got, string(p))
		mu.Unlock()
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	sort.Strings(got)
	if fmt.Sprint(got) != "[more precious]" {
		t.Fatalf("replayed %v", got)
	}
}

func TestRecoveryAfterTotalLocalLoss(t *testing.T) {
	localDir := t.TempDir()
	local, err := storage.NewLocal(localDir)
	if err != nil {
		t.Fatal(err)
	}
	cloud := newCloudBackend(t)
	opts := DefaultOptions()
	opts.Backup = cloud
	m, err := Open(local, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		appendOne(m, []byte(fmt.Sprintf("seg%d", i)), uint64(i+1), uint64(i+1))
		m.Roll()
	}
	m.Close()

	// Fresh, empty local directory: everything must come from the cloud.
	local2, err := storage.NewLocal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Open(local2, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var got []string
	if _, err := m2.Replay(0, 4, eachRecord(func(_ uint64, p []byte) error {
		mu.Lock()
		got = append(got, string(p))
		mu.Unlock()
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("recovered %d records from cloud, want 5: %v", len(got), got)
	}
}

func TestBackupGCRemovesCloudCopies(t *testing.T) {
	local := newBackend(t)
	cloud := newCloudBackend(t)
	opts := DefaultOptions()
	opts.Backup = cloud
	m, err := Open(local, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	appendOne(m, []byte("a"), 1, 3)
	m.Roll()
	appendOne(m, []byte("b"), 4, 6)
	if err := m.DeleteObsolete(3); err != nil {
		t.Fatal(err)
	}
	names, _ := cloud.List("wal/")
	if len(names) != 0 {
		t.Fatalf("obsolete backup segments not GCed: %v", names)
	}
}
