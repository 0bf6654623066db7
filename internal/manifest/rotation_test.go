package manifest

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"rocksmash/internal/storage"
)

// TestManifestRotation exercises the 1000-edit rotation threshold: the log
// must be rewritten as a snapshot, CURRENT must follow, and old manifests
// must be deleted.
func TestManifestRotation(t *testing.T) {
	be, err := storage.NewLocal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(be)
	if err != nil {
		t.Fatal(err)
	}
	// Each iteration adds one file and deletes the previous, so the live
	// set stays at one file while the edit count crosses the threshold.
	var prev uint64
	for i := 0; i < 1100; i++ {
		num := s.NewFileNum()
		e := &VersionEdit{Added: []AddedFile{{Level: 1, Meta: fm(num, fmt.Sprintf("k%06d", i), fmt.Sprintf("k%06dz", i), 1, 2, storage.TierLocal)}}}
		if prev != 0 {
			e.Deleted = []DeletedFile{{Level: 1, Num: prev}}
		}
		if err := s.LogAndApply(e); err != nil {
			t.Fatalf("edit %d: %v", i, err)
		}
		prev = num
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Only one manifest file (plus CURRENT) should remain.
	names, err := be.List("")
	if err != nil {
		t.Fatal(err)
	}
	manifests := 0
	for _, n := range names {
		if len(n) > 8 && n[:9] == "MANIFEST-" {
			manifests++
		}
	}
	if manifests != 1 {
		t.Fatalf("expected 1 manifest after rotation, found %d: %v", manifests, names)
	}

	s2, err := Open(be)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	v := s2.Current()
	if v.NumFiles() != 1 {
		t.Fatalf("recovered %d files, want 1", v.NumFiles())
	}
	if v.Levels[1][0].Num != prev {
		t.Fatalf("recovered wrong file %d, want %d", v.Levels[1][0].Num, prev)
	}
}

// TestPeekDoesNotMutate verifies the read-only inspection path.
func TestPeekDoesNotMutate(t *testing.T) {
	be, _ := storage.NewLocal(t.TempDir())
	s, err := Open(be)
	if err != nil {
		t.Fatal(err)
	}
	num := s.NewFileNum()
	s.LogAndApply(&VersionEdit{
		Added:         []AddedFile{{Level: 0, Meta: fm(num, "a", "z", 1, 9, storage.TierCloud)}},
		HasFlushedSeq: true, FlushedSeq: 9,
	})
	s.SetLastSeq(9)
	s.Close()

	before, _ := be.List("")
	v, nextNum, _, flushed, err := Peek(be)
	if err != nil {
		t.Fatal(err)
	}
	after, _ := be.List("")
	if len(before) != len(after) {
		t.Fatalf("Peek changed the directory: %v -> %v", before, after)
	}
	if v.NumFiles() != 1 || flushed != 9 || nextNum <= num {
		t.Fatalf("Peek state wrong: files=%d flushed=%d next=%d", v.NumFiles(), flushed, nextNum)
	}
}

// TestPeekEmptyDirectory returns a fresh state.
func TestPeekEmptyDirectory(t *testing.T) {
	be, _ := storage.NewLocal(t.TempDir())
	v, nextNum, lastSeq, flushed, err := Peek(be)
	if err != nil {
		t.Fatal(err)
	}
	if v.NumFiles() != 0 || nextNum != 1 || lastSeq != 0 || flushed != 0 {
		t.Fatal("empty peek should be pristine")
	}
}

// TestManifestRotationFailureKeepsLog fails the rotation's Create of the next
// manifest: the edit that triggered it, and every edit after, must still
// land in the old log (a reopen sees them all), and the first edit after
// Create works again rotates.
func TestManifestRotationFailureKeepsLog(t *testing.T) {
	dir := t.TempDir()
	local, err := storage.NewLocal(dir)
	if err != nil {
		t.Fatal(err)
	}
	be := storage.NewFaulty(local, storage.FaultConfig{})
	s, err := Open(be) // writes MANIFEST-000001
	if err != nil {
		t.Fatal(err)
	}
	var creates atomic.Int64
	be.SetHook(func(op, name string) error {
		if op == "PUT" && name == manifestName(2) {
			creates.Add(1)
			return errors.New("injected ENOSPC")
		}
		return nil
	})
	var nums []uint64
	edit := func(i int) {
		t.Helper()
		num := s.NewFileNum()
		e := &VersionEdit{Added: []AddedFile{{Level: 0, Meta: fm(num, fmt.Sprintf("k%06d", i), fmt.Sprintf("k%06dz", i), 1, 2, storage.TierLocal)}}}
		if err := s.LogAndApply(e); err != nil {
			t.Errorf("edit %d: %v", i, err)
		}
		nums = append(nums, num)
	}
	for i := 0; i < 1010; i++ {
		edit(i)
	}
	if creates.Load() < 2 {
		t.Fatalf("rotation attempted %d times past the threshold, want a retry per edit", creates.Load())
	}
	if s.manifestNum != 1 {
		t.Fatalf("manifest %d after failed rotations, want 1", s.manifestNum)
	}

	be.SetHook(nil)
	edit(1010)
	if s.manifestNum != 2 || s.editsInLog != 0 {
		t.Fatalf("after Create recovers: manifest %d with %d edits, want a fresh MANIFEST-000002", s.manifestNum, s.editsInLog)
	}
	edit(1011)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := local.Size(manifestName(1)); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("old manifest still present after rotation (err %v)", err)
	}

	s2, err := Open(local)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Current().NumFiles(); got != len(nums) {
		t.Fatalf("reopen sees %d files, want %d", got, len(nums))
	}
	for _, num := range nums {
		found := false
		for _, f := range s2.Current().Levels[0] {
			found = found || f.Num == num
		}
		if !found {
			t.Fatalf("file %d lost across the failed rotations", num)
		}
	}
}
