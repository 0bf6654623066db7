package manifest

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"rocksmash/internal/storage"
)

// lifetimeSet opens a fresh set whose obsolete reports are appended to got,
// rendered as "num@tier" with a "+moved" suffix.
func lifetimeSet(t *testing.T, got *[]string, mu *sync.Mutex) *Set {
	t.Helper()
	be, err := storage.NewLocal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(be)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	s.OnObsolete(func(files []Obsolete) {
		mu.Lock()
		defer mu.Unlock()
		for _, o := range files {
			name := fmt.Sprintf("%d@%s", o.File.Num, o.File.Tier)
			if o.Moved {
				name += "+moved"
			}
			*got = append(*got, name)
		}
	})
	return s
}

func mustApply(t *testing.T, s *Set, e *VersionEdit) {
	t.Helper()
	if err := s.LogAndApply(e); err != nil {
		t.Fatal(err)
	}
}

// TestVersionLifetime walks the rule: a file is reported obsolete exactly
// when the last live version naming that FileMetadata is released — not when
// an edit drops it, not while any holder's version names it — and a
// relocation's old copy is reported as moved, not gone.
func TestVersionLifetime(t *testing.T) {
	var got []string
	var mu sync.Mutex
	s := lifetimeSet(t, &got, &mu)
	expect := func(step string, want ...string) {
		t.Helper()
		sort.Strings(got)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: obsolete = %v, want %v", step, got, want)
		}
		got = got[:0]
	}
	pinned := func(step string, tables int, bytes uint64) {
		t.Helper()
		if n, b := s.Pinned(); n != tables || b != bytes {
			t.Fatalf("%s: Pinned() = %d tables, %d bytes; want %d, %d", step, n, b, tables, bytes)
		}
	}

	mustApply(t, s, &VersionEdit{Added: []AddedFile{
		{Level: 1, Meta: fm(1, "a", "c", 1, 2, storage.TierLocal)},
		{Level: 1, Meta: fm(2, "d", "f", 3, 4, storage.TierLocal)},
	}})
	expect("adding files")

	// Unpinned, an edit's dropped file is obsolete as the edit installs.
	mustApply(t, s, &VersionEdit{
		Deleted: []DeletedFile{{Level: 1, Num: 1}},
		Added:   []AddedFile{{Level: 1, Meta: fm(3, "a", "c", 5, 6, storage.TierLocal)}},
	})
	expect("unpinned edit", "1@local")

	// v1 = {2, 3} is held across a compaction and a relocation.
	v1 := s.Acquire()
	mustApply(t, s, &VersionEdit{
		Deleted: []DeletedFile{{Level: 1, Num: 3}},
		Added:   []AddedFile{{Level: 2, Meta: fm(4, "a", "c", 5, 6, storage.TierCloud)}},
	})
	expect("edit under a pin")
	pinned("one file held", 1, 1000)
	v2 := s.Acquire() // {2, 4}
	mustApply(t, s, &VersionEdit{
		Deleted: []DeletedFile{{Level: 1, Num: 2}},
		Added:   []AddedFile{{Level: 1, Meta: fm(2, "d", "f", 3, 4, storage.TierCloud)}},
	})
	expect("relocation under two pins")
	pinned("two files held", 2, 2000)

	// v2's files are all named by a neighbour: 2@local by v1, 4 by current.
	if s.Release(v2) {
		t.Fatal("releasing a version whose files its neighbours name reported obsolete files")
	}
	expect("released the middle version")
	// v1 was the last to name 3 and the local copy of 2; table 2 lives on.
	if !s.Release(v1) {
		t.Fatal("releasing the last holder reported nothing")
	}
	expect("released the last holder", "2@local+moved", "3@local")
	pinned("nothing held", 0, 0)

	// The relocated copy goes for good with the table.
	mustApply(t, s, &VersionEdit{Deleted: []DeletedFile{{Level: 1, Num: 2}, {Level: 2, Num: 4}}})
	expect("final edit", "2@cloud", "4@cloud")

	defer func() {
		if recover() == nil {
			t.Fatal("a second Release of the same reference did not panic")
		}
	}()
	s.Release(v1)
}

// TestVersionLifetimeConcurrent replaces the one live file over and over
// while readers take and drop references: every file dropped is reported
// exactly once, and never while a reader holds a version naming it.
func TestVersionLifetimeConcurrent(t *testing.T) {
	var got []string
	var mu sync.Mutex
	s := lifetimeSet(t, &got, &mu)

	const edits = 300
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := s.Acquire()
				var held []string
				v.AllFiles(func(_ int, f *FileMetadata) { held = append(held, fmt.Sprintf("%d@%s", f.Num, f.Tier)) })
				mu.Lock()
				for _, h := range held {
					for _, g := range got {
						if g == h {
							t.Errorf("%s reported obsolete while a reader holds a version naming it", h)
						}
					}
				}
				mu.Unlock()
				s.Release(v)
			}
		}()
	}
	var prev uint64
	for i := 0; i < edits; i++ {
		num := s.NewFileNum()
		e := &VersionEdit{Added: []AddedFile{{Level: 1, Meta: fm(num, "a", "z", 1, 2, storage.TierLocal)}}}
		if prev != 0 {
			e.Deleted = []DeletedFile{{Level: 1, Num: prev}}
		}
		mustApply(t, s, e)
		prev = num
	}
	close(stop)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	seen := map[string]int{}
	for _, g := range got {
		seen[g]++
	}
	if len(got) != edits-1 || len(seen) != edits-1 {
		t.Fatalf("%d reports of %d distinct files for %d dropped files", len(got), len(seen), edits-1)
	}
}
