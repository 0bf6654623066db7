package manifest

import (
	"testing"

	"rocksmash/internal/sstable"
	"rocksmash/internal/storage"
)

// TestApplyViewMembership pins where a level's sorted view may go: Apply
// installs the edit's view, or else the parent's, only on a level whose files
// are exactly the view's members in order. A tier move keeps the view, an L0
// flush leaves it alone, a membership change drops the parent's, and an
// edit's view that does not describe the new level is never installed.
func TestApplyViewMembership(t *testing.T) {
	members := func(v *Version, level int) []uint64 {
		var nums []uint64
		for _, f := range v.Levels[level] {
			nums = append(nums, f.Num)
		}
		return nums
	}
	apply := func(v *Version, e *VersionEdit) *Version {
		t.Helper()
		nv, err := v.Apply(e)
		if err != nil {
			t.Fatal(err)
		}
		return nv
	}
	v := apply(NewVersion(), &VersionEdit{Added: []AddedFile{
		{Level: 1, Meta: fm(3, "a", "c", 1, 10, storage.TierLocal)},
		{Level: 1, Meta: fm(7, "d", "f", 1, 10, storage.TierLocal)},
	}})
	if v.View(1) != nil {
		t.Fatal("a level has a view before anything spliced or built one")
	}
	vw := &sstable.View{Level: 1, Members: members(v, 1)}
	if got := v.SetView(1, vw); got != vw {
		t.Fatal("SetView on an empty slot did not install the view")
	}
	if got := v.SetView(1, &sstable.View{Level: 1, Members: members(v, 1)}); got != vw {
		t.Fatal("SetView replaced an installed view")
	}

	moved := fm(7, "d", "f", 1, 10, storage.TierCloud)
	v = apply(v, &VersionEdit{
		Deleted: []DeletedFile{{Level: 1, Num: 7}},
		Added:   []AddedFile{{Level: 1, Meta: moved}},
	})
	if v.View(1) != vw {
		t.Fatal("a tier move dropped the view; the members did not change")
	}
	v = apply(v, &VersionEdit{Added: []AddedFile{{Level: 0, Meta: fm(11, "a", "z", 20, 30, storage.TierLocal)}}})
	if v.View(1) != vw {
		t.Fatal("a flush to L0 dropped L1's view")
	}

	grown := apply(v, &VersionEdit{Added: []AddedFile{{Level: 1, Meta: fm(9, "g", "h", 1, 10, storage.TierLocal)}}})
	if grown.View(1) != nil {
		t.Fatal("a membership change kept the parent's view")
	}
	swapped := &sstable.View{Level: 1, Members: []uint64{7, 3}}
	grown = apply(v, &VersionEdit{
		Added: []AddedFile{{Level: 1, Meta: fm(9, "g", "h", 1, 10, storage.TierLocal)}},
		Views: [NumLevels]*sstable.View{1: swapped},
	})
	if grown.View(1) != nil {
		t.Fatal("an edit's view that does not describe the new level was installed")
	}
	spliced := &sstable.View{Level: 1, Members: []uint64{3, 7, 9}}
	grown = apply(v, &VersionEdit{
		Added: []AddedFile{{Level: 1, Meta: fm(9, "g", "h", 1, 10, storage.TierLocal)}},
		Views: [NumLevels]*sstable.View{1: spliced},
	})
	if grown.View(1) != spliced {
		t.Fatal("the edit's view of the new membership was not installed")
	}
}
