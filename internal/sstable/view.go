package sstable

import (
	"slices"
	"sort"

	"rocksmash/internal/keys"
)

// Sorted views (REMIX-style). A view is a globally sorted run of block
// cursors over every table of one LSM level: for each data block, the owning
// member table, the block's handle within that table's file, and the index
// separator bounding the block's keys. Because levels >= 1 hold
// non-overlapping tables sorted by key, concatenating the members' index
// entries in member order yields the level's global key order — a scan that
// rides the view needs one binary search to seek and then advances
// block-to-block with no per-key merge compares, and it knows the exact
// upcoming block schedule across tables, so cloud readahead becomes exact
// rather than heuristic.
//
// Views are derived data held in memory only: built from the members'
// pinned index blocks (no data-block or cloud I/O), or spliced from the
// level's previous view when a compaction changes its members.

// ViewEntry is one cursor of a sorted view: the data block at H inside
// member table Members[Member], holding keys bounded above by Sep (the
// table's index separator, an internal key).
type ViewEntry struct {
	Member int32
	H      Handle
	Sep    []byte
}

// View is the sorted view of one level.
type View struct {
	Level   int
	Members []uint64 // member table file numbers, in key order
	Entries []ViewEntry
}

// Seek returns the ordinal of the first entry whose separator is >= target
// (an internal key), i.e. the first block that may contain target.
// Returns len(v.Entries) when target is beyond every separator.
func (v *View) Seek(target []byte) int {
	return sort.Search(len(v.Entries), func(i int) bool {
		return keys.Compare(v.Entries[i].Sep, target) >= 0
	})
}

// BuildView assembles a level's view from its members' index entries, in
// member (key) order. members[i] owns indexes[i]. The view keeps the
// entries' separators and the uppers as they are, so neither may alias
// bytes that change: IndexEntries returns copies, and a table's metadata
// keys are never rewritten.
//
// A table writer's final index separator is a short successor of the
// table's largest key and may overshoot arbitrarily far past it — past the
// next member's entire key range — which would break the run's global
// separator order. uppers[i], when non-nil, is member i's largest internal
// key; the member's final separator is clamped to it, the tightest valid
// upper bound for the final block.
func BuildView(level int, members []uint64, indexes [][]IndexEntry, uppers [][]byte) *View {
	v := &View{Level: level, Members: members}
	for mi, idx := range indexes {
		for bi, e := range idx {
			sep := e.Sep
			if bi == len(idx)-1 && uppers != nil && uppers[mi] != nil {
				sep = uppers[mi]
			}
			v.Entries = append(v.Entries, ViewEntry{Member: int32(mi), H: e.H, Sep: sep})
		}
	}
	return v
}

// Splice returns the view of v's level once the members in gone have left it
// and the members of add (nil: none) have joined, with no I/O: v's cursor
// runs for the members that stay and add's runs, ordered by their final
// separators. Both views were built with their members' largest keys as
// uppers, so a run's final separator is its member's largest key, and that
// order is the key order of a level's non-overlapping members.
func (v *View) Splice(gone []uint64, add *View) *View {
	type run struct {
		num  uint64
		ents []ViewEntry
	}
	var runs []run
	n := 0
	collect := func(from *View, gone []uint64) {
		for lo := 0; lo < len(from.Entries); {
			m := from.Entries[lo].Member
			hi := lo + 1
			for hi < len(from.Entries) && from.Entries[hi].Member == m {
				hi++
			}
			if num := from.Members[m]; !slices.Contains(gone, num) {
				runs = append(runs, run{num, from.Entries[lo:hi]})
				n += hi - lo
			}
			lo = hi
		}
	}
	collect(v, gone)
	if add != nil {
		collect(add, nil)
	}
	last := func(r run) []byte { return r.ents[len(r.ents)-1].Sep }
	sort.Slice(runs, func(i, j int) bool { return keys.Compare(last(runs[i]), last(runs[j])) < 0 })
	out := &View{Level: v.Level, Members: make([]uint64, len(runs)), Entries: make([]ViewEntry, 0, n)}
	for i, r := range runs {
		out.Members[i] = r.num
		for _, e := range r.ents {
			e.Member = int32(i)
			out.Entries = append(out.Entries, e)
		}
	}
	return out
}
