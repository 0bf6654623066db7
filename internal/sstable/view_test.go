package sstable

import (
	"bytes"
	"fmt"
	"testing"

	"rocksmash/internal/keys"
)

// testView builds a deterministic view of three members, four blocks each,
// with adjacent blocks within a member and a gap at each member change.
func testView() *View {
	v := &View{Level: 2, Members: []uint64{11, 42, 107}}
	var off uint64
	for mi := range v.Members {
		off = uint64(mi) * 1000 // member switch: non-contiguous offsets
		for b := 0; b < 4; b++ {
			sep := keys.MakeSeekKey(nil, []byte(fmt.Sprintf("m%02d-block%03d", mi, b)), keys.MaxSequence)
			length := uint64(200 + 13*b)
			v.Entries = append(v.Entries, ViewEntry{
				Member: int32(mi),
				H:      Handle{Offset: off, Length: length},
				Sep:    sep,
			})
			off += length
		}
	}
	return v
}

func viewsEqual(a, b *View) bool {
	if a.Level != b.Level || len(a.Members) != len(b.Members) || len(a.Entries) != len(b.Entries) {
		return false
	}
	for i := range a.Members {
		if a.Members[i] != b.Members[i] {
			return false
		}
	}
	for i := range a.Entries {
		x, y := a.Entries[i], b.Entries[i]
		if x.Member != y.Member || x.H != y.H || !bytes.Equal(x.Sep, y.Sep) {
			return false
		}
	}
	return true
}

func TestViewSeek(t *testing.T) {
	v := testView()
	// Before everything.
	if got := v.Seek(keys.MakeSeekKey(nil, []byte("a"), keys.MaxSequence)); got != 0 {
		t.Fatalf("Seek(before-all) = %d, want 0", got)
	}
	// Beyond everything.
	if got := v.Seek(keys.MakeSeekKey(nil, []byte("zzz"), keys.MaxSequence)); got != len(v.Entries) {
		t.Fatalf("Seek(after-all) = %d, want %d", got, len(v.Entries))
	}
	// Each separator's own user key must land on (at latest) its entry,
	// and a key just past it must land strictly later.
	for i, e := range v.Entries {
		uk := keys.UserKey(e.Sep)
		if got := v.Seek(keys.MakeSeekKey(nil, uk, keys.MaxSequence)); got > i {
			t.Fatalf("Seek(sep[%d]) = %d, want <= %d", i, got, i)
		}
		past := append(append([]byte(nil), uk...), 0xff)
		if got := v.Seek(keys.MakeSeekKey(nil, past, keys.MaxSequence)); got <= i {
			t.Fatalf("Seek(past sep[%d]) = %d, want > %d", i, got, i)
		}
	}
}

func TestViewSeekMonotonic(t *testing.T) {
	v := testView()
	prev := -1
	// Seeking increasing targets must yield non-decreasing ordinals.
	for i := range v.Entries {
		got := v.Seek(v.Entries[i].Sep)
		if got < prev {
			t.Fatalf("Seek went backwards: %d then %d", prev, got)
		}
		prev = got
	}
}

func TestBuildViewOrder(t *testing.T) {
	v := testView()
	var indexes [][]IndexEntry
	for mi := range v.Members {
		var idx []IndexEntry
		for _, e := range v.Entries {
			if int(e.Member) == mi {
				idx = append(idx, IndexEntry{Sep: e.Sep, H: e.H})
			}
		}
		indexes = append(indexes, idx)
	}
	rebuilt := BuildView(v.Level, v.Members, indexes, nil)
	if !viewsEqual(v, rebuilt) {
		t.Fatal("BuildView did not reproduce the member-order concatenation")
	}
	for i := 1; i < len(rebuilt.Entries); i++ {
		if keys.Compare(rebuilt.Entries[i-1].Sep, rebuilt.Entries[i].Sep) > 0 {
			t.Fatalf("entry %d out of global key order", i)
		}
	}
}

// TestBuildViewClampsFinalSeparator reproduces the overshoot hazard: a
// member's final index separator is a short successor ("l") that sorts
// past the next member's whole key range. Clamping to the member's largest
// internal key must restore global separator order.
func TestBuildViewClampsFinalSeparator(t *testing.T) {
	sep := func(uk string) []byte { return keys.MakeSeekKey(nil, []byte(uk), keys.MaxSequence) }
	indexes := [][]IndexEntry{
		{
			{Sep: sep("key100"), H: Handle{Offset: 0, Length: 10}},
			// Writer's final separator: short successor of "key150".
			{Sep: sep("l"), H: Handle{Offset: 10, Length: 10}},
		},
		{
			{Sep: sep("key200"), H: Handle{Offset: 0, Length: 10}},
			{Sep: sep("l"), H: Handle{Offset: 10, Length: 10}},
		},
	}
	uppers := [][]byte{sep("key150"), sep("key250")}
	v := BuildView(3, []uint64{1, 2}, indexes, uppers)
	for i := 1; i < len(v.Entries); i++ {
		if keys.Compare(v.Entries[i-1].Sep, v.Entries[i].Sep) > 0 {
			t.Fatalf("entry %d out of order: %q > %q", i,
				keys.UserKey(v.Entries[i-1].Sep), keys.UserKey(v.Entries[i].Sep))
		}
	}
	if got := keys.UserKey(v.Entries[1].Sep); string(got) != "key150" {
		t.Fatalf("member 0 final separator = %q, want clamped key150", got)
	}
	if got := keys.UserKey(v.Entries[3].Sep); string(got) != "key250" {
		t.Fatalf("member 1 final separator = %q, want clamped key250", got)
	}
}

// indexesOf splits v back into its members' index entries.
func indexesOf(v *View) [][]IndexEntry {
	indexes := make([][]IndexEntry, len(v.Members))
	for _, e := range v.Entries {
		indexes[e.Member] = append(indexes[e.Member], IndexEntry{Sep: e.Sep, H: e.H})
	}
	return indexes
}

// TestViewSplice drops a member from the middle of a view and splices in two
// new ones, one inside the gap it left and one past the end: the result must
// be the view BuildView derives from the new membership in key order.
func TestViewSplice(t *testing.T) {
	v := testView() // members 11, 42, 107 hold m00-*, m01-*, m02-*
	sep := func(uk string) []byte { return keys.MakeSeekKey(nil, []byte(uk), keys.MaxSequence) }
	added := BuildView(v.Level, []uint64{200, 300}, [][]IndexEntry{
		{{Sep: sep("m01-a"), H: Handle{Offset: 0, Length: 50}}, {Sep: sep("m01-b"), H: Handle{Offset: 55, Length: 50}}},
		{{Sep: sep("m03"), H: Handle{Offset: 0, Length: 70}}},
	}, nil)
	got := v.Splice([]uint64{42}, added)

	old, add := indexesOf(v), indexesOf(added)
	want := BuildView(v.Level, []uint64{11, 200, 107, 300}, [][]IndexEntry{old[0], add[0], old[2], add[1]}, nil)
	if !viewsEqual(got, want) {
		t.Fatalf("splice:\n got %+v\nwant %+v", got, want)
	}
	if same := v.Splice(nil, nil); !viewsEqual(same, v) {
		t.Fatal("an empty splice changed the view")
	}
	if empty := v.Splice(v.Members, nil); len(empty.Members) != 0 || len(empty.Entries) != 0 {
		t.Fatalf("dropping every member left %+v", empty)
	}
}
