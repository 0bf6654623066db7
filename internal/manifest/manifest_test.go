package manifest

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"rocksmash/internal/keys"
	"rocksmash/internal/storage"
)

func ik(k string, seq uint64) []byte {
	return keys.MakeInternalKey(nil, []byte(k), seq, keys.KindSet)
}

func fm(num uint64, lo, hi string, minSeq, maxSeq uint64, tier storage.Tier) FileMetadata {
	return FileMetadata{
		Num: num, Size: 1000, Smallest: ik(lo, maxSeq), Largest: ik(hi, minSeq),
		MinSeq: minSeq, MaxSeq: maxSeq, Tier: tier,
	}
}

func TestEditEncodeDecode(t *testing.T) {
	e := &VersionEdit{
		HasNextFileNum: true, NextFileNum: 42,
		HasLastSeq: true, LastSeq: 999,
		HasFlushedSeq: true, FlushedSeq: 900,
		Added: []AddedFile{
			{Level: 0, Meta: fm(7, "a", "m", 1, 50, storage.TierLocal)},
			{Level: 3, Meta: fm(9, "n", "z", 51, 80, storage.TierCloud)},
		},
		Deleted: []DeletedFile{{Level: 1, Num: 5}},
	}
	dec, err := DecodeEdit(e.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(e, dec) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", e, dec)
	}
}

func TestEditEncodeDecodePending(t *testing.T) {
	pending := fm(11, "a", "k", 1, 30, storage.TierLocal)
	pending.PendingCloud = true
	e := &VersionEdit{
		Added: []AddedFile{
			{Level: 0, Meta: pending},
			{Level: 0, Meta: fm(12, "l", "z", 31, 60, storage.TierCloud)},
		},
	}
	dec, err := DecodeEdit(e.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(e, dec) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", e, dec)
	}
	if !dec.Added[0].Meta.PendingCloud || dec.Added[1].Meta.PendingCloud {
		t.Fatal("pending flag not preserved per file")
	}
}

func TestEditDecodeCorrupt(t *testing.T) {
	if _, err := DecodeEdit([]byte{200}); err == nil {
		t.Fatal("bad tag should fail")
	}
	e := &VersionEdit{Added: []AddedFile{{Level: 0, Meta: fm(1, "a", "b", 1, 2, storage.TierLocal)}}}
	enc := e.Encode()
	if _, err := DecodeEdit(enc[:len(enc)-2]); err == nil {
		t.Fatal("truncated edit should fail")
	}
}

func TestVersionApplyAddDelete(t *testing.T) {
	v := NewVersion()
	e1 := &VersionEdit{Added: []AddedFile{
		{Level: 1, Meta: fm(1, "a", "f", 1, 10, storage.TierLocal)},
		{Level: 1, Meta: fm(2, "g", "m", 11, 20, storage.TierCloud)},
	}}
	v1, err := v.Apply(e1)
	if err != nil {
		t.Fatal(err)
	}
	if len(v1.Levels[1]) != 2 {
		t.Fatalf("L1 = %d files", len(v1.Levels[1]))
	}
	// Original unchanged (immutability).
	if len(v.Levels[1]) != 0 {
		t.Fatal("base version mutated")
	}
	v2, err := v1.Apply(&VersionEdit{Deleted: []DeletedFile{{Level: 1, Num: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(v2.Levels[1]) != 1 || v2.Levels[1][0].Num != 2 {
		t.Fatalf("delete failed: %+v", v2.Levels[1])
	}
}

func TestVersionRejectsOverlapDeepLevels(t *testing.T) {
	v := NewVersion()
	_, err := v.Apply(&VersionEdit{Added: []AddedFile{
		{Level: 2, Meta: fm(1, "a", "m", 1, 10, storage.TierLocal)},
		{Level: 2, Meta: fm(2, "k", "z", 11, 20, storage.TierLocal)},
	}})
	if err == nil {
		t.Fatal("overlapping L2 files should be rejected")
	}
}

func TestVersionAllowsL0Overlap(t *testing.T) {
	v := NewVersion()
	v1, err := v.Apply(&VersionEdit{Added: []AddedFile{
		{Level: 0, Meta: fm(1, "a", "m", 1, 10, storage.TierLocal)},
		{Level: 0, Meta: fm(2, "k", "z", 11, 20, storage.TierLocal)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Newest first.
	if v1.Levels[0][0].Num != 2 {
		t.Fatalf("L0 order: %v", v1.Levels[0])
	}
}

func TestDeleteUnknownFileFails(t *testing.T) {
	v := NewVersion()
	if _, err := v.Apply(&VersionEdit{Deleted: []DeletedFile{{Level: 0, Num: 99}}}); err == nil {
		t.Fatal("deleting unknown file should fail")
	}
}

func TestFilesForOrdering(t *testing.T) {
	v := NewVersion()
	v, err := v.Apply(&VersionEdit{Added: []AddedFile{
		{Level: 0, Meta: fm(3, "c", "p", 30, 40, storage.TierLocal)},
		{Level: 0, Meta: fm(4, "a", "h", 41, 50, storage.TierLocal)},
		{Level: 1, Meta: fm(1, "a", "g", 1, 10, storage.TierCloud)},
		{Level: 1, Meta: fm(2, "h", "z", 11, 20, storage.TierCloud)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	var visited []uint64
	err = v.FilesFor([]byte("e"), func(level int, f *FileMetadata) (bool, error) {
		visited = append(visited, f.Num)
		return false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// L0 newest (4) then older (3), then L1 file containing "e" (1).
	if fmt.Sprint(visited) != "[4 3 1]" {
		t.Fatalf("visit order = %v", visited)
	}
	// Early stop.
	visited = nil
	v.FilesFor([]byte("e"), func(level int, f *FileMetadata) (bool, error) {
		visited = append(visited, f.Num)
		return true, nil
	})
	if len(visited) != 1 {
		t.Fatalf("stop ignored: %v", visited)
	}
}

func TestOverlapping(t *testing.T) {
	v := NewVersion()
	v, _ = v.Apply(&VersionEdit{Added: []AddedFile{
		{Level: 2, Meta: fm(1, "a", "c", 1, 1, storage.TierLocal)},
		{Level: 2, Meta: fm(2, "d", "f", 2, 2, storage.TierLocal)},
		{Level: 2, Meta: fm(3, "g", "i", 3, 3, storage.TierLocal)},
	}})
	if i, j := v.OverlapRange(2, []byte("e"), []byte("h")); i != 1 || j != 3 {
		t.Fatalf("overlap = [%d, %d), want [1, 3)", i, j)
	}
	if i, j := v.OverlapRange(2, nil, nil); i != 0 || j != 3 {
		t.Fatalf("unbounded overlap = [%d, %d)", i, j)
	}
	// The binary searches find what a linear scan of the level finds, for
	// every bound inside, between, on and beyond the files, and for nil.
	bounds := [][]byte{nil}
	for c := 'a' - 1; c <= 'j'; c++ {
		bounds = append(bounds, []byte{byte(c)})
	}
	for _, lo := range bounds {
		for _, hi := range bounds {
			var want []uint64
			for _, f := range v.Levels[2] {
				if f.OverlapsRange(lo, hi) {
					want = append(want, f.Num)
				}
			}
			var got []uint64
			i, j := v.OverlapRange(2, lo, hi)
			for _, f := range v.Levels[2][i:j] {
				got = append(got, f.Num)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("OverlapRange(%q, %q) = %v, linear scan %v", lo, hi, got, want)
			}
		}
	}
}

func TestSetPersistAndRecover(t *testing.T) {
	dir := t.TempDir()
	be, err := storage.NewLocal(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(be)
	if err != nil {
		t.Fatal(err)
	}
	n1 := s.NewFileNum()
	e := &VersionEdit{
		Added:         []AddedFile{{Level: 0, Meta: fm(n1, "a", "z", 1, 100, storage.TierLocal)}},
		HasFlushedSeq: true, FlushedSeq: 100,
	}
	s.SetLastSeq(100)
	if err := s.LogAndApply(e); err != nil {
		t.Fatal(err)
	}
	n2 := s.NewFileNum()
	if err := s.LogAndApply(&VersionEdit{
		Added: []AddedFile{{Level: 1, Meta: fm(n2, "a", "z", 101, 200, storage.TierCloud)}},
	}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := Open(be)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	v := s2.Current()
	if len(v.Levels[0]) != 1 || len(v.Levels[1]) != 1 {
		t.Fatalf("recovered layout: L0=%d L1=%d", len(v.Levels[0]), len(v.Levels[1]))
	}
	if v.Levels[1][0].Tier != storage.TierCloud {
		t.Fatal("tier lost in recovery")
	}
	if s2.FlushedSeq() != 100 {
		t.Fatalf("flushedSeq = %d", s2.FlushedSeq())
	}
	if s2.LastSeq() < 100 {
		t.Fatalf("lastSeq = %d", s2.LastSeq())
	}
	if s2.PeekFileNum() <= n2 {
		t.Fatalf("file numbering regressed: %d", s2.PeekFileNum())
	}
}

func TestRecoverToleratesTornManifestTail(t *testing.T) {
	dir := t.TempDir()
	be, _ := storage.NewLocal(dir)
	s, err := Open(be)
	if err != nil {
		t.Fatal(err)
	}
	num := s.NewFileNum()
	s.LogAndApply(&VersionEdit{Added: []AddedFile{{Level: 0, Meta: fm(num, "a", "b", 1, 2, storage.TierLocal)}}})
	s.Close()

	cur, _ := be.ReadAll("CURRENT")
	data, _ := be.ReadAll(string(cur))
	data = append(data, 0x01, 0x02, 0x03) // torn tail
	if err := storage.WriteObject(be, string(cur), data); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(be)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Current().NumFiles() != 1 {
		t.Fatalf("files = %d", s2.Current().NumFiles())
	}
}

func TestLevelSizeAndMaxLevel(t *testing.T) {
	v := NewVersion()
	v, _ = v.Apply(&VersionEdit{Added: []AddedFile{
		{Level: 0, Meta: fm(1, "a", "b", 1, 1, storage.TierLocal)},
		{Level: 3, Meta: fm(2, "c", "d", 2, 2, storage.TierCloud)},
	}})
	if v.LevelSize(0) != 1000 || v.LevelSize(3) != 1000 || v.LevelSize(5) != 0 {
		t.Fatal("level sizes wrong")
	}
	if v.MaxLevel() != 3 {
		t.Fatalf("max level = %d", v.MaxLevel())
	}
	if v.NumFiles() != 2 {
		t.Fatalf("num files = %d", v.NumFiles())
	}
}

func TestQuickEditRoundTrip(t *testing.T) {
	f := func(nextNum, lastSeq uint64, adds uint8, dels uint8) bool {
		e := &VersionEdit{HasNextFileNum: true, NextFileNum: nextNum, HasLastSeq: true, LastSeq: lastSeq}
		for i := 0; i < int(adds%8); i++ {
			e.Added = append(e.Added, AddedFile{
				Level: i % NumLevels,
				Meta:  fm(uint64(i+1), fmt.Sprintf("k%d", i), fmt.Sprintf("k%dz", i), 1, 2, storage.Tier(i%2)),
			})
		}
		for i := 0; i < int(dels%8); i++ {
			e.Deleted = append(e.Deleted, DeletedFile{Level: i % NumLevels, Num: uint64(100 + i)})
		}
		dec, err := DecodeEdit(e.Encode())
		return err == nil && reflect.DeepEqual(e, dec)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestContainsAndOverlaps(t *testing.T) {
	f := fm(1, "d", "m", 1, 2, storage.TierLocal)
	if !f.ContainsUserKey([]byte("d")) || !f.ContainsUserKey([]byte("m")) || !f.ContainsUserKey([]byte("h")) {
		t.Fatal("inclusive bounds broken")
	}
	if f.ContainsUserKey([]byte("c")) || f.ContainsUserKey([]byte("n")) {
		t.Fatal("out-of-range keys matched")
	}
	if !f.OverlapsRange(nil, nil) || !f.OverlapsRange([]byte("a"), []byte("e")) {
		t.Fatal("overlap misses")
	}
	if f.OverlapsRange([]byte("n"), []byte("z")) || f.OverlapsRange([]byte("a"), []byte("c")) {
		t.Fatal("phantom overlap")
	}
	if !bytes.Equal(keys.UserKey(f.Smallest), []byte("d")) {
		t.Fatal("smallest wrong")
	}
}
