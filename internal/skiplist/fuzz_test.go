package skiplist

import (
	"bytes"
	"encoding/binary"
	"slices"
	"sync"
	"testing"

	"rocksmash/internal/arena"
	"rocksmash/internal/keys"
)

// fuzzTuple is one entry of a FuzzSkiplistOrder input.
type fuzzTuple struct {
	ukey string
	seq  uint16
	set  bool
}

// encodeTuples codes tuples as FuzzSkiplistOrder reads them: a control byte
// (bit 0 set: a Set, else a Delete; bits 1-5: the key length, 0 to 31), a
// little-endian 16-bit sequence number and the key's bytes.
func encodeTuples(ts ...fuzzTuple) []byte {
	var b []byte
	for _, t := range ts {
		ctl := byte(len(t.ukey)) << 1
		if t.set {
			ctl |= 1
		}
		b = append(b, ctl)
		b = binary.LittleEndian.AppendUint16(b, t.seq)
		b = append(b, t.ukey...)
	}
	return b
}

// FuzzSkiplistOrder inserts arbitrary (user key, seq, kind) tuples from two
// goroutines at once, then requires the list to agree with a sorted copy:
// First/Next and Last/Prev walk it in keys.Compare order with every value
// in place, and SeekGE and SeekLT land where a search of the copy does, for
// every inserted key and for the seek keys just before and just after each
// user key's versions. A tuple whose internal key was already inserted is
// skipped (Insert requires unique keys). The seeds cover user keys shorter
// than the 8-byte prefix, keys that tie on the prefix and differ after it,
// many versions of one key, and the empty user key.
func FuzzSkiplistOrder(f *testing.F) {
	f.Add(encodeTuples(
		fuzzTuple{"a", 1, true}, fuzzTuple{"ab", 2, true}, fuzzTuple{"a\x00", 3, true},
		fuzzTuple{"b", 4, false}, fuzzTuple{"abcdefg", 5, true}, fuzzTuple{"abcdefgh", 6, true},
	))
	f.Add(encodeTuples(
		fuzzTuple{"user0000x2", 1, true}, fuzzTuple{"user0000x1", 2, true}, fuzzTuple{"user0000", 3, true},
		fuzzTuple{"user00001", 4, false}, fuzzTuple{"user0000\x00", 5, true}, fuzzTuple{"user0001", 6, true},
		fuzzTuple{"user0000x10000000000", 7, true},
	))
	var versions []fuzzTuple
	for seq := uint16(1); seq <= 40; seq++ {
		versions = append(versions, fuzzTuple{"hot-key", seq, seq%5 != 0})
	}
	f.Add(encodeTuples(versions...))
	f.Add(encodeTuples(
		fuzzTuple{"", 1, true}, fuzzTuple{"", 2, false}, fuzzTuple{"\x00", 3, true}, fuzzTuple{"k", 4, true},
	))
	f.Fuzz(func(t *testing.T, data []byte) {
		type entry struct{ k, v []byte }
		var in []entry
		seen := map[string]bool{}
		for len(data) >= 3 && len(in) < 2048 {
			ctl, seq := data[0], binary.LittleEndian.Uint16(data[1:])
			data = data[3:]
			klen := min(int(ctl>>1)&31, len(data))
			kind := keys.KindDelete
			if ctl&1 == 1 {
				kind = keys.KindSet
			}
			k := keys.MakeInternalKey(nil, data[:klen], uint64(seq), kind)
			data = data[klen:]
			if seen[string(k)] {
				continue
			}
			seen[string(k)] = true
			v := binary.LittleEndian.AppendUint16(nil, uint16(len(in)))
			if kind == keys.KindDelete {
				v = nil
			}
			in = append(in, entry{k, v})
		}

		l := New(arena.New())
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(in); i += 2 {
					l.Insert(in[i].k, in[i].v)
				}
			}(w)
		}
		wg.Wait()

		want := slices.Clone(in)
		slices.SortFunc(want, func(a, b entry) int { return keys.Compare(a.k, b.k) })
		if l.Len() != len(want) {
			t.Fatalf("Len = %d, want %d", l.Len(), len(want))
		}
		it := l.NewIterator()
		check := func(i int, how string) {
			t.Helper()
			if !it.Valid() || !bytes.Equal(it.Key(), want[i].k) || !bytes.Equal(it.Value(), want[i].v) {
				t.Fatalf("%s: entry %d is not %q = %q", how, i, want[i].k, want[i].v)
			}
		}
		it.First()
		for i := range want {
			check(i, "forward")
			it.Next()
		}
		if it.Valid() {
			t.Fatalf("forward: an entry past the %d inserted", len(want))
		}
		it.Last()
		for i := len(want) - 1; i >= 0; i-- {
			check(i, "backward")
			it.Prev()
		}
		if it.Valid() {
			t.Fatalf("backward: an entry before the %d inserted", len(want))
		}

		seek := func(probe []byte) {
			ge, _ := slices.BinarySearchFunc(want, probe, func(e entry, p []byte) int { return keys.Compare(e.k, p) })
			it.SeekGE(probe)
			if ge == len(want) {
				if it.Valid() {
					t.Fatalf("SeekGE(%q) found %q past the last entry", probe, it.Key())
				}
			} else {
				check(ge, "SeekGE")
			}
			it.SeekLT(probe)
			if ge == 0 {
				if it.Valid() {
					t.Fatalf("SeekLT(%q) found %q before the first entry", probe, it.Key())
				}
			} else {
				check(ge-1, "SeekLT")
			}
		}
		for _, e := range in {
			ukey := keys.UserKey(e.k)
			seek(e.k)
			seek(keys.MakeSeekKey(nil, ukey, keys.MaxSequence))
			seek(keys.MakeInternalKey(nil, ukey, 0, keys.KindDelete))
		}
	})
}
