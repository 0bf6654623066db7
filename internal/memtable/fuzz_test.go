package memtable

import (
	"bytes"
	"slices"
	"testing"

	"rocksmash/internal/keys"
)

// FuzzRunOrder adds arbitrary (user key, seq, kind) tuples to a run, some
// aliasing its image and some copied, and requires Finish to put them in
// exactly the order slices.SortFunc(keys.Compare) gives their internal
// keys: the radix sort on the prefix and the tie pass together are the
// run's one order mechanism. Entries whose internal keys are equal may come
// out in either order, so beyond the key sequence the (key, value) pairs
// are compared as sets. Each tuple is coded as a control byte (bit 0 set:
// a Set, else a Delete; bit 1 set: copied, else aliased; bits 2-5: the key
// length, 0 to 15), a sequence byte and the key's bytes. The seed corpus in
// testdata/fuzz/FuzzRunOrder (YCSB-shaped keys, a group sharing one
// prefix, many versions of one key, short keys with zero bytes) is
// replayed by a plain `go test`.
func FuzzRunOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var in []runInput
		for len(data) >= 2 && len(in) < 1024 {
			ctl, seq := data[0], uint64(data[1])
			data = data[2:]
			klen := min(int(ctl>>2)&15, len(data))
			kind := keys.KindDelete
			if ctl&1 == 1 {
				kind = keys.KindSet
			}
			i := len(in)
			in = append(in, runInput{seq, kind, data[:klen:klen], []byte{byte(i), byte(i >> 8)}, ctl&2 == 0})
			data = data[klen:]
		}
		r, m, _ := buildRun(t, in, 3)

		type pair struct{ k, v []byte }
		var got, want []pair
		it := r.NewIterator()
		for it.First(); it.Valid(); it.Next() {
			got = append(got, pair{bytes.Clone(it.Key()), bytes.Clone(it.Value())})
		}
		for i := range m.ikeys {
			want = append(want, pair{m.ikeys[i], m.vals[i]})
		}
		if len(got) != len(want) {
			t.Fatalf("run holds %d entries, want %d", len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i].k, want[i].k) {
				t.Fatalf("entry %d is %q, want %q", i, got[i].k, want[i].k)
			}
		}
		byKeyValue := func(a, b pair) int {
			if c := bytes.Compare(a.k, b.k); c != 0 {
				return c
			}
			return bytes.Compare(a.v, b.v)
		}
		slices.SortFunc(got, byKeyValue)
		slices.SortFunc(want, byKeyValue)
		for i := range got {
			if !bytes.Equal(got[i].v, want[i].v) {
				t.Fatalf("entry %q holds value %q, want %q", got[i].k, got[i].v, want[i].v)
			}
		}
	})
}
