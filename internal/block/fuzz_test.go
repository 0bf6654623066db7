package block

import (
	"bytes"
	"encoding/binary"
	"testing"

	"rocksmash/internal/keys"
)

// FuzzBlockSeek feeds arbitrary bytes to the block decoder: nothing may
// panic, every walk must end, and the iterator-free point seek must agree
// with Iter.SeekGE on whether there is an entry, which one, and whether the
// block is corrupt. A seek table builds exactly when Walk accepts the
// block, and its point seek — directly, and through a Cell, which builds it
// or falls back to the raw bytes — agrees with both; a table that keeps its
// entries returns the ordinal of the entry it lands on, and Value of that
// ordinal is the entry's value. The seed corpus in
// testdata/fuzz/FuzzBlockSeek (builder output at restart intervals 1 and
// 16, truncated and bit-flipped copies, and the short-key block of
// TestShortKeyIsCorruptNotPanic) and the seek-table shapes added below
// (seekShapes: zero-padding prefix ties, a key that runs on into its
// predecessor's trailer, keys that differ past the 8-byte prefix, one key's
// versions across restart points, targets outside a common prefix) are
// replayed by a plain `go test`.
func FuzzBlockSeek(f *testing.F) {
	trailer := keys.PackTrailer(keys.MaxSequence, keys.KindSet)
	for name, shape := range seekShapes {
		for _, ri := range []int{1, 4, 16} {
			data := shapeBlock(name, ri)
			for _, e := range shape {
				f.Add(data, []byte(e.ukey), trailer)
				f.Add(data, []byte(e.ukey), keys.PackTrailer(e.seq, keys.KindSet))
			}
			for _, outside := range []string{"", "com", "commom", "common/z", "zz"} {
				f.Add(data, []byte(outside), trailer)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data, ukey []byte, trailer uint64) {
		r, err := NewReader(data)
		if err != nil {
			return
		}
		target := binary.LittleEndian.AppendUint64(append([]byte(nil), ukey...), trailer)

		it := r.NewIter()
		it.SeekGE(target)
		key, value, ok, err := r.SeekGE(target, nil)
		if ok != it.Valid() || (err != nil) != (it.Err() != nil) {
			t.Fatalf("point seek ok=%v err=%v, iterator valid=%v err=%v", ok, err, it.Valid(), it.Err())
		}
		if ok && (!bytes.Equal(key, it.Key()) || !bytes.Equal(value, it.Value())) {
			t.Fatalf("point seek %x=%x, iterator %x=%x", key, value, it.Key(), it.Value())
		}

		agree := func(via string, k, v []byte, o bool, e error) {
			if o != ok || (e != nil) != (err != nil) || !bytes.Equal(k, key) || !bytes.Equal(v, value) {
				t.Fatalf("%s %x=%x ok=%v err=%v, point seek %x=%x ok=%v err=%v", via, k, v, o, e, key, value, ok, err)
			}
		}
		st, terr := NewSeekTable(data)
		werr := r.Walk(func(int, int, int, int) error { return nil })
		if (terr != nil) != (werr != nil) {
			t.Fatalf("seek table build err=%v, Walk err=%v", terr, werr)
		}
		if terr == nil {
			i, k, v, o, e := st.SeekGE(target, nil)
			agree("seek table", k, v, o, e)
			// A table with entries holds them sorted: the seek lands on the
			// ordinal of the first key >= target.
			below := 0
			for it.First(); st.Len() > 0 && it.Valid() && keys.Compare(it.Key(), target) < 0; it.Next() {
				below++
			}
			if st.Len() > 0 && (i != below || (o && !bytes.Equal(st.Value(i), v))) {
				t.Fatalf("seek table landed on entry %d (value %x), %d of %d entries sort below the target", i, v, below, st.Len())
			}
		}
		var cell Cell
		for i := 0; i < 2; i++ { // the first seek builds, the second reads the table
			k, v, o, e := cell.SeekGE(data, target, nil)
			agree("cell", k, v, o, e)
		}

		// An entry is at least three bytes, so no walk is longer than the
		// block.
		steps := 0
		step := func() {
			if steps++; steps > len(data) {
				t.Fatalf("walk did not end within %d steps", len(data))
			}
		}
		for it.First(); it.Valid(); it.Next() {
			step()
		}
		steps = 0
		for it.Last(); it.Valid(); it.Prev() {
			step()
		}
		steps = 0
		for it.SeekLT(target); it.Valid(); it.Prev() {
			step()
		}
	})
}
