package block

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzBlockSeek feeds arbitrary bytes to the block decoder: nothing may
// panic, every walk must end, and the iterator-free point seek must agree
// with Iter.SeekGE on whether there is an entry, which one, and whether the
// block is corrupt. The seed corpus in testdata/fuzz/FuzzBlockSeek (builder
// output at restart intervals 1 and 16, truncated and bit-flipped copies,
// and the short-key block of TestShortKeyIsCorruptNotPanic) is replayed by a
// plain `go test`.
func FuzzBlockSeek(f *testing.F) {
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
