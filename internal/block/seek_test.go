package block

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"rocksmash/internal/keys"
)

// shortKeyBlock is a well-framed block (one restart, count 1) whose single
// entry has the 1-byte key "k": shorter than the 8-byte trailer every
// comparison reads.
var shortKeyBlock = []byte{0, 1, 0, 'k', 0, 0, 0, 0, 1, 0, 0, 0}

// TestShortKeyIsCorruptNotPanic: bytes from disk or the cloud whose entry key
// cannot hold a trailer must answer ErrCorrupt from every seek, not panic in
// keys.Compare.
func TestShortKeyIsCorruptNotPanic(t *testing.T) {
	r, err := NewReader(shortKeyBlock)
	if err != nil {
		t.Fatalf("the block is well framed: %v", err)
	}
	target := ik("k", 1)
	for name, seek := range map[string]func(*Iter){
		"SeekGE": func(it *Iter) { it.SeekGE(target) },
		"SeekLT": func(it *Iter) { it.SeekLT(target) },
		"First":  func(it *Iter) { it.First() },
		"Last":   func(it *Iter) { it.Last() },
	} {
		it := r.NewIter()
		seek(it)
		if it.Valid() || !errors.Is(it.Err(), ErrCorrupt) {
			t.Errorf("%s: valid=%v err=%v, want ErrCorrupt", name, it.Valid(), it.Err())
		}
	}
	var buf [keys.SeekBufLen]byte
	if _, _, ok, err := r.SeekGE(target, buf[:0]); ok || !errors.Is(err, ErrCorrupt) {
		t.Errorf("point SeekGE: ok=%v err=%v, want ErrCorrupt", ok, err)
	}

	// The same key behind a second restart point: the binary search reads
	// it through restartKey.
	b := NewBuilder(1)
	b.Add(ik("a", 2), nil)
	data := b.Finish()
	entries := len(data) - 8 // one restart offset + the count
	two := append([]byte(nil), data[:entries]...)
	two = append(two, 0, 1, 0, 'k')
	two = binary.LittleEndian.AppendUint32(two, 0)
	two = binary.LittleEndian.AppendUint32(two, uint32(entries))
	two = binary.LittleEndian.AppendUint32(two, 2)
	if r, err = NewReader(two); err != nil {
		t.Fatal(err)
	}
	it := r.NewIter()
	it.SeekGE(target)
	if it.Valid() || !errors.Is(it.Err(), ErrCorrupt) {
		t.Errorf("restart key: valid=%v err=%v, want ErrCorrupt", it.Valid(), it.Err())
	}
	if _, _, ok, err := r.SeekGE(target, buf[:0]); ok || !errors.Is(err, ErrCorrupt) {
		t.Errorf("restart key, point SeekGE: ok=%v err=%v, want ErrCorrupt", ok, err)
	}
}

// TestPointSeekMatchesIter: on well-formed blocks the point seek returns
// exactly the entry Iter.SeekGE lands on, for present, absent, before-first
// and past-last targets, without allocating when the buffer is large enough.
func TestPointSeekMatchesIter(t *testing.T) {
	for _, ri := range []int{1, 3, 16} {
		b := NewBuilder(ri)
		for i := 0; i < 100; i += 2 {
			b.Add(ik(fmt.Sprintf("key%04d", i), uint64(1000-i)), []byte(fmt.Sprintf("val%d", i)))
		}
		r, err := NewReader(b.Finish())
		if err != nil {
			t.Fatal(err)
		}
		it := r.NewIter()
		var buf [keys.SeekBufLen]byte
		for i := -1; i <= 101; i++ {
			target := keys.MakeSeekKey(nil, []byte(fmt.Sprintf("key%04d", i)), keys.MaxSequence)
			it.SeekGE(target)
			key, value, ok, err := r.SeekGE(target, buf[:0])
			if err != nil || ok != it.Valid() {
				t.Fatalf("ri=%d target %d: ok=%v err=%v, iterator valid=%v", ri, i, ok, err, it.Valid())
			}
			if ok && (!bytes.Equal(key, it.Key()) || !bytes.Equal(value, it.Value())) {
				t.Fatalf("ri=%d target %d: point seek %q=%q, iterator %q=%q", ri, i, key, value, it.Key(), it.Value())
			}
		}
		target := ik("key0050", keys.MaxSequence)
		if n := testing.AllocsPerRun(100, func() {
			var buf [keys.SeekBufLen]byte
			if _, _, ok, _ := r.SeekGE(target, buf[:0]); !ok {
				t.Fatal("lost key0050")
			}
		}); n != 0 {
			t.Errorf("ri=%d: point seek allocates %.1f objects, want 0", ri, n)
		}
	}
}

// TestIterResetKeepsKeyBuffer: walking block after block through one
// iterator allocates nothing once its key buffer has grown.
func TestIterResetKeepsKeyBuffer(t *testing.T) {
	var blocks [][]byte
	for n := 0; n < 4; n++ {
		b := NewBuilder(4)
		for i := 0; i < 20; i++ {
			b.Add(ik(fmt.Sprintf("b%d-key%04d", n, i), 7), []byte("v"))
		}
		blocks = append(blocks, b.Finish())
	}
	var it Iter
	walk := func() (n int) {
		for _, data := range blocks {
			r, err := Parse(data)
			if err != nil {
				t.Fatal(err)
			}
			it.Reset(r)
			for it.First(); it.Valid(); it.Next() {
				n++
			}
			if it.Err() != nil {
				t.Fatal(it.Err())
			}
		}
		return n
	}
	if got := walk(); got != 80 {
		t.Fatalf("walked %d entries, want 80", got)
	}
	if n := testing.AllocsPerRun(20, func() { walk() }); n != 0 {
		t.Errorf("re-pointed iterator allocates %.1f objects per 4 blocks, want 0", n)
	}
}
