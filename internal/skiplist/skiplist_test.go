package skiplist

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"unsafe"

	"rocksmash/internal/arena"
	"rocksmash/internal/keys"
)

func ik(k string, seq uint64) []byte {
	return keys.MakeInternalKey(nil, []byte(k), seq, keys.KindSet)
}

func TestInsertAndIterate(t *testing.T) {
	l := New(arena.New())
	l.Insert(ik("b", 2), []byte("vb"))
	l.Insert(ik("a", 1), []byte("va"))
	l.Insert(ik("c", 3), []byte("vc"))

	it := l.NewIterator()
	it.First()
	var got []string
	for it.Valid() {
		got = append(got, string(keys.UserKey(it.Key()))+"="+string(it.Value()))
		it.Next()
	}
	want := []string{"a=va", "b=vb", "c=vc"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	if l.Len() != 3 {
		t.Fatalf("len = %d", l.Len())
	}
}

func TestSeqOrderingWithinKey(t *testing.T) {
	l := New(arena.New())
	l.Insert(ik("k", 1), []byte("old"))
	l.Insert(ik("k", 9), []byte("new"))

	it := l.NewIterator()
	it.SeekGE(keys.MakeSeekKey(nil, []byte("k"), keys.MaxSequence))
	if !it.Valid() || !bytes.Equal(it.Value(), []byte("new")) {
		t.Fatal("newest entry should come first")
	}
	it.Next()
	if !it.Valid() || !bytes.Equal(it.Value(), []byte("old")) {
		t.Fatal("older entry should come second")
	}
}

func TestSeekGE(t *testing.T) {
	l := New(arena.New())
	for i := 0; i < 100; i += 2 {
		l.Insert(ik(fmt.Sprintf("k%03d", i), uint64(i+1)), []byte("v"))
	}
	it := l.NewIterator()
	it.SeekGE(keys.MakeSeekKey(nil, []byte("k051"), keys.MaxSequence))
	if !it.Valid() {
		t.Fatal("expected valid")
	}
	if got := string(keys.UserKey(it.Key())); got != "k052" {
		t.Fatalf("seek landed on %q", got)
	}
	// Seek past the end.
	it.SeekGE(keys.MakeSeekKey(nil, []byte("z"), keys.MaxSequence))
	if it.Valid() {
		t.Fatal("seek past end should be invalid")
	}
}

func TestSeekLTAndPrev(t *testing.T) {
	l := New(arena.New())
	for _, k := range []string{"a", "c", "e"} {
		l.Insert(ik(k, 1), []byte(k))
	}
	it := l.NewIterator()
	it.SeekLT(ik("d", 1))
	if !it.Valid() || string(keys.UserKey(it.Key())) != "c" {
		t.Fatalf("SeekLT landed on %v", it.Valid())
	}
	it.Prev()
	if !it.Valid() || string(keys.UserKey(it.Key())) != "a" {
		t.Fatal("Prev should land on a")
	}
	it.Prev()
	if it.Valid() {
		t.Fatal("Prev before first should be invalid")
	}
	it.SeekLT(ik("a", keys.MaxSequence))
	if it.Valid() {
		t.Fatal("SeekLT before first key should be invalid")
	}
}

func TestFirstLastEmpty(t *testing.T) {
	l := New(arena.New())
	it := l.NewIterator()
	it.First()
	if it.Valid() {
		t.Fatal("empty list First should be invalid")
	}
	it.Last()
	if it.Valid() {
		t.Fatal("empty list Last should be invalid")
	}
	if !l.Empty() {
		t.Fatal("should be empty")
	}
}

func TestMatchesReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	l := New(arena.New())
	var ref []string // encoded internal keys as strings
	for i := 0; i < 2000; i++ {
		k := fmt.Sprintf("key%04d", rng.Intn(500))
		ikey := keys.MakeInternalKey(nil, []byte(k), uint64(i+1), keys.KindSet)
		l.Insert(ikey, []byte(fmt.Sprint(i)))
		ref = append(ref, string(ikey))
	}
	sort.Slice(ref, func(i, j int) bool {
		return keys.Compare([]byte(ref[i]), []byte(ref[j])) < 0
	})
	it := l.NewIterator()
	it.First()
	for i := 0; i < len(ref); i++ {
		if !it.Valid() {
			t.Fatalf("iterator exhausted at %d/%d", i, len(ref))
		}
		if !bytes.Equal(it.Key(), []byte(ref[i])) {
			t.Fatalf("entry %d mismatch", i)
		}
		it.Next()
	}
	if it.Valid() {
		t.Fatal("iterator has extra entries")
	}
}

func TestConcurrentReadDuringInsert(t *testing.T) {
	l := New(arena.New())
	const n = 5000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			l.Insert(ik(fmt.Sprintf("k%06d", i), uint64(i+1)), []byte("v"))
		}
	}()
	// Readers: repeatedly scan; every observed prefix must be sorted.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 20; pass++ {
				it := l.NewIterator()
				it.First()
				var prev []byte
				for it.Valid() {
					if prev != nil && keys.Compare(prev, it.Key()) >= 0 {
						t.Error("out-of-order observation")
						return
					}
					prev = append(prev[:0], it.Key()...)
					it.Next()
				}
			}
		}()
	}
	wg.Wait()
	if l.Len() != n {
		t.Fatalf("len = %d want %d", l.Len(), n)
	}
}

func TestIndependentHeightStreams(t *testing.T) {
	// Two lists must not replay the same height sequence: identical streams
	// would correlate tower shapes across every memtable (and every keyspace
	// shard). Compare the first draws of freshly built lists.
	a, b := New(arena.New()), New(arena.New())
	same := true
	for i := 0; i < 64; i++ {
		if a.randomHeight() != b.randomHeight() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("two lists produced identical height sequences")
	}
}

func TestHeightDistribution(t *testing.T) {
	// Heights follow a geometric distribution with promotion probability
	// 1/branching: P(h=1) = 3/4, and E[h] = 1/(1-1/4) = 4/3.
	l := New(arena.New())
	const n = 100000
	counts := make([]int, maxHeight+1)
	sum := 0
	for i := 0; i < n; i++ {
		h := l.randomHeight()
		if h < 1 || h > maxHeight {
			t.Fatalf("height %d out of range [1, %d]", h, maxHeight)
		}
		counts[h]++
		sum += h
	}
	if f := float64(counts[1]) / n; f < 0.73 || f > 0.77 {
		t.Errorf("P(h=1) = %.4f, want ~0.75", f)
	}
	if mean := float64(sum) / n; mean < 1.30 || mean > 1.37 {
		t.Errorf("mean height = %.4f, want ~1.333", mean)
	}
	// Each extra level should be roughly 4x rarer than the previous.
	for h := 2; h <= 4; h++ {
		if counts[h] == 0 {
			t.Fatalf("no draws of height %d in %d samples", h, n)
		}
		ratio := float64(counts[h-1]) / float64(counts[h])
		if ratio < 3.2 || ratio > 4.9 {
			t.Errorf("count[%d]/count[%d] = %.2f, want ~4", h-1, h, ratio)
		}
	}
}

// TestHeadTowerFollowsNode: node.next reaches level i at 4*i bytes past
// next0, in the arena and in the head alike, so the head's extra levels must
// start right after its embedded node.
func TestHeadTowerFollowsNode(t *testing.T) {
	l := New(arena.New())
	if got, want := uintptr(unsafe.Pointer(l.head.next(1))), uintptr(unsafe.Pointer(&l.head.tower[0])); got != want {
		t.Fatalf("head level 1 at %#x, its tower at %#x", got, want)
	}
	if got, want := uintptr(unsafe.Pointer(l.head.next(maxHeight-1))), uintptr(unsafe.Pointer(&l.head.tower[maxHeight-2])); got != want {
		t.Fatalf("head level %d at %#x, its tower's last link at %#x", maxHeight-1, got, want)
	}
}
