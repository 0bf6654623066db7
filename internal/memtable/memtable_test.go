package memtable

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"testing/quick"

	"rocksmash/internal/keys"
	"rocksmash/internal/skiplist"
)

func TestPutGet(t *testing.T) {
	m := New()
	m.Add(1, keys.KindSet, []byte("a"), []byte("v1"))
	v, found, live := m.Get([]byte("a"), 10)
	if !found || !live || !bytes.Equal(v, []byte("v1")) {
		t.Fatalf("get = (%q,%v,%v)", v, found, live)
	}
}

func TestGetMissing(t *testing.T) {
	m := New()
	m.Add(1, keys.KindSet, []byte("a"), []byte("v"))
	if _, found, _ := m.Get([]byte("b"), 10); found {
		t.Fatal("should not find b")
	}
}

func TestSnapshotVisibility(t *testing.T) {
	m := New()
	m.Add(5, keys.KindSet, []byte("k"), []byte("v5"))
	m.Add(9, keys.KindSet, []byte("k"), []byte("v9"))

	if v, _, _ := m.Get([]byte("k"), 9); !bytes.Equal(v, []byte("v9")) {
		t.Fatalf("at seq 9 got %q", v)
	}
	if v, _, _ := m.Get([]byte("k"), 7); !bytes.Equal(v, []byte("v5")) {
		t.Fatalf("at seq 7 got %q", v)
	}
	if _, found, _ := m.Get([]byte("k"), 3); found {
		t.Fatal("nothing should be visible at seq 3")
	}
}

func TestDeleteTombstone(t *testing.T) {
	m := New()
	m.Add(1, keys.KindSet, []byte("k"), []byte("v"))
	m.Add(2, keys.KindDelete, []byte("k"), nil)

	_, found, live := m.Get([]byte("k"), 10)
	if !found || live {
		t.Fatalf("expected tombstone, got found=%v live=%v", found, live)
	}
	// Older snapshot still sees the value.
	v, found, live := m.Get([]byte("k"), 1)
	if !found || !live || !bytes.Equal(v, []byte("v")) {
		t.Fatal("old snapshot should see the value")
	}
}

func TestGetDoesNotMatchPrefix(t *testing.T) {
	m := New()
	m.Add(1, keys.KindSet, []byte("abc"), []byte("v"))
	if _, found, _ := m.Get([]byte("ab"), 10); found {
		t.Fatal("prefix must not match")
	}
}

func TestApproximateSizeGrows(t *testing.T) {
	m := New()
	before := m.ApproximateSize()
	m.Add(1, keys.KindSet, []byte("key"), make([]byte, 1000))
	if m.ApproximateSize() < before+1000 {
		t.Fatalf("size did not grow: %d", m.ApproximateSize())
	}
}

func TestQuickMatchesMap(t *testing.T) {
	// Property: after a sequence of sets/deletes, Get at the latest seq
	// agrees with a plain map.
	type op struct {
		Key    uint8
		Del    bool
		ValLen uint8
	}
	f := func(ops []op) bool {
		m := New()
		ref := map[string][]byte{}
		seq := uint64(0)
		for _, o := range ops {
			seq++
			k := []byte(fmt.Sprintf("k%03d", o.Key))
			if o.Del {
				m.Add(seq, keys.KindDelete, k, nil)
				delete(ref, string(k))
			} else {
				v := bytes.Repeat([]byte{o.Key}, int(o.ValLen))
				m.Add(seq, keys.KindSet, k, v)
				ref[string(k)] = v
			}
		}
		for i := 0; i < 256; i++ {
			k := []byte(fmt.Sprintf("k%03d", i))
			v, found, live := m.Get(k, seq)
			want, ok := ref[string(k)]
			if ok {
				if !found || !live || !bytes.Equal(v, want) {
					return false
				}
			} else if found && live {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestAddAllocatesNothing pins the write path's allocation count: once the
// arena holds its first chunk, an Add carves the skiplist node, the key and
// the value from it and allocates no Go object.
func TestAddAllocatesNothing(t *testing.T) {
	m := New()
	m.Add(1, keys.KindSet, []byte("first"), []byte("takes the chunk"))
	const runs = 1000
	ks := make([][]byte, runs+1) // AllocsPerRun adds one warm-up call
	for i := range ks {
		ks[i] = []byte(fmt.Sprintf("user%08d", i*7919%runs))
	}
	val := make([]byte, 100)
	i := 0
	if n := testing.AllocsPerRun(runs, func() {
		m.Add(uint64(i+2), keys.KindSet, ks[i], val)
		i++
	}); n != 0 {
		t.Fatalf("Add allocates %.2f objects/op, want 0", n)
	}
}

// TestApproximateSizeCountsEntries: the flush trigger counts each entry's
// internal key and value, and none of the node around them, so flushes cut
// where they did when nodes lived outside the arena.
func TestApproximateSizeCountsEntries(t *testing.T) {
	m := New()
	var want int64
	for i := 0; i < 500; i++ {
		k := []byte(fmt.Sprintf("key-%d", i))
		v := bytes.Repeat([]byte{'v'}, i%37)
		kind := keys.KindSet
		if i%5 == 0 {
			kind, v = keys.KindDelete, nil
		}
		m.Add(uint64(i+1), kind, k, v)
		want += int64(len(k) + keys.TrailerLen + len(v))
		if got := m.ApproximateSize(); got != want {
			t.Fatalf("after %d Adds ApproximateSize = %d, want %d", i+1, got, want)
		}
	}
}

// TestNewTakesNoChunk: a memtable allocates no arena chunk until its first
// Add, so one opened for a 1 GiB budget (WAL replay) costs nothing up front.
func TestNewTakesNoChunk(t *testing.T) {
	const n = 100
	ms := make([]*MemTable, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range ms {
		ms[i] = New()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > 4<<10 {
		t.Fatalf("New allocates %d bytes, more than 4 KiB: it took a chunk", per)
	}
	runtime.KeepAlive(ms)
}

// TestEntryLargerThanChunk: an entry bigger than an arena chunk gets a chunk
// of its own and reads back whole through Get and the iterator, beside
// small entries on either side of it.
func TestEntryLargerThanChunk(t *testing.T) {
	m := New()
	big := make([]byte, 3<<20)
	for i := range big {
		big[i] = byte(i * 31)
	}
	m.Add(1, keys.KindSet, []byte("a"), []byte("small"))
	m.Add(2, keys.KindSet, []byte("big"), big)
	m.Add(3, keys.KindSet, []byte("c"), []byte("after"))
	if v, found, live := m.Get([]byte("big"), 10); !found || !live || !bytes.Equal(v, big) {
		t.Fatalf("Get(big) = %d bytes (found %v, live %v), want the %d written", len(v), found, live, len(big))
	}
	want := []struct {
		k string
		v []byte
	}{{"a", []byte("small")}, {"big", big}, {"c", []byte("after")}}
	var it skiplist.Iterator
	m.InitIterator(&it)
	i := 0
	for it.First(); it.Valid(); it.Next() {
		if i == len(want) || string(keys.UserKey(it.Key())) != want[i].k || !bytes.Equal(it.Value(), want[i].v) {
			t.Fatalf("entry %d: %q (%d value bytes), want %q", i, keys.UserKey(it.Key()), len(it.Value()), want[min(i, len(want)-1)].k)
		}
		i++
	}
	if i != len(want) {
		t.Fatalf("iterated %d entries, want %d", i, len(want))
	}
}
