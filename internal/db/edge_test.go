package db

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"rocksmash/internal/event"
)

func TestBinaryKeysAndValues(t *testing.T) {
	d, _ := openTest(t, PolicyMash)
	defer d.Close()
	cases := [][2][]byte{
		{{0}, {0}},
		{{0, 0, 0}, {1, 2, 3}},
		{{0xff, 0xfe}, {0xff}},
		{[]byte("k\x00embedded"), []byte("v\x00embedded")},
		{bytes.Repeat([]byte{0xab}, 500), bytes.Repeat([]byte{0xcd}, 500)},
	}
	for _, c := range cases {
		if err := d.Put(c[0], c[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		v, err := d.Get(c[0])
		if err != nil || !bytes.Equal(v, c[1]) {
			t.Fatalf("Get(%x) = %x, %v", c[0], v, err)
		}
	}
}

func TestEmptyValue(t *testing.T) {
	d, _ := openTest(t, PolicyMash)
	defer d.Close()
	if err := d.Put([]byte("k"), nil); err != nil {
		t.Fatal(err)
	}
	v, err := d.Get([]byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 0 {
		t.Fatalf("empty value read back as %q", v)
	}
	// Empty value must survive flush and must be distinct from deletion.
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Get([]byte("k")); err != nil {
		t.Fatal("empty value lost after flush:", err)
	}
}

func TestLargeValuesSpanBlocks(t *testing.T) {
	d, _ := openTest(t, PolicyMash)
	defer d.Close()
	// Values much larger than BlockBytes (1 KiB under test geometry).
	big := bytes.Repeat([]byte("0123456789abcdef"), 4096) // 64 KiB
	if err := d.Put([]byte("big"), big); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	v, err := d.Get([]byte("big"))
	if err != nil || !bytes.Equal(v, big) {
		t.Fatalf("large value corrupted: len=%d err=%v", len(v), err)
	}
}

func TestGetAtHistoricalVersions(t *testing.T) {
	d, _ := openTest(t, PolicyMash)
	defer d.Close()
	var seqs []uint64
	for i := 0; i < 5; i++ {
		mustPut(t, d, "k", fmt.Sprintf("v%d", i))
		seqs = append(seqs, d.LastSequence())
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, s := range seqs {
		v, err := d.GetAt([]byte("k"), s)
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("GetAt(seq=%d) = %q, %v", s, v, err)
		}
	}
	if _, err := d.GetAt([]byte("k"), seqs[0]-1); !errors.Is(err, ErrNotFound) {
		t.Fatal("pre-history read should be not found")
	}
}

func TestIteratorDuringBackgroundChurn(t *testing.T) {
	d, _ := openTest(t, PolicyMash)
	defer d.Close()
	for i := 0; i < 1000; i++ {
		mustPut(t, d, fmt.Sprintf("stable%05d", i), "v")
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}

	it, err := d.NewIterator()
	if err != nil {
		t.Fatal(err)
	}

	// Heavy churn while the iterator walks: compactions must not yank the
	// tables out from under it (it pins the version it walks; TestPinMatrix
	// is the full check — here the one L0 table is open from the start).
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3000; i++ {
			d.Put([]byte(fmt.Sprintf("churn%06d", i)), bytes.Repeat([]byte("x"), 200))
		}
		d.CompactAll()
	}()

	count := 0
	for it.First(); it.Valid(); it.Next() {
		if bytes.HasPrefix(it.Key(), []byte("stable")) {
			count++
		}
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if count != 1000 {
		t.Fatalf("iterator saw %d stable keys, want 1000", count)
	}
}

// stallCounter counts WriteStallBegin events by reason, and holds the first
// flush back until a writer has stalled behind it, so the memtable stall the
// test is about happens whatever the machine's speed.
type stallCounter struct {
	event.NopListener
	mu      sync.Mutex
	begins  map[string]int64
	stalled chan struct{}
	once    sync.Once
}

func (l *stallCounter) OnWriteStallBegin(e event.WriteStallBegin) {
	l.mu.Lock()
	l.begins[e.Reason]++
	l.mu.Unlock()
	l.once.Do(func() { close(l.stalled) })
}

func (l *stallCounter) OnFlushBegin(event.FlushBegin) { <-l.stalled }

// TestWriteStallAccounting: every stall the write path announces is counted,
// whichever its cause. A writer that outruns the flusher stalls on the
// memtable; those used to be announced and timed but counted nowhere.
func TestWriteStallAccounting(t *testing.T) {
	l := &stallCounter{begins: map[string]int64{}, stalled: make(chan struct{})}
	o := testOptions(PolicyMash)
	o.EventListener = l
	d, err := OpenAt(t.TempDir(), o)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	defer l.once.Do(func() { close(l.stalled) }) // never leave Close waiting on a held flush
	// Hammer writes: the first memtable's flush waits in OnFlushBegin, the
	// writer fills the second and stalls on it, and that releases the flush.
	val := string(bytes.Repeat([]byte("v"), 200))
	for i := 0; i < 5000; i++ {
		mustPut(t, d, fmt.Sprintf("k%06d", i), val)
	}
	m := d.Metrics()
	l.mu.Lock()
	mem, l0 := l.begins["memtable"], l.begins["l0"]
	l.mu.Unlock()
	if mem == 0 {
		t.Fatal("the fill never stalled on the memtable")
	}
	if m.WriteStalls != mem+l0 || m.WriteStallsL0 != l0 {
		t.Fatalf("WriteStalls = %d (L0 %d), want %d announced stalls (memtable %d, l0 %d)",
			m.WriteStalls, m.WriteStallsL0, mem+l0, mem, l0)
	}
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}
	// Sanity: everything is still readable.
	mustGet(t, d, "k000000", val)
	mustGet(t, d, "k004999", val)
}

func TestKeysArePrefixSafe(t *testing.T) {
	d, _ := openTest(t, PolicyMash)
	defer d.Close()
	mustPut(t, d, "app", "1")
	mustPut(t, d, "apple", "2")
	mustPut(t, d, "applesauce", "3")
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	mustGet(t, d, "app", "1")
	mustGet(t, d, "apple", "2")
	mustGet(t, d, "applesauce", "3")
	mustMissing(t, d, "appl")
	mustMissing(t, d, "apples")
}

func TestDeleteNonexistentKey(t *testing.T) {
	d, _ := openTest(t, PolicyMash)
	defer d.Close()
	if err := d.Delete([]byte("never-existed")); err != nil {
		t.Fatal(err)
	}
	mustMissing(t, d, "never-existed")
	// The tombstone must survive flush and compaction without issue.
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}
	mustMissing(t, d, "never-existed")
}

func TestReopenEmptyDB(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(PolicyMash)
	d, err := OpenAt(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenAt(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	mustMissing(t, d2, "anything")
	mustPut(t, d2, "k", "v")
	mustGet(t, d2, "k", "v")
}

func TestManyReopenCycles(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(PolicyMash)
	for cycle := 0; cycle < 8; cycle++ {
		d, err := OpenAt(dir, opts)
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		mustPut(t, d, fmt.Sprintf("cycle%02d", cycle), "v")
		// Verify all earlier cycles.
		for j := 0; j <= cycle; j++ {
			mustGet(t, d, fmt.Sprintf("cycle%02d", j), "v")
		}
		if cycle%2 == 0 {
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
		} else {
			d.CrashForTest()
		}
	}
}

func TestSnapshotReleaseAllowsReclaim(t *testing.T) {
	d, _ := openTest(t, PolicyMash)
	defer d.Close()
	mustPut(t, d, "k", "old")
	snap := d.GetSnapshot()
	mustPut(t, d, "k", "new")
	snap.Release()
	snap.Release() // double release is safe
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}
	dropped := d.Metrics().CompactDroppedKeys
	_ = dropped // old version may or may not have been reachable; just assert liveness
	mustGet(t, d, "k", "new")
}

func TestIteratorAfterCloseIsInert(t *testing.T) {
	d, _ := openTest(t, PolicyMash)
	defer d.Close()
	mustPut(t, d, "a", "1")
	it, err := d.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	it.First()
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if it.Valid() {
		t.Fatal("closed iterator should be invalid")
	}
	if err := it.Close(); err != nil {
		t.Fatal("double close should be clean")
	}
}
