package db

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

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

// stallTimeline holds flushes and compactions at gates the test opens, and
// records the write-stall events in the order they fire.
type stallTimeline struct {
	event.NopListener
	flushGate, compactionGate chan struct{}
	mu                        sync.Mutex
	events                    []string
	ends                      []event.WriteStallEnd
	began                     map[string]chan struct{}
}

func (l *stallTimeline) OnFlushBegin(event.FlushBegin)           { <-l.flushGate }
func (l *stallTimeline) OnCompactionBegin(event.CompactionBegin) { <-l.compactionGate }

func (l *stallTimeline) OnWriteStallBegin(e event.WriteStallBegin) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, "begin "+e.Reason)
	if c, ok := l.began[e.Reason]; ok {
		delete(l.began, e.Reason)
		close(c)
	}
}

func (l *stallTimeline) OnWriteStallEnd(e event.WriteStallEnd) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, "end "+e.Reason)
	l.ends = append(l.ends, e)
}

func (l *stallTimeline) ended() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ends)
}

// TestWriteStallBookedByCause: a writer that waits on the memtable and then
// on L0 shows two stalls, each with its own duration, and the two sum to
// the wait. A flush is held until L0 is one table short of L0StallFiles, so
// the writer that waited for that flush next waits for the compaction, which
// is held too.
func TestWriteStallBookedByCause(t *testing.T) {
	const hold = 30 * time.Millisecond
	l := &stallTimeline{
		flushGate: make(chan struct{}), compactionGate: make(chan struct{}),
		began: map[string]chan struct{}{"memtable": make(chan struct{}), "l0": make(chan struct{})},
	}
	memBegan, l0Began := l.began["memtable"], l.began["l0"]
	o := testOptions(PolicyLocalOnly)
	o.L0StallFiles = 3 // L0CompactTrigger is 2
	o.EventListener = l
	d, err := OpenAt(t.TempDir(), o)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var once sync.Once
	open := func() { once.Do(func() { close(l.compactionGate) }) }
	defer open() // never leave Close waiting on a held job
	// Two L0 tables: the compaction they start is held.
	close(l.flushGate)
	for _, k := range []string{"a", "b"} {
		mustPut(t, d, k, "one table")
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	l.flushGate = make(chan struct{})
	defer func() {
		select {
		case <-l.flushGate:
		default:
			close(l.flushGate)
		}
	}()

	// One writer fills a memtable, whose flush is held, then fills the next
	// and stalls on it. It stops after the Put that carried both stalls.
	val := string(bytes.Repeat([]byte("v"), 1000))
	var longest time.Duration
	done := make(chan error, 1)
	go func() {
		for i := 0; l.ended() < 2; i++ {
			start := time.Now()
			if err := d.Put([]byte(fmt.Sprintf("k%06d", i)), []byte(val)); err != nil {
				done <- err
				return
			}
			longest = max(longest, time.Since(start))
		}
		done <- nil
	}()
	await := func(c chan struct{}, what string) time.Time {
		select {
		case <-c:
		case err := <-done:
			t.Fatalf("the writer finished (err %v) before %s: %v", err, what, l.events)
		case <-time.After(10 * time.Second):
			t.Fatalf("no %s", what)
		}
		return time.Now()
	}
	memAt := await(memBegan, "memtable stall")
	time.Sleep(hold)
	close(l.flushGate) // the flush lands the third L0 table
	await(l0Began, "l0 stall")
	time.Sleep(hold)
	released := time.Now()
	open()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	l.mu.Lock()
	events, ends := l.events, l.ends
	l.mu.Unlock()
	if want := "[begin memtable end memtable begin l0 end l0]"; fmt.Sprint(events) != want {
		t.Fatalf("stall events %v, want %s", events, want)
	}
	m := d.Metrics()
	if m.WriteStalls != 2 || m.WriteStallsL0 != 1 {
		t.Fatalf("WriteStalls = %d (L0 %d), want 2 (L0 1)", m.WriteStalls, m.WriteStallsL0)
	}
	mem, l0 := ends[0].Duration, ends[1].Duration
	if mem < hold || l0 < hold {
		t.Fatalf("memtable stall %v, l0 stall %v: each was held at least %v", mem, l0, hold)
	}
	// The wait ran from the memtable stall's start (before memAt) to after
	// the compaction was released, all inside one Put.
	if sum := mem + l0; sum < released.Sub(memAt) || sum > longest {
		t.Fatalf("stalls sum to %v: want at least %v (memtable stall seen to compaction release) and at most %v (the longest Put)",
			sum, released.Sub(memAt), longest)
	}
}

// TestL0StallAtTrigger: an L0StallFiles equal to L0CompactTrigger is kept,
// not raised: with the compaction the trigger starts held, a writer stalls
// on L0 while it holds two tables.
func TestL0StallAtTrigger(t *testing.T) {
	l := &stallTimeline{
		flushGate: make(chan struct{}), compactionGate: make(chan struct{}),
		began: map[string]chan struct{}{"l0": make(chan struct{})},
	}
	l0Began := l.began["l0"]
	close(l.flushGate)
	o := testOptions(PolicyLocalOnly)
	o.L0StallFiles = 2 // L0CompactTrigger is 2
	o.EventListener = l
	d, err := OpenAt(t.TempDir(), o)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var once sync.Once
	open := func() { once.Do(func() { close(l.compactionGate) }) }
	defer open() // never leave Close waiting on a held job
	for _, k := range []string{"a", "b"} {
		mustPut(t, d, k, "one table")
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	// 1 MB of writes fills the 64 KiB memtable many times over.
	val := bytes.Repeat([]byte("v"), 1000)
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 1000; i++ {
			if err := d.Put([]byte(fmt.Sprintf("k%06d", i)), val); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case <-l0Began:
	case err := <-done:
		t.Fatalf("the writer finished (err %v) without an l0 stall", err)
	case <-time.After(10 * time.Second):
		t.Fatal("no l0 stall")
	}
	if n := d.Metrics().LevelFiles[0]; n != 2 {
		t.Fatalf("the writer stalled on L0 with %d tables, want 2", n)
	}
	open()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
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
