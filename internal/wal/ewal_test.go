package wal

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"rocksmash/internal/storage"
)

func newBackend(t *testing.T) storage.Backend {
	t.Helper()
	l, err := storage.NewLocal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// appendOne appends a single batch payload covering [minSeq, maxSeq].
func appendOne(m *Manager, payload []byte, minSeq, maxSeq uint64) (uint64, error) {
	return m.AppendBatch([]Entry{{Payload: payload, MinSeq: minSeq, MaxSeq: maxSeq}})
}

func openMgr(t *testing.T, be storage.Backend, opts Options) *Manager {
	t.Helper()
	m, err := Open(be, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestAppendAndReplay(t *testing.T) {
	be := newBackend(t)
	m := openMgr(t, be, DefaultOptions())
	for i := 0; i < 10; i++ {
		seq := uint64(i + 1)
		if _, err := appendOne(m, []byte(fmt.Sprintf("rec%02d", i)), seq, seq); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2 := openMgr(t, be, DefaultOptions())
	var got []string
	stats, err := m2.Replay(0, 1, func(seg uint64, p []byte) error {
		got = append(got, string(p))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 10 {
		t.Fatalf("records = %d", stats.Records)
	}
	sort.Strings(got)
	for i, s := range got {
		if s != fmt.Sprintf("rec%02d", i) {
			t.Fatalf("record %d = %q", i, s)
		}
	}
}

func TestRollCreatesSegments(t *testing.T) {
	be := newBackend(t)
	m := openMgr(t, be, DefaultOptions())
	appendOne(m, []byte("a"), 1, 1)
	if err := m.Roll(); err != nil {
		t.Fatal(err)
	}
	appendOne(m, []byte("b"), 2, 2)
	segs := m.Segments()
	if len(segs) != 2 {
		t.Fatalf("segments = %d", len(segs))
	}
	if !segs[0].Closed || segs[1].Closed {
		t.Fatalf("closed flags wrong: %+v", segs)
	}
	if segs[0].MinSeq != 1 || segs[0].MaxSeq != 1 || segs[1].MinSeq != 2 {
		t.Fatalf("seq ranges wrong: %+v", segs)
	}
}

func TestSizeBasedRoll(t *testing.T) {
	be := newBackend(t)
	opts := DefaultOptions()
	opts.SegmentBytes = 1024
	m := openMgr(t, be, opts)
	payload := make([]byte, 600)
	appendOne(m, payload, 1, 1)
	appendOne(m, payload, 2, 2) // crosses 1024 → rolls
	if len(m.Segments()) < 2 {
		t.Fatalf("expected size-based roll, segments = %d", len(m.Segments()))
	}
}

func TestSkipFlushedSegments(t *testing.T) {
	be := newBackend(t)
	m := openMgr(t, be, DefaultOptions())
	appendOne(m, []byte("old1"), 1, 5)
	m.Roll()
	appendOne(m, []byte("new1"), 6, 10)
	m.Close()

	m2 := openMgr(t, be, DefaultOptions())
	var got []string
	stats, err := m2.Replay(5, 4, func(seg uint64, p []byte) error {
		got = append(got, string(p))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SegmentsSkipped != 1 {
		t.Fatalf("skipped = %d", stats.SegmentsSkipped)
	}
	if len(got) != 1 || got[0] != "new1" {
		t.Fatalf("replayed %v", got)
	}
}

func TestNonExtendedNeverSkips(t *testing.T) {
	be := newBackend(t)
	opts := DefaultOptions()
	opts.Extended = false
	m := openMgr(t, be, opts)
	appendOne(m, []byte("old"), 1, 5)
	m.Roll()
	appendOne(m, []byte("new"), 6, 6)
	m.Close()

	m2 := openMgr(t, be, opts)
	var n int
	stats, err := m2.Replay(5, 4, func(uint64, []byte) error { n++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if stats.SegmentsSkipped != 0 || n != 2 {
		t.Fatalf("skipped=%d n=%d", stats.SegmentsSkipped, n)
	}
}

func TestParallelReplayDeliversAll(t *testing.T) {
	be := newBackend(t)
	m := openMgr(t, be, DefaultOptions())
	const segs = 6
	const perSeg = 50
	seq := uint64(0)
	for s := 0; s < segs; s++ {
		for i := 0; i < perSeg; i++ {
			seq++
			appendOne(m, []byte(fmt.Sprintf("s%d-r%03d", s, i)), seq, seq)
		}
		m.Roll()
	}
	m.Close()

	m2 := openMgr(t, be, DefaultOptions())
	var mu sync.Mutex
	perSegRecs := map[uint64][]string{}
	_, err := m2.Replay(0, 4, func(seg uint64, p []byte) error {
		mu.Lock()
		perSegRecs[seg] = append(perSegRecs[seg], string(p))
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, recs := range perSegRecs {
		total += len(recs)
		// Within a segment, order must be preserved.
		if !sort.StringsAreSorted(recs) {
			t.Fatalf("intra-segment order broken: %v", recs[:3])
		}
	}
	if total != segs*perSeg {
		t.Fatalf("total = %d want %d", total, segs*perSeg)
	}
}

func TestDeleteObsolete(t *testing.T) {
	be := newBackend(t)
	m := openMgr(t, be, DefaultOptions())
	appendOne(m, []byte("a"), 1, 3)
	m.Roll()
	appendOne(m, []byte("b"), 4, 6)
	m.Roll()
	appendOne(m, []byte("c"), 7, 9)

	if err := m.DeleteObsolete(6); err != nil {
		t.Fatal(err)
	}
	segs := m.Segments()
	if len(segs) != 1 {
		t.Fatalf("segments after GC = %d: %+v", len(segs), segs)
	}
	if segs[0].MinSeq != 7 {
		t.Fatalf("wrong survivor: %+v", segs[0])
	}
	names, _ := be.List("wal/")
	// INDEX + one segment.
	if len(names) != 2 {
		t.Fatalf("files on disk: %v", names)
	}
}

func TestCrashBeforeIndexWriteStillRecovers(t *testing.T) {
	be := newBackend(t)
	m := openMgr(t, be, DefaultOptions())
	appendOne(m, []byte("x"), 1, 1)
	// Simulate crash: no Close, no index for the active segment's range.
	// Delete INDEX entirely to model the worst case.
	be.Delete("wal/INDEX")

	m2 := openMgr(t, be, DefaultOptions())
	var got []string
	if _, err := m2.Replay(100, 2, func(_ uint64, p []byte) error {
		got = append(got, string(p))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Even with flushedSeq=100 the unknown-range segment must be replayed.
	if len(got) != 1 || got[0] != "x" {
		t.Fatalf("replayed %v", got)
	}
}

func TestReopenContinuesNumbering(t *testing.T) {
	be := newBackend(t)
	m := openMgr(t, be, DefaultOptions())
	appendOne(m, []byte("a"), 1, 1)
	first := m.ActiveSegment()
	m.Close()

	m2 := openMgr(t, be, DefaultOptions())
	appendOne(m2, []byte("b"), 2, 2)
	if m2.ActiveSegment() <= first {
		t.Fatalf("segment numbering regressed: %d <= %d", m2.ActiveSegment(), first)
	}
}

func TestTornActiveSegmentReplays(t *testing.T) {
	be := newBackend(t)
	m := openMgr(t, be, DefaultOptions())
	appendOne(m, []byte("good"), 1, 1)
	m.Close()

	// Append garbage to simulate a torn write at crash.
	name := SegmentName("wal", 1)
	data, err := be.ReadAll(name)
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, 0xde, 0xad)
	if err := storage.WriteObject(be, name, data); err != nil {
		t.Fatal(err)
	}

	m2 := openMgr(t, be, DefaultOptions())
	var got []string
	if _, err := m2.Replay(0, 1, func(_ uint64, p []byte) error {
		got = append(got, string(p))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "good" {
		t.Fatalf("replayed %v", got)
	}
}
