package db

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"rocksmash/internal/keys"
	"rocksmash/internal/manifest"
	"rocksmash/internal/sstable"
	"rocksmash/internal/storage"
)

// spanProbe watches the data reads of a set of probed tables: how many are
// in flight at once, and hooks to fail or hold a read by its byte range.
type spanProbe struct {
	mu             sync.Mutex
	armed          bool
	inflight, peak int
	reads          int
	delay          time.Duration
	fail           func(off int64, n int) error
	hold           chan struct{} // non-nil: reads at or past holdFrom block until it is closed
	holdFrom       int64
}

// probedReader is one table's bytes behind a probe.
type probedReader struct {
	bytesReader
	p              *spanProbe
	inflight, peak int // this table only; guarded by p.mu
}

func (r *probedReader) ReadAt(b []byte, off int64) (int, error) {
	p := r.p
	p.mu.Lock()
	if !p.armed { // sstable.Open reading the metadata tail
		p.mu.Unlock()
		return r.bytesReader.ReadAt(b, off)
	}
	p.reads++
	p.inflight++
	r.inflight++
	p.peak, r.peak = max(p.peak, p.inflight), max(r.peak, r.inflight)
	fail, hold, delay := p.fail, p.hold, p.delay
	if off < p.holdFrom {
		hold = nil
	}
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.inflight--
		r.inflight--
		p.mu.Unlock()
	}()
	if hold != nil {
		<-hold
	}
	time.Sleep(delay)
	if fail != nil {
		if err := fail(off, len(b)); err != nil {
			return 0, err
		}
	}
	return r.bytesReader.ReadAt(b, off)
}

// spanTable is one in-memory cloud-tier table of the fixture.
type spanTable struct {
	h    *tableHandle
	rd   *probedReader
	hs   []sstable.Handle
	meta *manifest.FileMetadata
}

// newSpanTable builds a table of n records ("<prefix>%05d") with 256-byte
// blocks and opens it as a cloud-tier table of engine e.
func newSpanTable(t *testing.T, e *engine, p *spanProbe, num uint64, prefix string, n int) *spanTable {
	t.Helper()
	w := &memWriter{}
	b := sstable.NewBuilder(w, sstable.BuilderOptions{BlockBytes: 256})
	for i := 0; i < n; i++ {
		ik := keys.MakeInternalKey(nil, []byte(fmt.Sprintf("%s%05d", prefix, i)), uint64(i+1), keys.KindSet)
		if err := b.Add(ik, []byte(pipelineValue(i))); err != nil {
			t.Fatal(err)
		}
	}
	props, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	rd := &probedReader{bytesReader: bytesReader{w.buf.Bytes()}, p: p}
	r, err := sstable.Open(rd, num)
	if err != nil {
		t.Fatal(err)
	}
	hs, err := r.DataHandles()
	if err != nil {
		t.Fatal(err)
	}
	return &spanTable{
		h: &tableHandle{reader: r, tier: storage.TierCloud, db: e, refs: 1}, rd: rd, hs: hs,
		meta: &manifest.FileMetadata{Num: num, Tier: storage.TierCloud, Largest: props.Largest},
	}
}

// tableList is a multi-table tableSource.
type tableList []*spanTable

func (l tableList) handle(m int32) (*tableHandle, error) { return l[m].h, nil }

// spanFixture is two tables — several full spans and a short tail, one full
// span and a short tail — and a schedule over both that skips one block of
// the first, so a walk crosses a layout gap, a member change and two short
// tails, and is long enough for the pipeline to reach its full depth.
func spanFixture(t *testing.T) (e *engine, p *spanProbe, tabs tableList, sched []sstable.ViewEntry) {
	d, _ := openTest(t, PolicyCloudOnly)
	t.Cleanup(func() { d.Close() })
	e, p = d.engines[0], &spanProbe{}
	tabs = tableList{newSpanTable(t, e, p, 9001, "a", 330), newSpanTable(t, e, p, 9002, "b", 63)}
	if n := len(tabs[0].hs); n <= 2*spanDepth*spanBlocks || n%spanBlocks == 0 {
		t.Fatalf("fixture table a has %d blocks, want several full spans and a short tail", n)
	}
	if n := len(tabs[1].hs); n <= spanBlocks || n%spanBlocks == 0 {
		t.Fatalf("fixture table b has %d blocks, want one full span and a short tail", n)
	}
	for m, tab := range tabs {
		for i, h := range tab.hs {
			if m == 0 && i == spanBlocks+4 {
				continue // the layout gap
			}
			sched = append(sched, sstable.ViewEntry{Member: int32(m), H: h})
		}
	}
	p.armed = true
	return e, p, tabs, sched
}

// wantSpans is the test's own statement of how a schedule is cut: a span
// ends at a member change, at a layout gap and after spanBlocks blocks. It
// returns each span's block count.
func wantSpans(sched []sstable.ViewEntry) (lens []int) {
	for i, en := range sched {
		if prev := i - 1; i == 0 || sched[prev].Member != en.Member ||
			sched[prev].H.End() != en.H.Offset || lens[len(lens)-1] == spanBlocks {
			lens = append(lens, 0)
		}
		lens[len(lens)-1]++
	}
	return lens
}

// reference reads schedule entry en the single-block way.
func (l tableList) reference(t *testing.T, en sstable.ViewEntry) []byte {
	t.Helper()
	body, err := sstable.ReadRawBlock(l[en.Member].rd.bytesReader, en.H)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestSpanReaderPrivateSink walks the fixture schedule the way a compaction
// input is read: every block byte-identical to the single-block reference,
// spans cut at the gap, the member change and the tails, never more than
// spanDepth GETs in flight, nothing admitted to the caches.
func TestSpanReaderPrivateSink(t *testing.T) {
	e, p, tabs, sched := spanFixture(t)
	p.delay = 200 * time.Microsecond
	var spans, blocks = &e.stats.PrefetchSpans, &e.stats.PrefetchBlocks
	sr := &spanReader{sched: sched, tables: tabs, spans: spans, blocks: blocks}
	deepest := 0
	for i, en := range sched {
		body, err := sr.get(i)
		if err != nil {
			t.Fatalf("ordinal %d: %v", i, err)
		}
		if !bytes.Equal(body, tabs.reference(t, en)) {
			t.Fatalf("ordinal %d differs from the single-block read", i)
		}
		if len(sr.ahead) > spanDepth {
			t.Fatalf("ordinal %d: %d spans in flight, cap %d", i, len(sr.ahead), spanDepth)
		}
		deepest = max(deepest, len(sr.ahead))
	}
	sr.drain()
	want := len(wantSpans(sched))
	if got := spans.Load(); got != int64(want) || blocks.Load() != int64(len(sched)) || p.reads != want {
		t.Errorf("spans=%d blocks=%d reads=%d, want %d spans over %d blocks", got, blocks.Load(), p.reads, want, len(sched))
	}
	if deepest != spanDepth || p.peak > spanDepth {
		t.Errorf("pipeline depth reached %d with %d GETs in flight, want %d and at most %d", deepest, p.peak, spanDepth, spanDepth)
	}
	if e.blockCache.Len() != 0 {
		t.Errorf("private sink admitted %d blocks to the block cache", e.blockCache.Len())
	}
}

// TestSpanReaderGetBudget interleaves four readers that share one
// compaction's GET budget: together they never exceed it.
func TestSpanReaderGetBudget(t *testing.T) {
	e, p, tabs, _ := spanFixture(t)
	tabs = append(tabs, newSpanTable(t, e, p, 9003, "c", 330), newSpanTable(t, e, p, 9004, "d", 330))
	p.delay = 300 * time.Microsecond
	gets := make(chan struct{}, compactionGETs)
	var readers []*spanReader
	for _, tab := range tabs {
		sr := &spanReader{
			sched: make([]sstable.ViewEntry, len(tab.hs)), tables: tab.h, gets: gets,
			spans: &e.stats.PrefetchSpans, blocks: &e.stats.PrefetchBlocks,
		}
		for i, h := range tab.hs {
			sr.sched[i].H = h
		}
		readers = append(readers, sr)
	}
	for i := 0; i < len(readers[0].sched); i++ {
		for m, sr := range readers {
			if i >= len(sr.sched) {
				continue
			}
			body, err := sr.get(i)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(body, tabs.reference(t, sstable.ViewEntry{Member: int32(m), H: sr.sched[i].H})) {
				t.Fatalf("table %d ordinal %d differs from the single-block read", m, i)
			}
		}
	}
	for _, sr := range readers {
		sr.drain()
	}
	if p.peak > compactionGETs {
		t.Errorf("%d GETs in flight across the compaction's readers, budget %d", p.peak, compactionGETs)
	}
	for m, tab := range tabs {
		if tab.rd.peak > spanDepth {
			t.Errorf("table %d had %d GETs in flight, cap %d", m, tab.rd.peak, spanDepth)
		}
	}
}

// TestSpanReaderDrainWaits holds a pipelined GET in flight: drain must not
// return before it lands.
func TestSpanReaderDrainWaits(t *testing.T) {
	e, p, tabs, sched := spanFixture(t)
	sr := &spanReader{sched: sched, tables: tabs, spans: &e.stats.PrefetchSpans, blocks: &e.stats.PrefetchBlocks}
	hold := make(chan struct{})
	p.hold, p.holdFrom = hold, int64(sched[spanBlocks].H.Offset)
	if _, err := sr.get(0); err != nil { // one synchronous span, the next launched behind it and held
		t.Fatal(err)
	}
	if len(sr.ahead) != 1 {
		t.Fatalf("%d spans launched behind the first, want 1 (slow start)", len(sr.ahead))
	}
	drained := make(chan struct{})
	go func() {
		sr.drain()
		close(drained)
	}()
	select {
	case <-drained:
		t.Fatal("drain returned with a GET still in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(hold)
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("drain did not return after the GET landed")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.inflight != 0 || len(sr.ahead) != 0 {
		t.Errorf("after drain: %d GETs in flight, %d spans queued", p.inflight, len(sr.ahead))
	}
}

// TestSpanReaderFailureSurfacesAtBlock fails the GET of the third span. It
// is launched, and fails, while earlier blocks are being consumed; the error
// must appear at the first block of that span and not before.
func TestSpanReaderFailureSurfacesAtBlock(t *testing.T) {
	e, p, tabs, sched := spanFixture(t)
	injected := errors.New("injected span failure")
	bad := spanBlocks + 4 // the span after the gap
	p.fail = func(off int64, n int) error {
		if uint64(off) == sched[bad].H.Offset {
			return injected
		}
		return nil
	}
	sr := &spanReader{sched: sched, tables: tabs, spans: &e.stats.PrefetchSpans, blocks: &e.stats.PrefetchBlocks}
	defer sr.drain()
	for i := 0; i < bad; i++ {
		if _, err := sr.get(i); err != nil {
			t.Fatalf("ordinal %d failed before the bad span: %v", i, err)
		}
	}
	if _, err := sr.get(bad); !errors.Is(err, injected) {
		t.Fatalf("ordinal %d: err = %v, want the injected failure", bad, err)
	}
}

// spanViewIter is a viewIter over the fixture: the schedule is the view's
// cursor run, the tables are pre-opened members.
func spanViewIter(e *engine, tabs tableList, sched []sstable.ViewEntry) *viewIter {
	files := make([]*manifest.FileMetadata, len(tabs))
	v := &sstable.View{Level: 1, Entries: sched}
	for m, tab := range tabs {
		files[m] = tab.meta
		v.Members = append(v.Members, tab.meta.Num)
	}
	vi := newViewIter(e, v, files)
	for m, tab := range tabs {
		vi.handles[m], vi.fetch[m] = tab.h, e.tables.fetchFor(tab.h)
	}
	vi.forward = true
	return vi
}

// TestSpanReaderAdmitSink walks the fixture schedule the way a scan does:
// every block byte-identical to the reference, one GET per span, at most
// spanDepth in flight, every block admitted to the block cache. With every
// multi-block GET failing, the same walk falls back to the single-block
// fetch and still returns every block.
func TestSpanReaderAdmitSink(t *testing.T) {
	e, p, tabs, sched := spanFixture(t)
	p.delay = 200 * time.Microsecond
	walk := func() {
		t.Helper()
		vi := spanViewIter(e, tabs, sched)
		defer vi.spans.drain()
		for i, en := range sched {
			body, err := vi.fetchEntry(i)
			if err != nil {
				t.Fatalf("ordinal %d: %v", i, err)
			}
			if !bytes.Equal(body, tabs.reference(t, en)) {
				t.Fatalf("ordinal %d differs from the single-block read", i)
			}
			if len(vi.spans.ahead) > spanDepth {
				t.Fatalf("ordinal %d: %d spans in flight, cap %d", i, len(vi.spans.ahead), spanDepth)
			}
		}
	}

	walk()
	lens := wantSpans(sched)
	spans := e.stats.ReadaheadSpans.Load()
	if int(spans) != len(lens) || p.reads != len(lens) || e.stats.ReadaheadBlocks.Load() != int64(len(sched)) || p.peak > spanDepth {
		t.Errorf("spans=%d reads=%d blocks=%d peak=%d, want %d spans, one GET each, over %d blocks and at most %d in flight",
			spans, p.reads, e.stats.ReadaheadBlocks.Load(), p.peak, len(lens), len(sched), spanDepth)
	}
	if e.blockCache.Len() != len(sched) {
		t.Errorf("block cache holds %d blocks, want the %d scheduled", e.blockCache.Len(), len(sched))
	}

	// Fail every read wider than the block it starts at. With no span
	// landing, each block cuts its own; the last block before a break is a
	// one-block span, which is a single-block read and still lands.
	blockLen := map[int64]int{}
	single := 0
	for i, en := range sched {
		blockLen[int64(en.H.Offset)] = int(en.H.End() - en.H.Offset)
		if wantSpans(sched[i:])[0] == 1 {
			single++
		}
	}
	for _, tab := range tabs {
		e.blockCache.InvalidateFile(tab.meta.Num)
	}
	p.reads = 0
	p.fail = func(off int64, n int) error {
		if n > blockLen[off] {
			return errors.New("injected span failure")
		}
		return nil
	}
	walk()
	if got := e.stats.ReadaheadSpans.Load() - spans; got != int64(single) {
		t.Errorf("%d spans counted while every multi-block GET failed, want %d", got, single)
	}
	if p.reads < len(sched) {
		t.Errorf("%d reads for %d blocks: the fallback did not read each block singly", p.reads, len(sched))
	}
}
