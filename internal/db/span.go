package db

import (
	"slices"
	"sync"
	"sync/atomic"

	"rocksmash/internal/cache"
	"rocksmash/internal/sstable"
	"rocksmash/internal/storage"
)

// Span reads. Every level below the local ones lives in the object store,
// where a request pays a first-byte latency however little it returns. A
// flow that walks cloud blocks in a known order therefore reads spans — one
// range GET over physically adjacent blocks of one table — and keeps a few
// of them in flight ahead of its cursor. spanReader is the one type that
// does so. Its two users differ only in where the block schedule comes from
// (a compaction input's block index in file order; a sorted view's cursor
// run across a level's tables), in where the bytes land (the admit field)
// and in how wide a span they cut (the width field). A compaction reads its
// local inputs through it too, one span per read(2) on the merge's own
// goroutine: nothing is pipelined behind a local span, and it is no GET.

const (
	// spanBlocks is the width of a scan's range GET. At the default 4 KiB
	// block a span is 64 KiB: 0.16 ms of transfer behind 2 ms of first-byte
	// latency under storage.DefaultLatency. A scan may stop after a few
	// keys, so a wider span would mostly over-fetch.
	spanBlocks = 16
	// compactionSpanBytes is the width of a compaction input's range GET. A
	// merge reads every block of its inputs, so a wide span fetches nothing
	// in vain, and each first byte it saves is time the job holds its slot
	// and its key range: one GET per 1 MiB table at the benchmark's
	// geometry, four per table at the default 4 MiB target.
	compactionSpanBytes = 1 << 20
	// spanDepth is how many spans one reader keeps in flight beyond the one
	// being consumed.
	spanDepth = 3
	// compactionGETs bounds the span GETs of one compaction across all of
	// its inputs' readers: a handful of streams hides the first-byte latency
	// without flooding the backend.
	compactionGETs = 4
)

// tableSource resolves the member ordinal of a schedule entry to its open
// table: a viewIter opens a level's members on first use, a compaction
// input is its own only member.
type tableSource interface {
	handle(member int32) (*tableHandle, error)
}

func (h *tableHandle) handle(int32) (*tableHandle, error) { return h, nil }

// span is one range read over the schedule ordinals [start,end): the
// handles of its blocks, back to back in one table, and once it has landed
// their bodies. A span no wider than a scan's keeps both lists in arrays of
// its own, so its bookkeeping is the one object; a compaction input's wider
// span keeps them on the heap.
type span struct {
	start, end int
	landed     sync.WaitGroup // done once bodies and err are set; never added for a synchronous read
	raw        []byte         // the bytes read: from the reader's pool, or the block cache's to keep
	hs         []sstable.Handle
	bodies     [][]byte
	err        error

	hsBuf     [spanBlocks]sstable.Handle
	bodiesBuf [spanBlocks][]byte
}

// spanReader walks one block schedule on behalf of one consumer goroutine.
// The consumer moves the cursor with await, read or get; only the GETs
// themselves run on other goroutines. They borrow the schedule's table
// handles: a compaction input's consumer calls drain before it releases
// them, a scan's GETs hold them through the iterator's scanHold.
type spanReader struct {
	sched  []sstable.ViewEntry // Member indexes tables; Sep is not read
	tables tableSource
	// admit selects the sink. True (scans): a landed span is admitted to the
	// block cache, and the consumer reads its blocks through the ordinary
	// cache ladder. False (compaction inputs): the bodies stay in the span,
	// private to the consumer, and go when its cursor leaves the span — a
	// bulk merge must not evict the workload's hot set.
	admit bool
	// pool, for a compaction input, is the free list its spans are read
	// into: a span's buffer goes back when the cursor leaves the span, or at
	// drain. Nil for a scan, whose span bodies the block cache keeps.
	pool *bufPool
	// width is the most blocks one span covers: spanBlocks for scans,
	// compactionSpanBlocks for compaction inputs.
	width int
	// spans and blocks are the counters a landed GET bumps; a local span
	// is no GET and bumps neither.
	spans, blocks *atomic.Int64
	// gets, when non-nil, is a GET budget shared with sibling readers.
	gets chan struct{}
	// hold, for a scan, is its iterator's hold on what a GET borrows: every
	// GET in flight is one of its holders, so the iterator closes without
	// waiting for them. Nil for a compaction input.
	hold *scanHold

	cur   *span   // the span the cursor is in (get only)
	ahead []*span // in flight beyond it, in schedule order; starts in aheadBuf
	ramp  int     // spans consumed so far

	aheadBuf [spanDepth]*span
}

// compactionSpanBlocks is the width, in blocks, of a compaction input's span
// for tables of blockBytes blocks: compactionSpanBytes, and never narrower
// than a scan's.
func compactionSpanBlocks(blockBytes int) int {
	return max(spanBlocks, compactionSpanBytes/blockBytes)
}

// cut returns the span that starts at ordinal start, unread: up to width
// blocks of one table, back to back in the file. A layout gap, which the
// builder never leaves but is cheap to guard, ends it early: one range read
// covers exactly the span's blocks.
func (s *spanReader) cut(start int) *span {
	sp := &span{start: start}
	if n := min(s.width, len(s.sched)-start); n <= spanBlocks {
		sp.hs, sp.bodies = sp.hsBuf[:0], sp.bodiesBuf[:0]
	} else {
		sp.hs, sp.bodies = make([]sstable.Handle, 0, n), make([][]byte, 0, n)
	}
	m := s.sched[start].Member
	for i := start; i < len(s.sched) && len(sp.hs) < s.width && s.sched[i].Member == m; i++ {
		h := s.sched[i].H
		if n := len(sp.hs); n > 0 && sp.hs[n-1].End() != h.Offset {
			break
		}
		sp.hs = append(sp.hs, h)
	}
	sp.end = start + len(sp.hs)
	return sp
}

// fetch performs sp's read and hands the blocks to the sink.
func (s *spanReader) fetch(sp *span, h *tableHandle) {
	cloud := h.tier == storage.TierCloud
	if s.gets != nil && cloud {
		s.gets <- struct{}{}
		defer func() { <-s.gets }()
	}
	n := sstable.SpanBytes(sp.hs)
	if s.pool == nil {
		sp.raw = make([]byte, n)
	} else {
		sp.raw = s.pool.get(n)[:n]
	}
	if sp.bodies, sp.err = h.readSpan(sp.hs, sp.raw, sp.bodies); sp.err != nil {
		s.release(sp)
		return
	}
	if cloud {
		s.spans.Add(1)
		s.blocks.Add(int64(len(sp.hs)))
	}
	if !s.admit {
		return
	}
	fileNum := h.reader.FileNum()
	for i, bh := range sp.hs {
		h.db.blockCache.PutCloud(cache.Key{FileNum: fileNum, Offset: bh.Offset}, sp.bodies[i])
	}
}

// topUp launches spans along the schedule, each from the end of the last
// one in flight (or from ordinal from when none is), until the pipeline is
// as deep as the ramp allows. The depth grows with the spans already
// consumed — slow start — so a short scan over-fetches about one span while
// a long one reaches spanDepth within a few. The pipeline stops at the end
// of the schedule and at the first table that is not in the cloud.
func (s *spanReader) topUp(from int) {
	next := from
	if n := len(s.ahead); n > 0 {
		next = s.ahead[n-1].end
	}
	for len(s.ahead) < min(s.ramp, spanDepth) && next < len(s.sched) {
		h, err := s.tables.handle(s.sched[next].Member)
		if err != nil || h.tier != storage.TierCloud {
			return
		}
		next = s.start(next, h).end
	}
}

// start launches the GET of the span that begins at ordinal pos, a block of
// cloud table h, and queues it behind the spans already in flight: the
// asynchronous twin of read. await collects it.
func (s *spanReader) start(pos int, h *tableHandle) *span {
	sp := s.cut(pos)
	sp.landed.Add(1)
	if s.ahead == nil {
		s.ahead = s.aheadBuf[:0]
	}
	s.ahead = append(s.ahead, sp)
	if s.hold != nil {
		s.hold.lend()
	}
	go func() {
		s.fetch(sp, h)
		sp.landed.Done()
		if s.hold != nil {
			s.hold.landed()
		}
	}()
	return sp
}

// await moves the cursor to ordinal pos. Spans in flight that it has passed
// are waited out and dropped; when pos falls in the oldest one left, that
// span is waited for — the wait is the cloud cost of this block — and
// returned landed (err set if its GET failed), with the pipeline topped up
// behind it. It returns nil when no span in flight covers pos.
func (s *spanReader) await(pos int) *span {
	for len(s.ahead) > 0 && s.ahead[0].start <= pos {
		sp := s.ahead[0]
		sp.landed.Wait()
		s.ahead = slices.Delete(s.ahead, 0, 1)
		if pos < sp.end {
			s.ramp++
			s.topUp(sp.end)
			return sp
		}
		s.release(sp)
	}
	return nil
}

// read fetches the span that starts at pos, a block of table h, on the
// caller's goroutine and, for a cloud table, starts the pipeline behind it.
func (s *spanReader) read(pos int, h *tableHandle) *span {
	sp := s.cut(pos)
	if s.fetch(sp, h); sp.err == nil {
		s.ramp++
		s.topUp(sp.end)
	}
	return sp
}

// get returns the block at ordinal pos from the reader's own buffer,
// waiting for or reading the span that holds it. A failed span fails every
// block in it: the error surfaces at the block that needed the bytes.
func (s *spanReader) get(pos int) ([]byte, error) {
	if c := s.cur; c == nil || pos < c.start || pos >= c.end {
		s.release(c)
		if s.cur = s.await(pos); s.cur == nil {
			h, err := s.tables.handle(s.sched[pos].Member)
			if err != nil {
				return nil, err
			}
			s.cur = s.read(pos, h)
		}
	}
	if s.cur.err != nil {
		return nil, s.cur.err
	}
	return s.cur.bodies[pos-s.cur.start], nil
}

// drain waits for every GET in flight and forgets the pipeline, giving the
// span buffers back; what the spans admitted to the caches stays there.
func (s *spanReader) drain() {
	for _, sp := range s.ahead {
		sp.landed.Wait()
		s.release(sp)
	}
	s.ahead = s.ahead[:0]
	s.release(s.cur)
	s.cur = nil
}

// release gives sp's buffer back to the reader's pool, if it has one; the
// consumer is done with the span's blocks. A scan's buffer stays with the
// block cache, which holds its blocks.
func (s *spanReader) release(sp *span) {
	if sp == nil || sp.raw == nil || s.pool == nil {
		return
	}
	s.pool.put(sp.raw)
	sp.raw, sp.bodies = nil, nil
}
