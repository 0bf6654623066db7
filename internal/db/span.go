package db

import (
	"slices"
	"sync/atomic"

	"rocksmash/internal/cache"
	"rocksmash/internal/sstable"
	"rocksmash/internal/storage"
)

// Cloud span reads. Every level below the local ones lives in the object
// store, where a request pays a first-byte latency however little it
// returns. A flow that walks cloud blocks in a known order therefore reads
// spans — one range GET over physically adjacent blocks of one table — and
// keeps a few of them in flight ahead of its cursor. spanReader is the one
// type that does so. Its two users differ only in where the block schedule
// comes from (a compaction input's block index in file order; a sorted
// view's cursor run across a level's tables) and in where the bytes land
// (the admit field).

const (
	// spanBlocks is the width of one range GET. At the default 4 KiB block
	// a span is 64 KiB: 0.16 ms of transfer behind 2 ms of first-byte
	// latency under storage.DefaultLatency, so wider spans buy little and
	// over-fetch more on short scans.
	spanBlocks = 16
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

// span is one range GET over the schedule ordinals [start,end).
type span struct {
	start, end int
	done       chan struct{} // closed once bodies and err are set; nil for a synchronous read
	bodies     [][]byte
	err        error
}

// spanReader walks one block schedule on behalf of one consumer goroutine.
// The consumer moves the cursor with await, read or get; only the GETs
// themselves run on other goroutines. They borrow the schedule's table
// handles, so the consumer calls drain before it releases them.
type spanReader struct {
	sched  []sstable.ViewEntry // Member indexes tables; Sep is not read
	tables tableSource
	// admit selects the sink. True (scans): a landed span is admitted to the
	// block cache, and the consumer reads its blocks through the ordinary
	// cache ladder. False (compaction inputs): the bodies stay in the span,
	// private to the consumer, and go when its cursor leaves the span — a
	// bulk merge must not evict the workload's hot set.
	admit bool
	// spans and blocks are the counters a landed GET bumps.
	spans, blocks *atomic.Int64
	// gets, when non-nil, is a GET budget shared with sibling readers.
	gets chan struct{}

	cur   *span   // the span the cursor is in (get only)
	ahead []*span // in flight beyond it, in schedule order
	ramp  int     // spans consumed so far
}

// cut returns the handles of the span that starts at ordinal start: up to
// spanBlocks blocks of one table, which PlanSpans clamps at a layout gap.
func (s *spanReader) cut(start int) []sstable.Handle {
	m := s.sched[start].Member
	hs := make([]sstable.Handle, 0, spanBlocks)
	for i := start; i < len(s.sched) && len(hs) < spanBlocks && s.sched[i].Member == m; i++ {
		hs = append(hs, s.sched[i].H)
	}
	return sstable.PlanSpans(hs, spanBlocks)[0]
}

// fetch performs sp's GET and hands the blocks to the sink.
func (s *spanReader) fetch(sp *span, h *tableHandle, hs []sstable.Handle) {
	if s.gets != nil {
		s.gets <- struct{}{}
		defer func() { <-s.gets }()
	}
	if sp.bodies, sp.err = sstable.ReadRawSpan(h.reader.File(), hs); sp.err != nil {
		return
	}
	s.spans.Add(1)
	s.blocks.Add(int64(len(hs)))
	if !s.admit {
		return
	}
	fileNum := h.reader.FileNum()
	for i, bh := range hs {
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
		hs := s.cut(next)
		sp := &span{start: next, end: next + len(hs), done: make(chan struct{})}
		s.ahead = append(s.ahead, sp)
		go func() {
			defer close(sp.done)
			s.fetch(sp, h, hs)
		}()
		next = sp.end
	}
}

// await moves the cursor to ordinal pos. Spans in flight that it has passed
// are waited out and dropped; when pos falls in the oldest one left, that
// span is waited for — the wait is the cloud cost of this block — and
// returned landed (err set if its GET failed), with the pipeline topped up
// behind it. It returns nil when no span in flight covers pos.
func (s *spanReader) await(pos int) *span {
	for len(s.ahead) > 0 && s.ahead[0].start <= pos {
		sp := s.ahead[0]
		<-sp.done
		s.ahead = slices.Delete(s.ahead, 0, 1)
		if pos < sp.end {
			s.ramp++
			s.topUp(sp.end)
			return sp
		}
	}
	return nil
}

// read fetches the span that starts at pos, a block of cloud table h, on
// the caller's goroutine and starts the pipeline behind it.
func (s *spanReader) read(pos int, h *tableHandle) *span {
	hs := s.cut(pos)
	sp := &span{start: pos, end: pos + len(hs)}
	if s.fetch(sp, h, hs); sp.err == nil {
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

// drain waits for every GET in flight and forgets the pipeline; what the
// spans admitted to the caches stays there.
func (s *spanReader) drain() {
	for _, sp := range s.ahead {
		<-sp.done
	}
	s.ahead = s.ahead[:0]
}
