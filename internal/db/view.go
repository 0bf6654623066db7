package db

import (
	"sync/atomic"
	"time"

	"rocksmash/internal/block"
	"rocksmash/internal/cache"
	"rocksmash/internal/keys"
	"rocksmash/internal/manifest"
	"rocksmash/internal/readprof"
	"rocksmash/internal/sstable"
	"rocksmash/internal/storage"
)

// Sorted views (REMIX-style) ride the version: every level >= 1 of a
// version a reader pins is one cursor run over its member tables'
// blocks. A compaction splices the views of the two levels it changes at
// install (spliceViews), flushes and relocations carry them over
// (manifest.Version.Apply), and a level with none — after Open, or a
// compaction that found none to splice — gets it from the first scan that
// needs it (levelView), built from the members' pinned index blocks with no
// data or cloud I/O and kept on that version for every later reader.

// levelView returns level's sorted view in v, building it on first use and
// caching it on v. A build that cannot open a member fails the scan. An
// empty level gets an empty view, so the compaction that fills it splices
// its view like any other level's; hits and builds count the levels a scan
// walks.
func (d *engine) levelView(v *manifest.Version, level int) (*sstable.View, error) {
	files := v.Levels[level]
	walked := len(files) > 0
	if vw := v.View(level); vw != nil {
		if walked {
			d.stats.ScanViewHits.Add(1)
		}
		return vw, nil
	}
	start := time.Now()
	members := make([]uint64, len(files))
	indexes := make([][]sstable.IndexEntry, len(files))
	uppers := make([][]byte, len(files))
	for i, f := range files {
		h, err := d.tables.get(d, f)
		if err != nil {
			return nil, err
		}
		es, err := h.reader.IndexEntries()
		h.release()
		if err != nil {
			return nil, err
		}
		members[i], indexes[i], uppers[i] = f.Num, es, f.Largest
	}
	vw := v.SetView(level, sstable.BuildView(level, members, indexes, uppers))
	if walked {
		d.stats.ScanViewMisses.Add(1)
		d.evViewBuilt(level, len(members), len(vw.Entries), time.Since(start))
	}
	return vw, nil
}

// spliceViews derives the views of c's levels after its edit from their
// views in cur, the version the edit applies to: the inputs' cursor runs go
// and the outputs' come in, their index entries read from the in-memory
// tables. A level with no view in cur gets none (its next scan builds it),
// and so does the output level if an output's index does not parse. The
// caller holds compactionMu.
func spliceViews(cur *manifest.Version, c *compaction, outputs []*builtTable) (views [manifest.NumLevels]*sstable.View) {
	if old := cur.View(c.level); old != nil {
		views[c.level] = old.Splice(fileNums(c.inputs), nil)
	}
	old := cur.View(c.output)
	if old == nil {
		return views
	}
	members := make([]uint64, len(outputs))
	indexes := make([][]sstable.IndexEntry, len(outputs))
	uppers := make([][]byte, len(outputs))
	for i, t := range outputs {
		r, err := sstable.Open(bytesReader{t.data}, t.meta.Num)
		if err != nil {
			return views
		}
		es, err := r.IndexEntries()
		if err != nil {
			return views
		}
		members[i], indexes[i], uppers[i] = t.meta.Num, es, t.meta.Largest
	}
	views[c.output] = old.Splice(fileNums(c.overlap), sstable.BuildView(c.output, members, indexes, uppers))
	return views
}

func fileNums(files []*manifest.FileMetadata) []uint64 {
	nums := make([]uint64, len(files))
	for i, f := range files {
		nums[i] = f.Num
	}
	return nums
}

// viewIter walks one level through its sorted view: a seek is one binary
// search over the cursor run plus one in-block seek, and every advance is
// a pure sequential step — no per-key heap or compare work, no index-block
// consultation. Because the view spells out the exact upcoming block
// sequence across member tables, cloud readahead is exact: misses read
// multi-block spans along the schedule and pipeline the next span while
// the current one is consumed.
type viewIter struct {
	db      *engine
	v       *sstable.View
	files   []*manifest.FileMetadata // files[i].Num == v.Members[i]
	handles []*tableHandle           // lazily opened, held until the scanHold lets go
	pos     int                      // current entry ordinal
	data    block.Iter               // held by value; re-pointed (key buffer kept) per block
	loaded  bool                     // data is on the block at pos
	forward bool
	spans   spanReader // cloud span reads along v.Entries
	prof    *readprof.Profile
	err     error
	// found is the ordinal prefetch resolved, -1 when none is pending, and
	// foundBody that block when a cache held it (nil: its span is in flight).
	// The load that follows takes them instead of looking the block up again.
	found     int
	foundBody []byte
	// nextView links the views of one scanHold.
	nextView *viewIter
}

func newViewIter(d *engine, hold *scanHold, v *sstable.View, files []*manifest.FileMetadata) *viewIter {
	vi := &viewIter{
		db:       d,
		v:        v,
		files:    files,
		handles:  make([]*tableHandle, len(files)),
		pos:      -1,
		found:    -1,
		nextView: hold.views,
	}
	hold.views = vi
	vi.spans = spanReader{
		sched: v.Entries, tables: vi, admit: true, width: spanBlocks, hold: hold,
		spans: &d.stats.ReadaheadSpans, blocks: &d.stats.ReadaheadBlocks,
	}
	return vi
}

// scanHold is an iterator's hold, per engine, on what that engine's views'
// span GETs borrow: the version it walks and the member tables its views
// opened. The iterator is one holder and every span GET in flight is
// another; whoever lets go last releases the handles and unpins the
// version. So Iterator.Close returns with readahead still in flight, and no
// table a GET reads can be retired — its blocks dropped from the caches —
// before the GET has landed and admitted them.
type scanHold struct {
	d       *engine
	v       *manifest.Version
	views   *viewIter // linked through nextView
	holders atomic.Int32
}

// init takes the iterator's own hold on v.
func (s *scanHold) init(d *engine, v *manifest.Version) {
	s.d, s.v = d, v
	s.holders.Store(1)
}

// lend adds a span GET as a holder, and as a tail engine.stop waits for.
func (s *scanHold) lend() {
	s.holders.Add(1)
	s.d.scanTails.Add(1)
}

// landed lets go of a span GET's hold once it has landed.
func (s *scanHold) landed() {
	s.release()
	s.d.scanTails.Done()
}

// release drops one holder; the last one out releases everything.
func (s *scanHold) release() {
	if s.holders.Add(-1) > 0 {
		return
	}
	for vi := s.views; vi != nil; vi = vi.nextView {
		for i, h := range vi.handles {
			if h != nil {
				h.release()
				vi.handles[i] = nil
			}
		}
	}
	s.d.unpin(s.v)
}

// handle returns member m's table handle, opening it on first use.
func (vi *viewIter) handle(m int32) (*tableHandle, error) {
	if h := vi.handles[m]; h != nil {
		return h, nil
	}
	h, err := vi.db.tables.get(vi.db, vi.files[m])
	if err != nil {
		return nil, err
	}
	vi.handles[m] = h
	return h, nil
}

// clock starts a stage clock when the profile is timed: the zero time
// otherwise, which attribute reads as no stage time.
func (vi *viewIter) clock() time.Time {
	if vi.prof != nil && vi.prof.Timed {
		return time.Now()
	}
	return time.Time{}
}

// attribute records a block served from tier on the iterator's profile.
func (vi *viewIter) attribute(tier readprof.Tier, body []byte, start time.Time) {
	if vi.prof == nil {
		return
	}
	var ns int64
	if !start.IsZero() {
		ns = time.Since(start).Nanoseconds()
	}
	vi.prof.Block(tier, len(body), ns)
}

// cached returns cloud entry e's block on a forward walk when the block
// cache or the persistent cache holds it (a persistent-cache hit is promoted
// to the block cache), and nil otherwise: one lookup per rung. waited says a
// span GET was awaited for the block, which makes it the cloud's.
func (vi *viewIter) cached(e *sstable.ViewEntry, h *tableHandle, start time.Time, waited bool) []byte {
	fileNum := h.reader.FileNum()
	ck := cache.Key{FileNum: fileNum, Offset: e.H.Offset}
	if body, ok := vi.db.blockCache.Get(ck); ok {
		if waited {
			vi.attribute(readprof.TierCloud, body, start)
		} else {
			vi.attribute(readprof.TierBlockCache, body, time.Time{})
		}
		return body
	}
	if body, ok := vi.db.pcache.Get(fileNum, e.H.Offset); ok {
		vi.db.blockCache.PutCloud(ck, body)
		vi.attribute(readprof.TierPCache, body, start)
		return body
	}
	return nil
}

// prefetch resolves the block SeekGE(ikey) — First when ikey is nil — will
// land on and, when it is a cloud block in neither cache, starts its span's
// GET without waiting for it. What it found goes to the load that follows.
// It does nothing while spans are already in flight: load's await covers
// those.
func (vi *viewIter) prefetch(ikey []byte) {
	pos := 0
	if ikey != nil {
		pos = vi.v.Seek(ikey)
	}
	if vi.err != nil || pos == vi.found || pos >= len(vi.v.Entries) || len(vi.spans.ahead) > 0 {
		return
	}
	e := &vi.v.Entries[pos]
	h, err := vi.handle(e.Member)
	if err != nil || h.tier != storage.TierCloud {
		return // load surfaces the error; a local block is no round trip
	}
	vi.forward = true
	body := vi.cached(e, h, vi.clock(), false)
	if body == nil {
		vi.spans.start(pos, h)
	}
	vi.found, vi.foundBody = pos, body
}

// fetchEntry returns the verified body of the block at ordinal pos. The
// ladder mirrors the table cache's fetch path — block cache, persistent
// cache, then the backend — but a cloud miss during a forward scan reads
// the span the view schedules from pos (see span.go) and pipelines the
// spans after it. Spans admit their blocks to the caches, so the iterator
// consumes them as cache hits: only the block that waits on a GET in flight
// or triggers a synchronous one is attributed to the cloud tier.
func (vi *viewIter) fetchEntry(pos int) ([]byte, error) {
	e := &vi.v.Entries[pos]
	h, err := vi.handle(e.Member)
	if err != nil {
		return nil, err
	}
	if !vi.forward {
		// The schedule runs forward only.
		vi.spans.drain()
	}
	if body := vi.spanned(pos, e, h); body != nil {
		if h.tier == storage.TierCloud && vi.forward {
			// A block the forward walk consumes counts one read in the
			// sketch; fetchFor counts the blocks the fallback below serves.
			vi.db.sketch.Add(cache.Key{FileNum: h.reader.FileNum(), Offset: e.H.Offset})
		}
		return body, nil
	}
	// No span serves the block (a local table, a reverse walk, a failed
	// span): the standard fetch path looks the caches up itself, repairs
	// local damage from its CRC, admits and attributes.
	return h.reader.Fetch(e.H, vi.prof)
}

// spanned returns the block at ordinal pos when the prefetch, a span or —
// on a forward walk of a cloud table — a cache serves it, and nil when only
// the standard fetch path can.
func (vi *viewIter) spanned(pos int, e *sstable.ViewEntry, h *tableHandle) []byte {
	start := vi.clock()
	prefetched := pos == vi.found
	if prefetched {
		body := vi.foundBody
		vi.found, vi.foundBody = -1, nil
		if body != nil {
			return body // attributed by prefetch
		}
	}
	sp := vi.spans.await(pos)
	waited := sp != nil && sp.err == nil
	if waited && prefetched {
		// prefetch looked the block up and started this span for it.
		body := sp.bodies[pos-sp.start]
		vi.attribute(readprof.TierCloud, body, start)
		return body
	}
	if h.tier == storage.TierCloud && vi.forward {
		if body := vi.cached(e, h, start, waited); body != nil {
			return body
		}
		if sp := vi.spans.read(pos, h); sp.err == nil {
			vi.attribute(readprof.TierCloud, sp.bodies[0], start)
			return sp.bodies[0]
		}
	}
	return nil
}

// load positions the iterator on the block at ordinal pos.
func (vi *viewIter) load(pos int) bool {
	if vi.err != nil {
		return false
	}
	vi.loaded = false
	if pos < 0 || pos >= len(vi.v.Entries) {
		vi.pos = pos
		return false
	}
	body, err := vi.fetchEntry(pos)
	if err != nil {
		vi.err = err
		return false
	}
	br, err := block.Parse(body)
	if err != nil {
		vi.err = err
		return false
	}
	vi.pos = pos
	vi.data.Reset(br)
	vi.loaded = true
	return true
}

func (vi *viewIter) skipForward() {
	for vi.loaded && !vi.data.Valid() {
		if err := vi.data.Err(); err != nil {
			vi.err = err
			vi.loaded = false
			return
		}
		if !vi.load(vi.pos + 1) {
			return
		}
		vi.data.First()
	}
}

func (vi *viewIter) skipBackward() {
	for vi.loaded && !vi.data.Valid() {
		if err := vi.data.Err(); err != nil {
			vi.err = err
			vi.loaded = false
			return
		}
		if !vi.load(vi.pos - 1) {
			return
		}
		vi.data.Last()
	}
}

func (vi *viewIter) First() {
	vi.forward = true
	if vi.load(0) {
		vi.data.First()
		vi.skipForward()
	}
}

func (vi *viewIter) Last() {
	vi.forward = false
	if vi.load(len(vi.v.Entries) - 1) {
		vi.data.Last()
		vi.skipBackward()
	}
}

func (vi *viewIter) SeekGE(ikey []byte) {
	vi.forward = true
	if vi.load(vi.v.Seek(ikey)) {
		vi.data.SeekGE(ikey)
		vi.skipForward()
	}
}

func (vi *viewIter) SeekLT(ikey []byte) {
	vi.forward = false
	pos := vi.v.Seek(ikey)
	if pos == len(vi.v.Entries) {
		// ikey is beyond every separator: the level's last entry (if any)
		// is < ikey.
		vi.Last()
		if vi.Valid() && keys.Compare(vi.Key(), ikey) >= 0 {
			vi.Prev()
		}
		return
	}
	if vi.load(pos) {
		vi.data.SeekLT(ikey)
		vi.skipBackward()
	}
}

func (vi *viewIter) Next() {
	if !vi.loaded {
		return
	}
	vi.forward = true
	vi.data.Next()
	vi.skipForward()
}

func (vi *viewIter) Prev() {
	if !vi.loaded {
		return
	}
	vi.forward = false
	vi.data.Prev()
	vi.skipBackward()
}

func (vi *viewIter) Valid() bool   { return vi.loaded && vi.data.Valid() }
func (vi *viewIter) Key() []byte   { return vi.data.Key() }
func (vi *viewIter) Value() []byte { return vi.data.Value() }
func (vi *viewIter) Err() error    { return vi.err }

// Close leaves the span GETs in flight and the member handles they borrow
// to the iterator's scanHold.
func (vi *viewIter) Close() error {
	vi.loaded = false
	return vi.err
}
