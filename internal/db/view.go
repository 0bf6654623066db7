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
		members[i], indexes[i], uppers[i] = f.Num, h.reader.IndexEntries(), f.Largest
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
		members[i], indexes[i], uppers[i] = t.meta.Num, r.IndexEntries(), t.meta.Largest
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

	keyBuf [iterKeyScratch]byte // data's key buffer, until a key outgrows it
}

// init makes vi an unpositioned walk of level view v, whose members are
// files, lending its span GETs hold. vi stays where it is from then on: its
// key buffer and its spans' list are arrays of its own.
func (vi *viewIter) init(d *engine, hold *scanHold, v *sstable.View, files []*manifest.FileMetadata, prof *readprof.Profile) {
	vi.db, vi.v, vi.files, vi.prof = d, v, files, prof
	vi.pos, vi.found = -1, -1
	vi.data.SetKeyBuffer(vi.keyBuf[:])
	vi.spans = spanReader{
		sched: v.Entries, tables: vi, admit: true, width: spanBlocks, hold: hold,
		spans: &d.stats.ReadaheadSpans, blocks: &d.stats.ReadaheadBlocks,
	}
}

// scanHold is an iterator's hold, per engine, on what that engine's views'
// span GETs borrow: the version it walks, whose pin keeps their tables in
// place and open. The iterator is one holder and every span GET in flight is
// another; whoever lets go last unpins the version. So Iterator.Close
// returns with readahead still in flight, and no table a GET reads can be
// retired — its blocks dropped from the caches — before the GET has landed
// and admitted them.
type scanHold struct {
	d       *engine
	v       *manifest.Version
	views   []viewIter // the engine's level walks, one allocation
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

// release drops one holder; the last one out unpins the version.
func (s *scanHold) release() {
	if s.holders.Add(-1) == 0 {
		s.d.unpin(s.v)
	}
}

// handle returns member m's table handle, opening the table if it is not
// open; the hold's version pin keeps it open.
func (vi *viewIter) handle(m int32) (*tableHandle, error) {
	return vi.db.tables.get(vi.db, vi.files[m])
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
	body, _, _ := h.walk(e.H, cacheRungs, vi.prof)
	if body == nil {
		vi.spans.start(pos, h)
	}
	vi.found, vi.foundBody = pos, body
}

// fetchEntry returns the verified body of the block at ordinal pos. It walks
// the table's cache ladder, but a cloud miss during a forward scan reads
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
			// sketch; the read walk counts the blocks the fallback serves.
			vi.db.sketch.Add(cache.Key{FileNum: h.reader.FileNum(), Offset: e.H.Offset})
		}
		return body, nil
	}
	// No span serves the block (a local table, a reverse walk, a failed
	// span): the read walk looks the caches up, repairs local damage from
	// its CRC, admits and attributes.
	body, _, err := h.walk(e.H, readRungs, vi.prof)
	return body, err
}

// spanned returns the block at ordinal pos when the prefetch, a span or —
// on a forward walk of a cloud table — a cache serves it, and nil when only
// the read walk can. A block that waited on a span GET, or whose span was
// read for it, is the cloud's.
func (vi *viewIter) spanned(pos int, e *sstable.ViewEntry, h *tableHandle) []byte {
	start := stageClock(vi.prof)
	if pos == vi.found {
		body := vi.foundBody
		vi.found, vi.foundBody = -1, nil
		if body != nil {
			return body // attributed by prefetch
		}
	}
	if sp := vi.spans.await(pos); sp != nil && sp.err == nil {
		body := sp.bodies[pos-sp.start]
		attribute(vi.prof, readprof.TierCloud, body, start)
		return body
	}
	if h.tier == storage.TierCloud && vi.forward {
		if body, _, _ := h.walk(e.H, cacheRungs, vi.prof); body != nil {
			return body
		}
		if sp := vi.spans.read(pos, h); sp.err == nil {
			attribute(vi.prof, readprof.TierCloud, sp.bodies[0], start)
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
