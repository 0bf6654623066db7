package db

import (
	"sync"
	"time"

	"rocksmash/internal/block"
	"rocksmash/internal/cache"
	"rocksmash/internal/keys"
	"rocksmash/internal/manifest"
	"rocksmash/internal/pcache"
	"rocksmash/internal/readprof"
	"rocksmash/internal/sstable"
	"rocksmash/internal/storage"
)

// Sorted-view plumbing (REMIX-style). Each level >= 1 can carry a sorted
// view: a local-tier sidecar ("view/L<level>-<fingerprint>.view") holding
// the level's global block-cursor run, built from the members' pinned
// index blocks — zero data or cloud I/O. The registry below caches the
// decoded view per level, keyed by the fingerprint of the level's exact
// member set; a compaction install changes membership, the fingerprint
// diverges, and the cached view goes stale implicitly. Stale or missing
// views are rebuilt lazily in the background — the first scan after a
// compaction takes the plain merge path and schedules the rebuild.

// levelView is one level's registry slot.
type levelView struct {
	fp       uint64
	view     *sstable.View // nil while building
	building bool
}

// viewRegistry caches decoded sorted views per level. closing gates new
// builder goroutines against Close's WaitGroup drain.
type viewRegistry struct {
	mu      sync.Mutex
	levels  map[int]*levelView
	closing bool
}

// viewFor returns the level's sorted view when one matching the exact
// current member set is installed, else nil — scheduling a background
// (re)build at most once per fingerprint.
func (d *engine) viewFor(level int, files []*manifest.FileMetadata) *sstable.View {
	if d.opts.DisableSortedViews || level == 0 || len(files) == 0 {
		return nil
	}
	fp := manifest.ViewFingerprint(files)
	d.views.mu.Lock()
	defer d.views.mu.Unlock()
	if lv := d.views.levels[level]; lv != nil && lv.fp == fp {
		return lv.view // nil while the build is still in flight
	}
	if d.views.closing || d.closed.Load() {
		return nil
	}
	if d.views.levels == nil {
		d.views.levels = map[int]*levelView{}
	}
	d.views.levels[level] = &levelView{fp: fp, building: true}
	snap := make([]*manifest.FileMetadata, len(files))
	copy(snap, files)
	d.viewWG.Add(1)
	go d.buildView(level, fp, snap)
	return nil
}

// buildView materializes one level's view: load the persisted sidecar if a
// matching one survives on disk, otherwise rebuild from the members' pinned
// indexes and persist. Runs on its own goroutine; failures leave the level
// on the plain merge path (a later scan retries).
func (d *engine) buildView(level int, fp uint64, files []*manifest.FileMetadata) {
	defer d.viewWG.Done()
	name := manifest.ViewName(level, fp)
	start := time.Now()
	v := d.loadViewObject(name, level, files)
	if v == nil {
		members := make([]uint64, len(files))
		indexes := make([][]sstable.IndexEntry, len(files))
		uppers := make([][]byte, len(files))
		for i, f := range files {
			if d.closed.Load() {
				d.finishView(level, fp, nil)
				return
			}
			h, err := d.tables.get(d, f)
			if err != nil {
				d.finishView(level, fp, nil)
				return
			}
			es, err := h.reader.IndexEntries()
			h.release()
			if err != nil {
				d.finishView(level, fp, nil)
				return
			}
			members[i] = f.Num
			indexes[i] = es
			uppers[i] = f.Largest
		}
		v = sstable.BuildView(level, members, indexes, uppers)
		data := sstable.EncodeView(v)
		// Persisting is best-effort: the view is derived data, and a full
		// disk must not take the fast path away from the in-memory copy.
		_ = storage.WriteObject(d.local, name, data)
		d.stats.ViewBuilds.Add(1)
		d.stats.ViewBuildBytes.Add(int64(len(data)))
		d.evViewBuilt(level, len(members), len(v.Entries), len(data), time.Since(start))
	}
	d.finishView(level, fp, v)
	d.sweepStaleViews(level, fp)
}

// finishView installs the build result, unless the level has been retaken
// by a newer fingerprint in the meantime. A nil view (failed build) drops
// the slot so a later scan can retry.
func (d *engine) finishView(level int, fp uint64, v *sstable.View) {
	d.views.mu.Lock()
	if lv := d.views.levels[level]; lv != nil && lv.fp == fp {
		if v == nil {
			delete(d.views.levels, level)
		} else {
			lv.view = v
			lv.building = false
		}
	}
	d.views.mu.Unlock()
}

// loadViewObject decodes a persisted view sidecar, validating that it
// still describes exactly this member set. Any mismatch or damage reads as
// "absent" — views are rebuildable.
func (d *engine) loadViewObject(name string, level int, files []*manifest.FileMetadata) *sstable.View {
	data, err := d.local.ReadAll(name)
	if err != nil {
		return nil
	}
	v, err := sstable.DecodeView(data)
	if err != nil || v.Level != level || len(v.Members) != len(files) {
		return nil
	}
	for i, f := range files {
		if v.Members[i] != f.Num {
			return nil
		}
	}
	return v
}

// sweepStaleViews deletes this level's superseded view objects.
func (d *engine) sweepStaleViews(level int, keep uint64) {
	names, err := d.local.List(manifest.ViewPrefix)
	if err != nil {
		return
	}
	for _, name := range names {
		if l, fp, ok := manifest.ParseViewName(name); ok && l == level && fp != keep {
			_ = d.local.Delete(name)
		}
	}
}

// invalidateViews drops registry slots whose membership no longer matches
// the just-installed version and deletes their sidecars. The next scan of
// an invalidated level falls back to the plain merge and schedules a
// rebuild.
func (d *engine) invalidateViews(v *manifest.Version, levels ...int) {
	if d.opts.DisableSortedViews {
		return
	}
	var stale []string
	d.views.mu.Lock()
	for _, l := range levels {
		lv := d.views.levels[l]
		if lv == nil || lv.building {
			continue
		}
		if manifest.ViewFingerprint(v.Levels[l]) != lv.fp {
			delete(d.views.levels, l)
			stale = append(stale, manifest.ViewName(l, lv.fp))
		}
	}
	d.views.mu.Unlock()
	for _, name := range stale {
		_ = d.local.Delete(name)
	}
}

// stopViewBuilders bars new builds and drains in-flight ones. Called from
// Close/Crash after the background loops stop and before the table cache
// is torn down (builders hold table handles).
func (d *engine) stopViewBuilders() {
	d.views.mu.Lock()
	d.views.closing = true
	d.views.mu.Unlock()
	d.viewWG.Wait()
}

// BuildViews synchronously materializes the sorted view of every eligible
// level of every engine, so tests and harnesses can pin the fast path
// instead of racing the lazy background rebuild. No-op when views are
// disabled.
func (d *DB) BuildViews() error {
	if d.opts.DisableSortedViews || d.closed.Load() {
		return nil
	}
	return d.eachEngine(func(e *engine) error {
		e.buildViews()
		return nil
	})
}

// buildViews kicks the build of every stale level and waits them out.
func (d *engine) buildViews() {
	v := d.vs.Current()
	for lvl := 1; lvl < manifest.NumLevels; lvl++ {
		d.viewFor(lvl, v.Levels[lvl])
	}
	for {
		building := false
		d.views.mu.Lock()
		for _, lv := range d.views.levels {
			building = building || lv.building
		}
		d.views.mu.Unlock()
		if !building {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// Sorted views carry their own readahead policy: the sidecar spells out the
// exact block sequence a forward scan will touch, so span reads never
// mispredict and are safe to enable by default. IteratorReadaheadBlocks > 1
// overrides the span width (it tunes the adjacency heuristic the plain path
// uses, and the view path follows it for comparability); when unset, view
// scans use defaultViewSpanBlocks. viewPipelineDepth spans are kept in
// flight ahead of the cursor — the schedule is known, so the pipeline can
// run deep without risk, and cold full-scan throughput scales with depth.
const (
	defaultViewSpanBlocks = 16
	viewPipelineDepth     = 3
)

// viewPrefetch is one in-flight pipelined span GET over the view's block
// schedule: the goroutine reads entries [start,end) and bulk-admits them
// into the block and persistent caches, so the iterator consumes them
// through the ordinary cache ladder when it catches up.
type viewPrefetch struct {
	start, end int
	done       chan struct{}
	err        error
}

// viewIter walks one level through its sorted view: a seek is one binary
// search over the cursor run plus one in-block seek, and every advance is
// a pure sequential step — no per-key heap or compare work, no index-block
// consultation. Because the view spells out the exact upcoming block
// sequence across member tables, cloud readahead is exact: misses read
// multi-block spans along the schedule and pipeline the next span while
// the current one is consumed.
type viewIter struct {
	db        *engine
	v         *sstable.View
	files     []*manifest.FileMetadata // files[i].Num == v.Members[i]
	handles   []*tableHandle           // lazily opened, held until Close
	fetch     []sstable.FetchFunc      // per-member single-block fallback path
	pos       int                      // current entry ordinal
	data      *block.Iter
	forward   bool
	pres      []*viewPrefetch // in-flight pipelined spans, ordered by start
	spansDone int             // spans this scan has consumed (pipeline ramp)
	prof      *readprof.Profile
	err       error
}

func newViewIter(d *engine, v *sstable.View, files []*manifest.FileMetadata) *viewIter {
	return &viewIter{
		db:      d,
		v:       v,
		files:   files,
		handles: make([]*tableHandle, len(files)),
		fetch:   make([]sstable.FetchFunc, len(files)),
		pos:     -1,
	}
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
	vi.fetch[m] = vi.db.tables.fetchFor(h)
	return h, nil
}

// spanEnd returns the first ordinal past start that breaks the physical
// span: a different member, a file-layout gap, or the n-block cap.
func (vi *viewIter) spanEnd(start, n int) int {
	es := vi.v.Entries
	end := start + 1
	for end < len(es) && end-start < n &&
		es[end].Member == es[end-1].Member &&
		es[end].H.Offset == es[end-1].H.End() {
		end++
	}
	return end
}

// readSpan performs one range GET over entries [start,end) of a single
// member and bulk-admits every block into the block and persistent caches.
func (vi *viewIter) readSpan(h *tableHandle, start, end int) ([][]byte, error) {
	es := vi.v.Entries
	span := make([]sstable.Handle, end-start)
	for i := range span {
		span[i] = es[start+i].H
	}
	bodies, err := sstable.ReadRawSpan(h.reader.File(), span)
	if err != nil {
		return nil, err
	}
	fileNum := vi.files[es[start].Member].Num
	bulk := make([]pcache.Block, len(span))
	for i, bh := range span {
		bulk[i] = pcache.Block{Off: bh.Offset, Body: bodies[i]}
		vi.db.blockCache.Put(cache.Key{FileNum: fileNum, Offset: bh.Offset}, bodies[i])
	}
	vi.db.pcache.PutBulk(fileNum, bulk)
	vi.db.stats.ReadaheadSpans.Add(1)
	vi.db.stats.ReadaheadBlocks.Add(int64(len(span)))
	return bodies, nil
}

// spanBlocks is the span width for view-scheduled readahead: the
// IteratorReadaheadBlocks knob when set, else the view default. Sorted
// views always read ahead — the schedule is exact, so there is no
// mispredicted fetch for a conservative default to guard against.
func (vi *viewIter) spanBlocks() int {
	if n := vi.db.opts.IteratorReadaheadBlocks; n > 1 {
		return n
	}
	return defaultViewSpanBlocks
}

// topUpPipeline keeps span GETs in flight along the schedule, chaining
// each new span from the end of the last queued one (or from `from` when
// the pipeline is empty). The depth ramps with the spans the scan has
// already consumed — slow start — so a short scan over-fetches at most
// about one span while a full scan reaches viewPipelineDepth within a few
// spans. Only cloud-resident spans are launched; the pipeline stops at the
// first local member.
func (vi *viewIter) topUpPipeline(from, n int) {
	depth := vi.spansDone
	if depth > viewPipelineDepth {
		depth = viewPipelineDepth
	}
	next := from
	if len(vi.pres) > 0 {
		next = vi.pres[len(vi.pres)-1].end
	}
	for len(vi.pres) < depth && next < len(vi.v.Entries) {
		h, err := vi.handle(vi.v.Entries[next].Member)
		if err != nil || h.tier != storage.TierCloud {
			return
		}
		end := vi.spanEnd(next, n)
		pre := &viewPrefetch{start: next, end: end, done: make(chan struct{})}
		vi.pres = append(vi.pres, pre)
		go func(h *tableHandle, pre *viewPrefetch) {
			defer close(pre.done)
			_, pre.err = vi.readSpan(h, pre.start, pre.end)
		}(h, pre)
		next = end
	}
}

// drainPipeline waits out every in-flight span and forgets them; their
// cache admissions still land. Used when the scan direction flips and on
// Close — the span GETs borrow member handles, so they must finish before
// the handles are released.
func (vi *viewIter) drainPipeline() {
	for _, pre := range vi.pres {
		<-pre.done
	}
	vi.pres = vi.pres[:0]
}

// fetchEntry returns the verified body of the block at ordinal pos. The
// ladder mirrors the table cache's fetch path — block cache, persistent
// cache, then the backend — but a cloud miss during a forward scan reads
// the exact span the view schedules next (no adjacency heuristic) and keeps
// viewPipelineDepth further spans in flight. Pipelined spans bulk-admit
// into the caches, so the iterator consumes them as cache hits: only the
// block that actually stalls on an in-flight GET (or triggers a synchronous
// one) is attributed to the cloud tier, exactly like the plain path's
// adjacency readahead.
func (vi *viewIter) fetchEntry(pos int) ([]byte, error) {
	e := &vi.v.Entries[pos]
	h, err := vi.handle(e.Member)
	if err != nil {
		return nil, err
	}
	fileNum := vi.files[e.Member].Num
	n := vi.spanBlocks()
	if !vi.forward {
		vi.drainPipeline()
	}

	// Retire pipelined spans the scan has moved past, and wait out the one
	// covering this block: its GET bulk-admitted every block, so after the
	// wait the cache ladder below serves the whole span locally. The wait
	// is the real cloud fetch cost and is attributed as such — with the
	// pipeline warm it is near zero.
	timed := vi.prof != nil && vi.prof.Timed
	var waitNs int64
	waited := false
	for len(vi.pres) > 0 && vi.pres[0].start <= pos {
		pre := vi.pres[0]
		var start time.Time
		if timed {
			start = time.Now()
		}
		<-pre.done
		vi.pres = vi.pres[1:]
		if pos < pre.end {
			if timed {
				waitNs = time.Since(start).Nanoseconds()
			}
			waited = pre.err == nil
			vi.spansDone++
			vi.topUpPipeline(pre.end, n)
			break
		}
	}

	ck := cache.Key{FileNum: fileNum, Offset: e.H.Offset}
	if body, ok := vi.db.blockCache.Get(ck); ok {
		if vi.prof != nil {
			if waited {
				vi.prof.Block(readprof.TierCloud, len(body), waitNs)
			} else {
				vi.prof.Block(readprof.TierBlockCache, len(body), 0)
			}
		}
		return body, nil
	}
	if h.tier == storage.TierCloud && vi.forward && n > 1 {
		var start time.Time
		if timed {
			start = time.Now()
		}
		if body, ok := vi.db.pcache.Get(fileNum, e.H.Offset); ok {
			vi.db.blockCache.Put(ck, body)
			if vi.prof != nil {
				var ns int64
				if timed {
					ns = time.Since(start).Nanoseconds()
				}
				vi.prof.Block(readprof.TierPCache, len(body), ns)
			}
			return body, nil
		}
		// Exact-schedule span read: the view says precisely which blocks a
		// forward scan touches next, so read them in one GET and start the
		// pipeline behind it.
		if end := vi.spanEnd(pos, n); end-pos > 1 {
			if bodies, err := vi.readSpan(h, pos, end); err == nil {
				vi.spansDone++
				vi.topUpPipeline(end, n)
				if vi.prof != nil {
					var ns int64
					if timed {
						ns = time.Since(start).Nanoseconds()
					}
					vi.prof.Block(readprof.TierCloud, len(bodies[0]), ns)
				}
				return bodies[0], nil
			}
		}
	}
	// Single-block fallback: the standard fetch path (persistent cache,
	// CRC repair for local damage, cache admission, attribution).
	return vi.fetch[e.Member](fileNum, e.H, vi.prof)
}

// load positions the iterator on the block at ordinal pos.
func (vi *viewIter) load(pos int) bool {
	if vi.err != nil {
		return false
	}
	if pos < 0 || pos >= len(vi.v.Entries) {
		vi.pos = pos
		vi.data = nil
		return false
	}
	body, err := vi.fetchEntry(pos)
	if err != nil {
		vi.err = err
		vi.data = nil
		return false
	}
	br, err := block.NewReader(body)
	if err != nil {
		vi.err = err
		vi.data = nil
		return false
	}
	vi.pos = pos
	vi.data = br.NewIter()
	return true
}

func (vi *viewIter) skipForward() {
	for vi.data != nil && !vi.data.Valid() {
		if err := vi.data.Err(); err != nil {
			vi.err = err
			vi.data = nil
			return
		}
		if !vi.load(vi.pos + 1) {
			return
		}
		vi.data.First()
	}
}

func (vi *viewIter) skipBackward() {
	for vi.data != nil && !vi.data.Valid() {
		if err := vi.data.Err(); err != nil {
			vi.err = err
			vi.data = nil
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
	if vi.data == nil {
		return
	}
	vi.forward = true
	vi.data.Next()
	vi.skipForward()
}

func (vi *viewIter) Prev() {
	if vi.data == nil {
		return
	}
	vi.forward = false
	vi.data.Prev()
	vi.skipBackward()
}

func (vi *viewIter) Valid() bool   { return vi.data != nil && vi.data.Valid() }
func (vi *viewIter) Key() []byte   { return vi.data.Key() }
func (vi *viewIter) Value() []byte { return vi.data.Value() }
func (vi *viewIter) Err() error    { return vi.err }

func (vi *viewIter) Close() error {
	// In-flight span GETs borrow member handles; let them land before
	// releasing.
	vi.drainPipeline()
	for i, h := range vi.handles {
		if h != nil {
			h.release()
			vi.handles[i] = nil
		}
	}
	vi.data = nil
	return vi.err
}
