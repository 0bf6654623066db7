package db

import (
	"sync"
	"time"

	"rocksmash/internal/block"
	"rocksmash/internal/cache"
	"rocksmash/internal/keys"
	"rocksmash/internal/manifest"
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
	handles []*tableHandle           // lazily opened, held until Close
	fetch   []sstable.FetchFunc      // per-member single-block fallback path
	pos     int                      // current entry ordinal
	data    block.Iter               // held by value; re-pointed (key buffer kept) per block
	loaded  bool                     // data is on the block at pos
	forward bool
	spans   spanReader // cloud span reads along v.Entries
	prof    *readprof.Profile
	err     error
}

func newViewIter(d *engine, v *sstable.View, files []*manifest.FileMetadata) *viewIter {
	vi := &viewIter{
		db:      d,
		v:       v,
		files:   files,
		handles: make([]*tableHandle, len(files)),
		fetch:   make([]sstable.FetchFunc, len(files)),
		pos:     -1,
	}
	vi.spans = spanReader{
		sched: v.Entries, tables: vi, admit: true,
		spans: &d.stats.ReadaheadSpans, blocks: &d.stats.ReadaheadBlocks,
	}
	return vi
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
	fileNum := vi.files[e.Member].Num
	if !vi.forward {
		// The schedule runs forward only.
		vi.spans.drain()
	}

	// elapsed is the stage time a sampled profile records, 0 otherwise.
	var start time.Time
	timed := vi.prof != nil && vi.prof.Timed
	if timed {
		start = time.Now()
	}
	elapsed := func() int64 {
		if !timed {
			return 0
		}
		return time.Since(start).Nanoseconds()
	}

	sp := vi.spans.await(pos)
	waited := sp != nil && sp.err == nil
	ck := cache.Key{FileNum: fileNum, Offset: e.H.Offset}
	if body, ok := vi.db.blockCache.Get(ck); ok {
		if vi.prof != nil {
			if waited {
				vi.prof.Block(readprof.TierCloud, len(body), elapsed())
			} else {
				vi.prof.Block(readprof.TierBlockCache, len(body), 0)
			}
		}
		return body, nil
	}
	if h.tier == storage.TierCloud && vi.forward {
		if body, ok := vi.db.pcache.Get(fileNum, e.H.Offset); ok {
			vi.db.blockCache.PutCloud(ck, body)
			if vi.prof != nil {
				vi.prof.Block(readprof.TierPCache, len(body), elapsed())
			}
			return body, nil
		}
		if sp := vi.spans.read(pos, h); sp.err == nil {
			if vi.prof != nil {
				vi.prof.Block(readprof.TierCloud, len(sp.bodies[0]), elapsed())
			}
			return sp.bodies[0], nil
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

func (vi *viewIter) Close() error {
	// In-flight span GETs borrow member handles; let them land before
	// releasing.
	vi.spans.drain()
	for i, h := range vi.handles {
		if h != nil {
			h.release()
			vi.handles[i] = nil
		}
	}
	vi.loaded = false
	return vi.err
}
