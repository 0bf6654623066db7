package db

import (
	"bytes"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"rocksmash/internal/block"
	"rocksmash/internal/event"
	"rocksmash/internal/keys"
	"rocksmash/internal/manifest"
	"rocksmash/internal/readprof"
	"rocksmash/internal/sstable"
)

// compactionSlots is how many compaction jobs run at once in the whole store,
// whichever engines they belong to (lanes.go). It matches compactionGETs and
// uploadParallelism: past four, the simulated cloud's missing request queue
// (ROADMAP item 4) is most of what more slots would buy.
const compactionSlots = 4

// compaction is one job: it merges inputs from level with the overlapping
// files of output.
type compaction struct {
	level   int // inputs come from this level...
	output  int // ...and merge into this one
	inputs  []*manifest.FileMetadata
	overlap []*manifest.FileMetadata // files at output level
	// lo and hi bound the user keys of inputs and overlap: the range the job
	// holds on both of its levels while it runs.
	lo, hi []byte
	// v is the version the job was picked from, pinned until its
	// CompactionEnd.
	v   *manifest.Version
	job uint64 // store-wide job number, for its events
}

// pickCompaction picks the job to start next from v, or nil: the job of the
// most over-budget level that overlaps no running job on a level they share.
// A level's score leaves out the source files of its running jobs, so a level
// that work is already draining does not start more of it. A level that is
// over budget but blocked by running jobs holds both of its levels against
// every lower-scored level: otherwise back-to-back L1→L2 jobs keep the L0→L1
// job that writers stall on from ever starting. The caller holds
// compactionMu.
func (d *engine) pickCompaction(v *manifest.Version) *compaction {
	busy := map[uint64]bool{}
	for _, r := range d.running {
		for _, f := range r.inputs {
			busy[f.Num] = true
		}
	}
	var scores [manifest.NumLevels - 1]float64
	var cands []int
	for l := range scores {
		var n, size uint64
		for _, f := range v.Levels[l] {
			if !busy[f.Num] {
				n++
				size += f.Size
			}
		}
		if l == 0 {
			scores[l] = float64(n) / float64(d.opts.L0CompactTrigger)
		} else {
			scores[l] = float64(size) / float64(d.opts.levelTargetBytes(l))
		}
		if scores[l] > 1 || l == 0 && scores[l] == 1 {
			cands = append(cands, l)
		}
	}
	// Ties go to the shallower level.
	sort.SliceStable(cands, func(i, j int) bool { return scores[cands[i]] > scores[cands[j]] })
	var held [manifest.NumLevels]bool
	for _, l := range cands {
		if held[l] || held[l+1] {
			continue
		}
		if c := d.jobAt(v, l); c != nil {
			return c
		}
		held[l], held[l+1] = true, true
	}
	return nil
}

// jobAt returns the job that compacts level in v, or nil when every choice
// overlaps a running job. An L0 job takes every L0 file — they may overlap
// each other arbitrarily — and never runs beside another. A deeper level's
// job takes one file, round-robin from the level's cursor so every key range
// gets its turn, passing over files whose job a running one blocks.
func (d *engine) jobAt(v *manifest.Version, level int) *compaction {
	if level == 0 {
		c := newCompaction(v, 0, append([]*manifest.FileMetadata(nil), v.Levels[0]...))
		if d.conflicts(c) {
			return nil
		}
		return c
	}
	files := v.Levels[level]
	start := 0
	if ptr := d.compactPtr[level]; ptr != nil {
		for i, f := range files {
			if bytes.Compare(keys.UserKey(f.Largest), ptr) > 0 {
				start = i
				break
			}
		}
	}
	for i := range files {
		c := newCompaction(v, level, []*manifest.FileMetadata{files[(start+i)%len(files)]})
		if !d.conflicts(c) {
			return c
		}
	}
	return nil
}

// newCompaction builds the job that merges inputs from level of v into the
// next level.
func newCompaction(v *manifest.Version, level int, inputs []*manifest.FileMetadata) *compaction {
	c := &compaction{level: level, output: level + 1, inputs: inputs, v: v}
	lo, hi := keyRange(inputs)
	c.overlap = v.Overlapping(c.output, lo, hi)
	c.lo, c.hi = keyRange(c.files())
	return c
}

// files returns the job's inputs from both levels.
func (c *compaction) files() []*manifest.FileMetadata {
	return append(append([]*manifest.FileMetadata(nil), c.inputs...), c.overlap...)
}

// conflicts reports whether c would overlap a running job on a level they
// share, or is a second L0 job. The caller holds compactionMu.
func (d *engine) conflicts(c *compaction) bool {
	for _, r := range d.running {
		if c.level == 0 && r.level == 0 {
			return true
		}
		shared := c.level == r.level || c.level == r.output || c.output == r.level || c.output == r.output
		if shared && bytes.Compare(c.lo, r.hi) <= 0 && bytes.Compare(r.lo, c.hi) <= 0 {
			return true
		}
	}
	return false
}

// keyRange returns the user-key bounds covered by files.
func keyRange(files []*manifest.FileMetadata) (lo, hi []byte) {
	for _, f := range files {
		fl, fh := keys.UserKey(f.Smallest), keys.UserKey(f.Largest)
		if lo == nil || bytes.Compare(fl, lo) < 0 {
			lo = fl
		}
		if hi == nil || bytes.Compare(fh, hi) > 0 {
			hi = fh
		}
	}
	return lo, hi
}

// smallestSnapshot returns the oldest sequence number any live snapshot
// might read, bounding which old versions compaction may drop, and raises
// the engine's horizon to it. A snapshot registered after this call, or a
// read that took its sequence before it, learns from the horizon that its
// sequence may be too old.
func (d *engine) smallestSnapshot() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	min := d.lastSeq.Load()
	for seq := range d.snaps {
		if seq < min {
			min = seq
		}
	}
	if min > d.horizon.Load() {
		d.horizon.Store(min)
	}
	return min
}

// isBaseLevel reports whether no level deeper than c.output holds data
// overlapping c's range in the version c was picked from — if so, tombstones
// in that range can be dropped entirely. A running job cannot move data into
// that range below c.output meanwhile: it would have to take it from c.output
// inside the range c holds there.
func (c *compaction) isBaseLevel() bool {
	for l := c.output + 1; l < manifest.NumLevels; l++ {
		if len(c.v.Overlapping(l, c.lo, c.hi)) > 0 {
			return false
		}
	}
	return true
}

// openInputs opens the merge's input tables, one iterator each. Every
// input, on either tier, reads its data blocks in file order through a
// spanReader of its own with compactionSpanBytes-wide spans (see span.go),
// read into buffers from the store's free list that go back as the merge
// moves past them. A cloud input keeps its spans' GETs in flight ahead of
// the merge, the readers of one compaction sharing a budget of
// compactionGETs; a local input reads each span when the merge reaches it.
// Neither looks up or fills a cache. drain waits out the GETs in flight and
// gives every span buffer back. readNS, when non-nil, accumulates the time
// the merge spends blocked on reads; spans and blocks count the span GETs
// that landed.
func (d *engine) openInputs(files []*manifest.FileMetadata, readNS, spans, blocks *atomic.Int64) (children []internalIterator, drain func(), err error) {
	gets := make(chan struct{}, compactionGETs)
	width := compactionSpanBlocks(d.opts.BlockBytes)
	var readers []*spanReader
	for _, f := range files {
		h, err := d.tables.get(d, f)
		if err != nil {
			return nil, nil, err
		}
		sr := &spanReader{
			sched: make([]sstable.ViewEntry, h.reader.DataBlocks()), tables: h, width: width,
			pool: d.bufs, gets: gets, spans: spans, blocks: blocks,
		}
		for i := range sr.sched {
			sr.sched[i].H = h.reader.DataHandle(i)
		}
		readers = append(readers, sr)
		fetch := scheduledFetch(sr)
		if readNS != nil {
			fetch = timedFetch(fetch, readNS)
		}
		children = append(children, &tableIter{it: *h.reader.NewIterWithFetch(fetch)})
	}
	return children, func() {
		for _, sr := range readers {
			sr.drain()
		}
	}, nil
}

// scheduledFetch serves the blocks of sr's single-table schedule, which
// holds every data block of the table, from its spans.
func scheduledFetch(sr *spanReader) sstable.FetchFunc {
	return func(fileNum uint64, hd sstable.Handle, _ *readprof.Profile) ([]byte, *block.Cell, error) {
		i := sort.Search(len(sr.sched), func(i int) bool { return sr.sched[i].H.Offset >= hd.Offset })
		if i == len(sr.sched) || sr.sched[i].H != hd {
			return nil, nil, fmt.Errorf("%w: table %d has no data block at %d", sstable.ErrCorrupt, fileNum, hd.Offset)
		}
		body, err := sr.get(i)
		return body, nil, err
	}
}

// doCompaction runs the reserved job c in three steps: merge its inputs
// into a table sink, whose tables go to the output level's tier under the
// paper's placement rule and are warmed when hot inputs pass their heat on
// (compaction-aware persistent cache); wait for the outputs to land
// (upload); install the result. It fires
// CompactionEnd, and only then releases the version c was picked from, so
// no input is retired before its job's CompactionEnd. Retiring what that
// release leaves obsolete is the caller's (lanes.go), once it has given back
// the job's range and slot.
func (d *engine) doCompaction(c *compaction) (err error) {
	defer func() {
		if err != nil {
			d.unpin(c.v)
		}
	}()
	all := c.files()
	// Measure input heat before anything is dropped: hot inputs mean the
	// output's key range is being read, so its blocks deserve admission.
	var inputHeat int64
	for _, f := range all {
		inputHeat += d.pcache.FileHeat(f.Num)
	}

	// Stage-timing state for CompactionEnd. The fetch-wait accumulator is
	// only wired when a listener is attached, keeping the unobserved path
	// free of per-block clock reads.
	inputBytes := int64(sumSizes(all))
	observed := d.listener != nil
	var readNS *atomic.Int64
	compactStart := time.Now()
	if observed {
		readNS = new(atomic.Int64)
		d.evCompactionBegin(event.CompactionBegin{
			Job: c.job, Shard: d.id, Level: c.level, OutputLevel: c.output,
			Inputs: len(all), InputBytes: inputBytes, Smallest: c.lo, Largest: c.hi,
		})
	}

	sink := d.newTableSink(d.opts.tierForLevel(c.output), d.opts.TargetFileBytes, inputBytes,
		d.opts.CompactionInheritance && inputHeat > 0)
	mergeStart := time.Now()
	dropped, spans, err := d.merge(c, all, sink, readNS)
	mergeDur := time.Since(mergeStart)
	var outputs []*builtTable
	if err == nil {
		// Outputs are durable on their tier before any version names them.
		outputs, err = sink.finish()
	}
	if err != nil {
		sink.abort()
		return err
	}
	installStart := time.Now()
	err = d.install(c, outputs)
	sink.release()
	if err != nil {
		return err // the edit may be durable: its outputs are not orphans
	}

	outBytes := int64(sink.outBytes)
	d.stats.Compactions.Add(1)
	d.stats.CompactBytesIn.Add(inputBytes)
	d.stats.CompactBytesOut.Add(outBytes)
	// Per-level attribution, indexed by source level (the target is always
	// c.level+1): source inputs and target-overlap inputs are recorded
	// separately so the two partitions sum exactly to the store totals.
	lc := &d.stats.LevelCompact[c.level]
	lc.Count.Add(1)
	lc.BytesInSource.Add(int64(sumSizes(c.inputs)))
	lc.BytesInTarget.Add(int64(sumSizes(c.overlap)))
	lc.BytesOut.Add(outBytes)
	dur := time.Since(compactStart)
	d.lat.compact.Record(dur)
	if observed {
		d.evCompactionEnd(event.CompactionEnd{
			Job: c.job, Shard: d.id, Level: c.level, OutputLevel: c.output,
			Inputs: len(all), Outputs: len(outputs), InputBytes: inputBytes, OutputBytes: outBytes,
			DroppedKeys: dropped, PrefetchSpans: spans,
			ReadDur: time.Duration(readNS.Load()), MergeDur: mergeDur, UploadDur: time.Duration(sink.ns.Load()),
			InstallDur: time.Since(installStart), Duration: dur,
		})
	}
	// The edit dropped the inputs from the current version; with this pin
	// gone, the ones no other reader holds are obsolete.
	d.vs.Release(c.v)
	return nil
}

// merge streams c's inputs into sink, dropping the entries no snapshot can
// read, and seals the last output. It returns how many entries it dropped
// and how many span GETs landed; the job hands both to Stats itself, so jobs
// running side by side never report each other's.
func (d *engine) merge(c *compaction, all []*manifest.FileMetadata, sink *tableSink, readNS *atomic.Int64) (dropped, spans int64, err error) {
	var spanGets, blocks atomic.Int64
	children, drain, err := d.openInputs(all, readNS, &spanGets, &blocks)
	if err != nil {
		return 0, 0, err
	}
	merged := newMergingIter(children...)
	defer func() {
		drain() // span GETs in flight land before the job's pin goes
		merged.Close()
		spans = spanGets.Load()
		d.stats.CompactDroppedKeys.Add(dropped)
		d.stats.PrefetchSpans.Add(spans)
		d.stats.PrefetchBlocks.Add(blocks.Load())
	}()

	smallestSnap := d.smallestSnapshot()
	dropDeletes := c.isBaseLevel()
	var lastUkey []byte
	haveUkey := false
	lastKept := keys.MaxSequence // seq of the last kept entry for lastUkey
	for merged.First(); merged.Valid(); merged.Next() {
		ik := merged.Key()
		uk := keys.UserKey(ik)
		seq, kind := keys.DecodeTrailer(ik)
		if !haveUkey || !bytes.Equal(uk, lastUkey) {
			lastUkey = append(lastUkey[:0], uk...)
			haveUkey = true
			lastKept = keys.MaxSequence
		}
		switch {
		case lastKept <= smallestSnap:
			// A newer entry for this key is already visible at every
			// snapshot; this one can never be read.
			dropped++
			continue
		case kind == keys.KindDelete && seq <= smallestSnap && dropDeletes:
			// The tombstone itself is no longer needed once nothing below
			// the output level can resurrect the key.
			dropped++
			lastKept = seq
			continue
		}
		lastKept = seq
		if err := sink.add(ik, merged.Value()); err != nil {
			return dropped, 0, err
		}
	}
	if err := merged.Err(); err != nil {
		return dropped, 0, err
	}
	return dropped, 0, sink.cut()
}

// install applies c's edit — inputs out, outputs in, both levels' views
// spliced — and moves the level's cursor past the inputs, under
// compactionMu: a relocation checks its table is live and installs its own
// edit under it too, so it never resurrects a table this one drops, and the
// version the views are spliced from is the one the edit applies to. The
// outputs' persistent-cache regions then learn their level.
func (d *engine) install(c *compaction, outputs []*builtTable) error {
	edit := &manifest.VersionEdit{}
	for _, f := range c.inputs {
		edit.Deleted = append(edit.Deleted, manifest.DeletedFile{Level: c.level, Num: f.Num})
	}
	for _, f := range c.overlap {
		edit.Deleted = append(edit.Deleted, manifest.DeletedFile{Level: c.output, Num: f.Num})
	}
	for _, t := range outputs {
		edit.Added = append(edit.Added, manifest.AddedFile{Level: c.output, Meta: t.meta})
	}
	d.compactionMu.Lock()
	edit.Views = spliceViews(d.vs.Current(), c, outputs)
	err := d.vs.LogAndApply(edit)
	if err == nil && c.level > 0 {
		if d.compactPtr == nil {
			d.compactPtr = map[int][]byte{}
		}
		d.compactPtr[c.level] = append([]byte(nil),
			keys.UserKey(c.inputs[len(c.inputs)-1].Largest)...)
	}
	d.compactionMu.Unlock()
	if err != nil {
		return err
	}
	for _, t := range outputs {
		d.pcache.SetLevel(t.meta.Num, c.output)
	}
	return nil
}

func sumSizes(files []*manifest.FileMetadata) uint64 {
	var n uint64
	for _, f := range files {
		n += f.Size
	}
	return n
}
