package db

import (
	"bytes"
	"sort"
	"sync/atomic"
	"time"

	"rocksmash/internal/event"
	"rocksmash/internal/keys"
	"rocksmash/internal/manifest"
	"rocksmash/internal/readprof"
	"rocksmash/internal/sstable"
	"rocksmash/internal/storage"
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
// might read, bounding which old versions compaction may drop.
func (d *engine) smallestSnapshot() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	min := d.lastSeq.Load()
	for seq := range d.snaps {
		if seq < min {
			min = seq
		}
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

// openInputs opens the merge's input tables, one iterator each. A
// local-tier input reads block by block through the scan-resistant ladder.
// A cloud-tier input reads its data blocks, in file order, through a
// spanReader with a private buffer and compactionSpanBytes-wide spans (see
// span.go); the readers of one compaction share a budget of compactionGETs,
// and a block outside a reader's schedule falls back to the ladder. drain
// waits out the span GETs in flight. readNS, when non-nil, accumulates the
// time the merge spends blocked on reads; spans and blocks count the span
// GETs that landed.
func (d *engine) openInputs(files []*manifest.FileMetadata, readNS, spans, blocks *atomic.Int64) (children []internalIterator, drain func(), err error) {
	gets := make(chan struct{}, compactionGETs)
	width := compactionSpanBlocks(d.opts.BlockBytes)
	var readers []*spanReader
	for _, f := range files {
		h, err := d.tables.get(d, f)
		if err != nil {
			for _, ch := range children {
				ch.Close()
			}
			return nil, nil, err
		}
		fetch := d.tables.compactionFetchFor(h)
		if f.Tier == storage.TierCloud {
			hs := h.reader.DataHandles()
			sr := &spanReader{
				sched: make([]sstable.ViewEntry, len(hs)), tables: h, width: width,
				gets: gets, spans: spans, blocks: blocks,
			}
			for i, bh := range hs {
				sr.sched[i].H = bh
			}
			readers = append(readers, sr)
			fetch = scheduledFetch(sr, fetch)
		}
		if readNS != nil {
			fetch = timedFetch(fetch, readNS)
		}
		children = append(children, &tableIter{h: h, it: h.reader.NewIterWithFetch(fetch)})
	}
	return children, func() {
		for _, sr := range readers {
			sr.drain()
		}
	}, nil
}

// scheduledFetch serves the blocks on sr's single-table schedule from its
// spans and any other block through fallback.
func scheduledFetch(sr *spanReader, fallback sstable.FetchFunc) sstable.FetchFunc {
	return func(fileNum uint64, hd sstable.Handle, prof *readprof.Profile) ([]byte, error) {
		i := sort.Search(len(sr.sched), func(i int) bool { return sr.sched[i].H.Offset >= hd.Offset })
		if i == len(sr.sched) || sr.sched[i].H != hd {
			return fallback(fileNum, hd, prof)
		}
		return sr.get(i)
	}
}

// doCompaction runs the reserved job c: it merges c's inputs into the output
// level, applying the paper's placement rule for the output tier and the
// compaction-aware persistent-cache transitions (heat inheritance, whole-file
// drops), installs the result, fires CompactionEnd, and only then releases
// the version c was picked from, so no input is retired before its job's
// CompactionEnd. Retiring what that release leaves obsolete is the caller's
// (lanes.go), once it has given back the job's range and slot.
func (d *engine) doCompaction(c *compaction) (err error) {
	defer func() {
		if err != nil {
			d.unpin(c.v)
		}
	}()
	outTier := d.opts.tierForLevel(c.output)
	smallestSnap := d.smallestSnapshot()
	dropDeletes := c.isBaseLevel()
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

	// The job counts its own drops and spans and hands them to Stats when it
	// ends, so jobs running side by side never report each other's.
	var dropped int64
	var spans, blocks atomic.Int64
	children, drain, err := d.openInputs(all, readNS, &spans, &blocks)
	if err != nil {
		return err
	}
	merged := newMergingIter(children...)
	defer func() {
		drain() // span GETs in flight land before the table references go
		merged.Close()
		d.stats.CompactDroppedKeys.Add(dropped)
		d.stats.PrefetchSpans.Add(spans.Load())
		d.stats.PrefetchBlocks.Add(blocks.Load())
	}()

	// Finished outputs are handed to the upload pool as they complete, so
	// uploads overlap the remaining merge work; wait gathers them before
	// the manifest edit, and abort removes any already-uploaded objects on
	// failure so an aborted compaction leaves no orphans behind.
	warm := d.opts.Policy == PolicyMash && d.opts.CompactionInheritance &&
		outTier == storage.TierCloud && inputHeat > 0
	up := d.newUploader(warm)
	fail := func(err error) error {
		up.abort()
		return err
	}

	// An output holds at most a target's worth of the inputs, plus the tail
	// of its last block and its metadata.
	outSize := min(d.opts.TargetFileBytes, inputBytes)
	var (
		outputs  []*builtTable
		builder  *sstable.Builder
		out      *memWriter
		curNum   uint64
		lastUkey []byte
		haveUkey bool
		lastKept uint64 = keys.MaxSequence // seq of the last kept entry for lastUkey
	)
	finishOutput := func() error {
		if builder == nil {
			return nil
		}
		props, err := builder.Finish()
		if err != nil {
			return err
		}
		if props.NumEntries > 0 {
			t := &builtTable{
				meta: manifest.FileMetadata{
					Num: curNum, Size: uint64(out.buf.Len()),
					Smallest: props.Smallest, Largest: props.Largest,
					MinSeq: props.MinSeq, MaxSeq: props.MaxSeq,
					Tier: outTier,
				},
				metaOff: builder.MetaOffset(),
				data:    out.buf.Bytes(),
			}
			outputs = append(outputs, t)
			up.add(t)
			// Stop merging early if an upload already failed; the work
			// could only produce more outputs to clean up.
			if err := up.peekErr(); err != nil {
				return err
			}
		}
		builder, out = nil, nil
		return nil
	}

	mergeStart := time.Now()
	for merged.First(); merged.Valid(); merged.Next() {
		ik := merged.Key()
		uk := keys.UserKey(ik)
		seq, kind := keys.DecodeTrailer(ik)

		newUserKey := !haveUkey || !bytes.Equal(uk, lastUkey)
		if newUserKey {
			lastUkey = append(lastUkey[:0], uk...)
			haveUkey = true
			lastKept = keys.MaxSequence
		}

		drop := false
		if lastKept <= smallestSnap {
			// A newer entry for this key is already visible at every
			// snapshot; this one can never be read.
			drop = true
		} else if kind == keys.KindDelete && seq <= smallestSnap && dropDeletes {
			// The tombstone itself is no longer needed once nothing below
			// the output level can resurrect the key.
			drop = true
			lastKept = seq
		}
		if drop {
			dropped++
			continue
		}
		lastKept = seq

		// Split outputs only between user keys: all versions of one key
		// must land in one file or the level's non-overlap invariant (and
		// the read path's one-file-per-level assumption) breaks.
		if builder != nil && newUserKey &&
			int64(builder.EstimatedSize()) >= d.opts.TargetFileBytes {
			if err := finishOutput(); err != nil {
				return fail(err)
			}
		}
		if builder == nil {
			curNum = d.vs.NewFileNum()
			out = newTableWriter(outSize + outSize/8)
			builder = sstable.NewBuilder(out, sstable.BuilderOptions{
				BlockBytes:      d.opts.BlockBytes,
				BloomBitsPerKey: d.opts.BloomBitsPerKey,
				Compression:     d.opts.Compression,
			})
		}
		if err := builder.Add(ik, merged.Value()); err != nil {
			return fail(err)
		}
	}
	if err := merged.Err(); err != nil {
		return fail(err)
	}
	if err := finishOutput(); err != nil {
		return fail(err)
	}
	mergeDur := time.Since(mergeStart)
	// Gather in-flight uploads before the manifest edit: outputs must be
	// durable in their tier before any version references them.
	if err := up.wait(); err != nil {
		return fail(err)
	}

	// Install the edit with both levels' spliced views, and move the level's
	// cursor past the inputs, under compactionMu: a relocation checks its
	// table is live and installs its own edit under it too, so it never
	// resurrects a table this one drops, and the version the views are
	// spliced from is the one the edit applies to.
	installStart := time.Now()
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
	err = d.vs.LogAndApply(edit)
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

	d.stats.Compactions.Add(1)
	d.stats.CompactBytesIn.Add(inputBytes)
	d.stats.CompactBytesOut.Add(int64(sumBuilt(outputs)))
	// Per-level attribution, indexed by source level (the target is always
	// c.level+1): source inputs and target-overlap inputs are recorded
	// separately so the two partitions sum exactly to the store totals.
	lc := &d.stats.LevelCompact[c.level]
	lc.Count.Add(1)
	lc.BytesInSource.Add(int64(sumSizes(c.inputs)))
	lc.BytesInTarget.Add(int64(sumSizes(c.overlap)))
	lc.BytesOut.Add(int64(sumBuilt(outputs)))
	dur := time.Since(compactStart)
	d.lat.compact.Record(dur)
	if observed {
		d.evCompactionEnd(event.CompactionEnd{
			Job:           c.job,
			Shard:         d.id,
			Level:         c.level,
			OutputLevel:   c.output,
			Inputs:        len(all),
			Outputs:       len(outputs),
			InputBytes:    inputBytes,
			OutputBytes:   int64(sumBuilt(outputs)),
			DroppedKeys:   dropped,
			PrefetchSpans: spans.Load(),
			ReadDur:       time.Duration(readNS.Load()),
			MergeDur:      mergeDur,
			UploadDur:     up.dur(),
			InstallDur:    time.Since(installStart),
			Duration:      dur,
		})
	}
	// The edit dropped the inputs from the current version; with this pin
	// gone, the ones no other reader holds are obsolete.
	d.vs.Release(c.v)
	return nil
}

func sumSizes(files []*manifest.FileMetadata) uint64 {
	var n uint64
	for _, f := range files {
		n += f.Size
	}
	return n
}

func sumBuilt(ts []*builtTable) uint64 {
	var n uint64
	for _, t := range ts {
		n += t.meta.Size
	}
	return n
}
