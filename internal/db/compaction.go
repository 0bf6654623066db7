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

// compaction describes one unit of compaction work.
type compaction struct {
	level   int // inputs come from this level...
	output  int // ...and merge into this one
	inputs  []*manifest.FileMetadata
	overlap []*manifest.FileMetadata // files at output level
}

// pickCompaction selects the most over-budget level, or nil when the tree
// is within shape.
func (d *engine) pickCompaction() *compaction {
	v := d.vs.Current()
	bestScore := 1.0
	bestLevel := -1

	if s := float64(len(v.Levels[0])) / float64(d.opts.L0CompactTrigger); s >= bestScore {
		bestScore, bestLevel = s, 0
	}
	for l := 1; l < manifest.NumLevels-1; l++ {
		size := v.LevelSize(l)
		if size == 0 {
			continue
		}
		if s := float64(size) / float64(d.opts.levelTargetBytes(l)); s > bestScore {
			bestScore, bestLevel = s, l
		}
	}
	if bestLevel < 0 {
		return nil
	}

	c := &compaction{level: bestLevel, output: bestLevel + 1}
	if bestLevel == 0 {
		// Take every L0 file: they may overlap each other arbitrarily.
		c.inputs = append(c.inputs, v.Levels[0]...)
	} else {
		// Round-robin through the level so every key range gets its turn.
		files := v.Levels[bestLevel]
		ptr := d.compactPtr[bestLevel]
		pick := files[0]
		for _, f := range files {
			if ptr != nil && bytes.Compare(keys.UserKey(f.Largest), ptr) > 0 {
				pick = f
				break
			}
		}
		c.inputs = []*manifest.FileMetadata{pick}
	}

	lo, hi := keyRange(c.inputs)
	c.overlap = v.Overlapping(c.output, lo, hi)
	return c
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

// maybeCompact runs one compaction if any level is over threshold.
// It reports whether work was done. Compactions are serialized: both the
// background loop and CompactAll may call this concurrently.
func (d *engine) maybeCompact() (bool, error) {
	d.compactionMu.Lock()
	defer d.compactionMu.Unlock()
	c := d.pickCompaction()
	if c == nil {
		return false, nil
	}
	if err := d.doCompaction(c); err != nil {
		return false, err
	}
	return true, nil
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

// isBaseLevelForRange reports whether no level deeper than c.output holds
// data overlapping [lo,hi] — if so, tombstones in that range can be
// dropped entirely.
func (d *engine) isBaseLevelForRange(c *compaction, lo, hi []byte) bool {
	v := d.vs.Current()
	for l := c.output + 1; l < manifest.NumLevels; l++ {
		if len(v.Overlapping(l, lo, hi)) > 0 {
			return false
		}
	}
	return true
}

// openInputs opens the merge's input tables, one iterator each. A
// local-tier input reads block by block through the scan-resistant ladder.
// A cloud-tier input reads its data blocks, in file order, through a
// spanReader with a private buffer (see span.go); the readers of one
// compaction share a budget of compactionGETs, and a block outside a
// reader's schedule falls back to the ladder. drain waits out the span GETs
// in flight. readNS, when non-nil, accumulates the time the merge spends
// blocked on reads.
func (d *engine) openInputs(files []*manifest.FileMetadata, readNS *atomic.Int64) (children []internalIterator, drain func(), err error) {
	gets := make(chan struct{}, compactionGETs)
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
			// An unreadable block index will fail the merge too; let the
			// single-block path surface the error.
			if hs, herr := h.reader.DataHandles(); herr == nil {
				sr := &spanReader{
					sched: make([]sstable.ViewEntry, len(hs)), tables: h, gets: gets,
					spans: &d.stats.PrefetchSpans, blocks: &d.stats.PrefetchBlocks,
				}
				for i, bh := range hs {
					sr.sched[i].H = bh
				}
				readers = append(readers, sr)
				fetch = scheduledFetch(sr, fetch)
			}
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

// doCompaction merges c's inputs into the output level, applying the
// paper's placement rule for the output tier and the compaction-aware
// persistent-cache transitions (heat inheritance, whole-file drops).
func (d *engine) doCompaction(c *compaction) error {
	outTier := d.opts.tierForLevel(c.output)
	smallestSnap := d.smallestSnapshot()
	lo, hi := keyRange(append(append([]*manifest.FileMetadata{}, c.inputs...), c.overlap...))
	dropDeletes := d.isBaseLevelForRange(c, lo, hi)

	// Measure input heat before anything is dropped: hot inputs mean the
	// output's key range is being read, so its blocks deserve admission.
	var inputHeat int64
	for _, f := range append(append([]*manifest.FileMetadata{}, c.inputs...), c.overlap...) {
		inputHeat += d.pcache.FileHeat(f.Num)
	}

	// Stage-timing state for CompactionEnd. The fetch-wait accumulator is
	// only wired when a listener is attached, keeping the unobserved path
	// free of per-block clock reads.
	all := append(append([]*manifest.FileMetadata{}, c.inputs...), c.overlap...)
	inputBytes := int64(sumSizes(all))
	observed := d.listener != nil
	var readNS *atomic.Int64
	var droppedBefore, spansBefore int64
	compactStart := time.Now()
	if observed {
		readNS = new(atomic.Int64)
		droppedBefore = d.stats.CompactDroppedKeys.Load()
		spansBefore = d.stats.PrefetchSpans.Load()
		d.evCompactionBegin(event.CompactionBegin{
			Level: c.level, OutputLevel: c.output,
			Inputs: len(all), InputBytes: inputBytes,
		})
	}

	children, drain, err := d.openInputs(all, readNS)
	if err != nil {
		return err
	}
	merged := newMergingIter(children...)
	defer merged.Close()
	// Deferred after merged.Close so it runs first: span GETs in flight must
	// land before the table references are released.
	defer drain()

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
			d.stats.CompactDroppedKeys.Add(1)
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
			out = &memWriter{}
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

	// Install the edit.
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
	if err := d.vs.LogAndApply(edit); err != nil {
		return err
	}
	for _, t := range outputs {
		d.pcache.SetLevel(t.meta.Num, c.output)
	}
	// Both levels' memberships just changed, so their sorted views are
	// stale by fingerprint; drop the cached copies and sidecar objects now
	// rather than waiting for the next scan to notice.
	d.invalidateViews(d.vs.Current(), c.level, c.output)
	if c.level > 0 && len(c.inputs) > 0 {
		if d.compactPtr == nil {
			d.compactPtr = map[int][]byte{}
		}
		d.compactPtr[c.level] = append([]byte(nil),
			keys.UserKey(c.inputs[len(c.inputs)-1].Largest)...)
	}

	// The edit dropped the inputs from the current version; the ones no
	// reader still has pinned are obsolete by now and go here, on this
	// goroutine, before the compaction reports done.
	d.retireObsolete()

	d.stats.Compactions.Add(1)
	d.stats.CompactBytesIn.Add(int64(sumSizes(all)))
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
			Level:         c.level,
			OutputLevel:   c.output,
			Inputs:        len(all),
			Outputs:       len(outputs),
			InputBytes:    inputBytes,
			OutputBytes:   int64(sumBuilt(outputs)),
			DroppedKeys:   d.stats.CompactDroppedKeys.Load() - droppedBefore,
			PrefetchSpans: d.stats.PrefetchSpans.Load() - spansBefore,
			ReadDur:       time.Duration(readNS.Load()),
			MergeDur:      mergeDur,
			UploadDur:     up.dur(),
			InstallDur:    time.Since(installStart),
			Duration:      dur,
		})
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

func sumBuilt(ts []*builtTable) uint64 {
	var n uint64
	for _, t := range ts {
		n += t.meta.Size
	}
	return n
}
