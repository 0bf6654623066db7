package manifest

// Version lifetime: the one rule for "a table a reader may still open must
// still exist".
//
//   - Whoever opens tables named by a version holds a reference on it, from
//     Acquire until Release, for exactly as long as it may open them. The set
//     holds one reference itself, on the current version.
//   - A version is live while it has references. A *FileMetadata is obsolete
//     once the last live version naming that pointer is released — never
//     before, so a holder's tables stay where its metadata says they are. A
//     relocation re-adds its table as a new FileMetadata on the other tier, so
//     the copy on the old tier falls out of pointer identity: it is obsolete
//     when the last version naming the old FileMetadata goes.
//   - The set reports obsolete files, once each, through the callback
//     installed with OnObsolete; deleting them is the callback owner's job.
//
// A reference pins nothing but the version's tables: a snapshot is a sequence
// number and holds no version, so a long-lived snapshot keeps no garbage.

// Obsolete is one table that no live version names any more.
type Obsolete struct {
	File *FileMetadata
	// Moved reports that a live version still names table File.Num, through
	// another FileMetadata: a relocation re-added the table on the other
	// tier, so only the copy on File.Tier is obsolete — the table lives on.
	Moved bool
}

// OnObsolete installs the function that receives obsolete files. It is
// called once, right after Open and before any edit or Acquire. fn runs on
// the goroutine whose LogAndApply or Release retired the last version naming
// the files, with no lock of the set held; it must not block.
func (s *Set) OnObsolete(fn func([]Obsolete)) { s.onObsolete = fn }

// Acquire returns the current version with a reference on it. The version's
// tables stay in place until the matching Release. It takes no lock: every
// Get comes through here, and the cost is one compare-and-swap on the
// version's count.
func (s *Set) Acquire() *Version {
	for {
		v := s.current.Load()
		// A count that has reached zero never rises again: such a version was
		// current when loaded and has been replaced and released since, so
		// the next load finds its successor.
		if n := v.refs.Load(); n > 0 && v.refs.CompareAndSwap(n, n+1) {
			return v
		}
	}
}

// Release drops a reference taken with Acquire. It reports whether that made
// tables obsolete (the callback has them by then), so a caller that must not
// delete anything itself knows to wake whoever does.
func (s *Set) Release(v *Version) bool {
	return s.reportObsolete(s.unref(v))
}

// Current returns the live version without a reference: for reading metadata
// (sizes, counts, placement, compaction picking). Never open a table from
// it — its tables may be deleted at any moment; Acquire a version for that.
// (A compaction opens the inputs it picked from Current under the lock that
// every retirement of a current table takes, which is as good as a pin.)
func (s *Set) Current() *Version { return s.current.Load() }

// install makes nv the current version, moving the set's own reference to it
// from its predecessor, and returns the predecessor's death if that was its
// last. The caller holds mu and reports the death once it has let go of it.
func (s *Set) install(nv *Version) death {
	old := s.current.Load()
	nv.refs.Store(1)
	s.refMu.Lock()
	nv.prev, old.next = old, nv
	s.refMu.Unlock()
	// Linked before it can be acquired, so every referenced version is on the
	// list; and old has its successor before it can lose the set's reference.
	s.current.Store(nv)
	return s.unref(old)
}

// death is a version that lost its last reference, with the neighbours it
// had in the list of live versions when it left. The zero death is none.
type death struct{ v, prev, next *Version }

// unref drops one reference on v; when it was the last, v leaves the list of
// live versions. The current version never dies here (the set's own reference
// moves off it only after a successor is linked), so a death's next is never
// nil. A neighbour may itself be at zero and waiting for refMu to leave: it
// still counts as naming its files here, and reports them when its turn
// comes — departures are serialized, so of the versions naming a file exactly
// one, the last to leave, finds neither neighbour naming it.
func (s *Set) unref(v *Version) death {
	n := v.refs.Add(-1)
	if n > 0 {
		return death{}
	}
	if n < 0 {
		panic("manifest: version released more often than acquired")
	}
	s.refMu.Lock()
	d := death{v: v, prev: v.prev, next: v.next}
	if d.prev != nil {
		d.prev.next = d.next
	}
	d.next.prev = d.prev
	v.prev, v.next = nil, nil
	s.refMu.Unlock()
	return d
}

// reportObsolete hands the callback the files of a dead version that no live
// version names any more, and reports whether there were any. A file lives in
// a contiguous run of versions (added by one edit, dropped by one), so if any
// live version names one of the dead version's files, one of its live
// neighbours does: only those two need checking. Versions are immutable, so
// this runs with no lock held.
func (s *Set) reportObsolete(d death) bool {
	if d.v == nil || s.onObsolete == nil {
		return false
	}
	held := map[*FileMetadata]struct{}{}
	hold := func(_ int, f *FileMetadata) { held[f] = struct{}{} }
	if d.prev != nil {
		d.prev.AllFiles(hold)
	}
	d.next.AllFiles(hold)
	var out []Obsolete
	d.v.AllFiles(func(level int, f *FileMetadata) {
		if _, ok := held[f]; !ok {
			out = append(out, Obsolete{File: f,
				Moved: d.prev.hasNum(level, f.Num) || d.next.hasNum(level, f.Num)})
		}
	})
	if len(out) == 0 {
		return false
	}
	s.onObsolete(out)
	return true
}

// hasNum reports whether v (nil = no version) names table num at level.
func (v *Version) hasNum(level int, num uint64) bool {
	if v == nil {
		return false
	}
	for _, f := range v.Levels[level] {
		if f.Num == num {
			return true
		}
	}
	return false
}

// Pinned returns the tables (and their bytes) that an edit has dropped from
// the current version but a reference on an older one still holds: garbage
// waiting for a reader to finish.
func (s *Set) Pinned() (tables int, bytes uint64) {
	s.refMu.Lock()
	cur := s.current.Load()
	var older []*Version
	for v := cur.prev; v != nil; v = v.prev {
		older = append(older, v)
	}
	s.refMu.Unlock()
	if len(older) == 0 {
		return 0, 0
	}
	seen := map[*FileMetadata]struct{}{}
	cur.AllFiles(func(_ int, f *FileMetadata) { seen[f] = struct{}{} })
	for _, v := range older {
		v.AllFiles(func(_ int, f *FileMetadata) {
			if _, ok := seen[f]; !ok {
				seen[f] = struct{}{}
				tables++
				bytes += f.Size
			}
		})
	}
	return tables, bytes
}
