package manifest

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"sync/atomic"

	"rocksmash/internal/keys"
	"rocksmash/internal/sstable"
)

// Version is an immutable snapshot of the tree's file layout. Level 0 files
// may overlap and are ordered newest-first (descending MaxSeq); levels ≥ 1
// are sorted by smallest key and non-overlapping.
type Version struct {
	Levels [NumLevels][]*FileMetadata

	// views[l] is the sorted view of level l ≥ 1: its members are exactly
	// Levels[l], in order. It is derived data and never logged: Apply carries
	// it over from the edit or the parent version, and a level without one
	// gets it from the first scan that needs it (SetView). A share names the
	// same files and so uses the same views: a view built on either serves
	// both.
	views *levelViews

	// Lifetime state of a version a Set installed: how many holders it has
	// (the set itself holds one on the current version), and, guarded by
	// Set.refMu, its neighbours in the set's list of live versions, oldest
	// first, and the closes that wait for it and every older version to die.
	refs       atomic.Int32
	prev, next *Version
	closes     []io.Closer
}

// levelViews holds a version's sorted views, one per level.
type levelViews [NumLevels]atomic.Pointer[sstable.View]

// NewVersion returns an empty version.
func NewVersion() *Version { return &Version{views: new(levelViews)} }

// Clone returns a shallow copy (file metadata is shared, slices are new)
// with no views.
func (v *Version) Clone() *Version {
	nv := NewVersion()
	for i := range v.Levels {
		nv.Levels[i] = append([]*FileMetadata(nil), v.Levels[i]...)
	}
	return nv
}

// share returns a version naming v's very files, with v's views.
func (v *Version) share() *Version {
	return &Version{Levels: v.Levels, views: v.views}
}

// Apply produces a new version with the edit's file changes applied.
func (v *Version) Apply(e *VersionEdit) (*Version, error) {
	nv := v.Clone()
	for _, d := range e.Deleted {
		files := nv.Levels[d.Level]
		idx := -1
		for i, f := range files {
			if f.Num == d.Num {
				idx = i
				break
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("manifest: delete of unknown file %d at L%d", d.Num, d.Level)
		}
		nv.Levels[d.Level] = append(append([]*FileMetadata(nil), files[:idx]...), files[idx+1:]...)
	}
	for _, a := range e.Added {
		m := a.Meta // copy
		m.Slot = new(atomic.Value)
		nv.Levels[a.Level] = append(nv.Levels[a.Level], &m)
	}
	nv.sortLevels()
	if err := nv.checkInvariants(); err != nil {
		return nil, err
	}
	// A view goes only where its members are the level's files: flushes and
	// relocations keep every view, and a view spliced against some other
	// version is dropped, however the edits interleaved.
	for l := 1; l < NumLevels; l++ {
		vw := e.Views[l]
		if vw == nil {
			vw = v.views[l].Load()
		}
		if vw != nil && describes(vw, nv.Levels[l]) {
			nv.views[l].Store(vw)
		}
	}
	return nv, nil
}

// describes reports whether vw's members are files, in order.
func describes(vw *sstable.View, files []*FileMetadata) bool {
	if len(vw.Members) != len(files) {
		return false
	}
	for i, f := range files {
		if vw.Members[i] != f.Num {
			return false
		}
	}
	return true
}

// View returns level's sorted view, or nil when none is installed yet.
func (v *Version) View(level int) *sstable.View { return v.views[level].Load() }

// SetView installs vw, built from v.Levels[level], as level's view unless
// another is already there, and returns the one installed.
func (v *Version) SetView(level int, vw *sstable.View) *sstable.View {
	if v.views[level].CompareAndSwap(nil, vw) {
		return vw
	}
	return v.views[level].Load()
}

func (v *Version) sortLevels() {
	// L0: newest first so reads hit fresh data first.
	sort.Slice(v.Levels[0], func(i, j int) bool {
		return v.Levels[0][i].MaxSeq > v.Levels[0][j].MaxSeq
	})
	for l := 1; l < NumLevels; l++ {
		fs := v.Levels[l]
		sort.Slice(fs, func(i, j int) bool {
			return keys.Compare(fs[i].Smallest, fs[j].Smallest) < 0
		})
	}
}

func (v *Version) checkInvariants() error {
	for l := 1; l < NumLevels; l++ {
		fs := v.Levels[l]
		for i := 1; i < len(fs); i++ {
			if bytes.Compare(keys.UserKey(fs[i].Smallest), keys.UserKey(fs[i-1].Largest)) <= 0 {
				return fmt.Errorf("manifest: overlapping files at L%d: %s then %s", l, fs[i-1], fs[i])
			}
		}
	}
	return nil
}

// FilesFor returns the files that may hold ukey, in the order the read path
// must consult them: all matching L0 files newest-first, then at most one
// file per deeper level.
func (v *Version) FilesFor(ukey []byte, fn func(level int, f *FileMetadata) (stop bool, err error)) error {
	for _, f := range v.Levels[0] {
		if f.ContainsUserKey(ukey) {
			stop, err := fn(0, f)
			if err != nil || stop {
				return err
			}
		}
	}
	for l := 1; l < NumLevels; l++ {
		fs := v.Levels[l]
		i := sort.Search(len(fs), func(i int) bool {
			return bytes.Compare(keys.UserKey(fs[i].Largest), ukey) >= 0
		})
		if i < len(fs) && fs[i].ContainsUserKey(ukey) {
			stop, err := fn(l, fs[i])
			if err != nil || stop {
				return err
			}
		}
	}
	return nil
}

// Overlapping returns the files at level whose user-key ranges intersect
// [lo, hi] (nil = unbounded).
func (v *Version) Overlapping(level int, lo, hi []byte) []*FileMetadata {
	var out []*FileMetadata
	for _, f := range v.Levels[level] {
		if f.OverlapsRange(lo, hi) {
			out = append(out, f)
		}
	}
	return out
}

// LevelSize returns the total byte size of a level.
func (v *Version) LevelSize(level int) uint64 {
	var n uint64
	for _, f := range v.Levels[level] {
		n += f.Size
	}
	return n
}

// NumFiles returns the total number of live files.
func (v *Version) NumFiles() int {
	n := 0
	for l := range v.Levels {
		n += len(v.Levels[l])
	}
	return n
}

// AllFiles calls fn for every live file.
func (v *Version) AllFiles(fn func(level int, f *FileMetadata)) {
	for l := range v.Levels {
		for _, f := range v.Levels[l] {
			fn(l, f)
		}
	}
}

// MaxLevel returns the deepest level that holds any file.
func (v *Version) MaxLevel() int {
	max := 0
	for l := range v.Levels {
		if len(v.Levels[l]) > 0 {
			max = l
		}
	}
	return max
}
