// Package manifest tracks the LSM tree's file-level metadata: which SSTable
// files exist, at which level, on which storage tier, and with what key and
// sequence ranges. All of this metadata lives on the *local* tier (one of
// the paper's placement rules) in a MANIFEST log of versioned edits, with a
// CURRENT pointer naming the live log, mirroring LevelDB/RocksDB.
package manifest

import (
	"bytes"
	"fmt"
	"sync/atomic"

	"rocksmash/internal/keys"
	"rocksmash/internal/storage"
)

// NumLevels is the number of LSM levels.
const NumLevels = 7

// FileMetadata describes one SSTable.
type FileMetadata struct {
	Num      uint64
	Size     uint64
	Smallest []byte // smallest internal key
	Largest  []byte // largest internal key
	MinSeq   uint64
	MaxSeq   uint64
	Tier     storage.Tier // which backend holds the file body

	// PendingCloud marks a table that belongs on the cloud tier but was
	// landed on local storage because the cloud was unreachable (degraded
	// mode). Tier is TierLocal while the flag is set; the background drainer
	// uploads the file and clears the flag via a manifest edit.
	PendingCloud bool

	// Slot is the store's cell for what it keeps on this table while a
	// version names it — the table cache's open reader — so that a read
	// reaches it with one atomic load and no lock. Version.Apply gives every
	// file it adds a cell of its own; the manifest never reads one. A copy of
	// a FileMetadata shares its original's cell, so what is kept there must
	// say which copy of the table it is for. Nil outside a version.
	Slot *atomic.Value
}

// String implements fmt.Stringer for debugging and mashctl dumps.
func (f *FileMetadata) String() string {
	return fmt.Sprintf("#%d(%s, %dB, %q..%q)", f.Num, f.Tier, f.Size,
		keys.UserKey(f.Smallest), keys.UserKey(f.Largest))
}

// ContainsUserKey reports whether ukey falls inside the file's key range.
func (f *FileMetadata) ContainsUserKey(ukey []byte) bool {
	return bytes.Compare(keys.UserKey(f.Smallest), ukey) <= 0 &&
		bytes.Compare(ukey, keys.UserKey(f.Largest)) <= 0
}

// OverlapsRange reports whether the file's user-key range intersects
// [lo, hi]. A nil bound is unbounded.
func (f *FileMetadata) OverlapsRange(lo, hi []byte) bool {
	if hi != nil && bytes.Compare(keys.UserKey(f.Smallest), hi) > 0 {
		return false
	}
	if lo != nil && bytes.Compare(keys.UserKey(f.Largest), lo) < 0 {
		return false
	}
	return true
}

// TableName formats the object name for a table file number.
func TableName(num uint64) string { return fmt.Sprintf("sst/%06d.sst", num) }
