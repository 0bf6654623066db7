package db

import (
	"bytes"

	"rocksmash/internal/keys"
	"rocksmash/internal/manifest"
	"rocksmash/internal/storage"
)

// SizeEstimate breaks a key range's footprint down by tier.
type SizeEstimate struct {
	LocalBytes int64
	CloudBytes int64
}

// Total returns the combined estimate.
func (s SizeEstimate) Total() int64 { return s.LocalBytes + s.CloudBytes }

// ApproximateSize estimates the on-storage bytes used by keys in
// [start, end) (nil = unbounded), split by tier. File contributions are
// prorated linearly within each table's key range — the usual LSM
// estimate: cheap, metadata-only, and accurate to within a file's internal
// skew. The memtable is not included.
func (d *DB) ApproximateSize(start, end []byte) SizeEstimate {
	var est SizeEstimate
	var hiIncl []byte
	if end != nil {
		hiIncl = end // OverlapsRange treats bounds inclusively; close enough for an estimate
	}
	d.allFiles(func(_ *engine, _ int, f *manifest.FileMetadata) {
		if !f.OverlapsRange(start, hiIncl) {
			return
		}
		frac := overlapFraction(
			keys.UserKey(f.Smallest), keys.UserKey(f.Largest), start, end)
		n := int64(float64(f.Size) * frac)
		if f.Tier == storage.TierCloud {
			est.CloudBytes += n
		} else {
			est.LocalBytes += n
		}
	})
	return est
}

// allFiles visits every live table of every engine's current version.
func (d *DB) allFiles(fn func(e *engine, level int, f *manifest.FileMetadata)) {
	for _, e := range d.engines {
		e.vs.Current().AllFiles(func(level int, f *manifest.FileMetadata) { fn(e, level, f) })
	}
}

// overlapFraction estimates what fraction of [lo, hi] falls inside
// [start, end) by comparing 8-byte key prefixes as integers — coarse but
// monotone, which is all an estimate needs.
func overlapFraction(lo, hi, start, end []byte) float64 {
	a, b := keyToFloat(lo), keyToFloat(hi)
	if b <= a {
		return 1 // degenerate (single-key file): count it fully
	}
	s, e := a, b
	if start != nil {
		if v := keyToFloat(start); v > s {
			s = v
		}
	}
	if end != nil {
		if v := keyToFloat(end); v < e {
			e = v
		}
	}
	if e <= s {
		// The range intersects the file's bounds but the coarse prefix
		// projection collapsed; return a small non-zero share.
		return 0.01
	}
	frac := (e - s) / (b - a)
	if frac > 1 {
		frac = 1
	}
	return frac
}

// keyToFloat projects a key's first 8 bytes onto [0, 1).
func keyToFloat(k []byte) float64 {
	var buf [8]byte
	copy(buf[:], k)
	var x uint64
	for _, c := range buf {
		x = x<<8 | uint64(c)
	}
	return float64(x) / float64(^uint64(0))
}

// smallestUserKey returns the store's smallest live user key ("" when
// empty), useful for sizing whole-store ranges.
func (d *DB) smallestUserKey() []byte {
	var lo []byte
	d.allFiles(func(_ *engine, _ int, f *manifest.FileMetadata) {
		uk := keys.UserKey(f.Smallest)
		if lo == nil || bytes.Compare(uk, lo) < 0 {
			lo = uk
		}
	})
	return lo
}
