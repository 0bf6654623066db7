// Package readprof defines the request-scoped read-path profile: a small,
// allocation-free context that travels with one Get (or iterator) through
// the read stack — memtables, per-level table probes, bloom filters, and
// the block-fetch hierarchy — recording where the read was served from and
// what it cost. It is the engine's analogue of RocksDB's PerfContext /
// IOStatsContext, specialized for the paper's placement question: which
// tier (block cache, persistent cache, local disk, cloud) produced each
// block, and at which LSM level the key was found.
//
// The package is a leaf: it imports nothing from the engine, so every layer
// of the read stack (db, sstable) can thread a *Profile without import
// cycles. A nil *Profile disables all recording (the fast path); the Timed
// flag additionally gates per-stage clock reads, so unsampled requests pay
// only counter increments.
package readprof

import (
	"fmt"
	"strings"
)

// Tier identifies where a data block was served from, ordered from cheapest
// to most expensive source.
type Tier uint8

// Block-source tiers. NumTiers sizes the per-tier arrays in Profile.
const (
	TierBlockCache Tier = iota // in-memory block cache hit
	TierPCache                 // persistent-cache hit (local disk)
	TierLocal                  // local-tier table file read
	TierCloud                  // cloud GET (single block or readahead span)
	NumTiers       = 4
)

// String names the tier for reports and metric labels.
func (t Tier) String() string {
	switch t {
	case TierBlockCache:
		return "block-cache"
	case TierPCache:
		return "pcache"
	case TierLocal:
		return "local"
	case TierCloud:
		return "cloud"
	default:
		return "unknown"
	}
}

// MaxLevels bounds the LSM levels a Profile can attribute (the level-probe
// bitmask is a byte). It must be >= manifest.NumLevels.
const MaxLevels = 8

// LevelServed sentinels: reads answered above the table stack, or not at
// all. Real level numbers are >= 0.
const (
	// LevelMemtable marks a Get served by a memtable (active, sealed, or
	// WAL-recovered).
	LevelMemtable int8 = -1
	// LevelNone marks a Get that found nothing anywhere (ErrNotFound) or
	// failed before resolving.
	LevelNone int8 = -2
)

// Profile accumulates one request's read-path attribution. The zero value
// is NOT ready to use (LevelServed would read as level 0); obtain one with
// New or call Reset first.
type Profile struct {
	// Timed gates per-stage clock reads: sampled requests time each block
	// fetch and the whole Get, unsampled ones only count.
	Timed bool
	// LevelMask is a bitmask of SST levels probed (bit l = level l had a
	// table whose key range contained the key). The memtable probe is
	// implicit: every Get consults it, so LevelsProbed adds one.
	LevelMask uint8
	// LevelServed is the level that resolved the key (tombstones included),
	// LevelMemtable for memtable hits, or LevelNone.
	LevelServed int8
	// Tables counts table readers consulted (bloom-rejected probes included).
	Tables int32
	// BloomChecked counts bloom filters consulted; BloomNegative counts
	// filters that rejected the key (true negatives, since a matching key
	// can never be rejected).
	BloomChecked  int32
	BloomNegative int32
	// Blocks, Bytes, and FetchNanos break block reads down by source tier.
	// FetchNanos is populated only when Timed.
	Blocks     [NumTiers]int32
	Bytes      [NumTiers]int64
	FetchNanos [NumTiers]int64
	// TotalNanos is the whole request's wall time (populated when Timed).
	TotalNanos int64
}

// New returns a reset Profile.
func New() *Profile {
	p := &Profile{}
	p.Reset()
	return p
}

// Reset clears the profile for reuse.
func (p *Profile) Reset() {
	*p = Profile{LevelServed: LevelNone}
}

// ProbeLevel records that level's tables were consulted for the key.
func (p *Profile) ProbeLevel(level int) {
	if level >= 0 && level < MaxLevels {
		p.LevelMask |= 1 << uint(level)
	}
}

// Probed reports whether level was consulted.
func (p *Profile) Probed(level int) bool {
	return level >= 0 && level < MaxLevels && p.LevelMask&(1<<uint(level)) != 0
}

// LevelsProbed counts distinct levels consulted, including the implicit
// memtable probe — so it is always >= 1 for a completed Get.
func (p *Profile) LevelsProbed() int {
	n := 1 // memtable
	for m := p.LevelMask; m != 0; m &= m - 1 {
		n++
	}
	return n
}

// Block records one block read of n bytes served by tier t. nanos may be 0
// for untimed requests.
func (p *Profile) Block(t Tier, n int, nanos int64) {
	p.Blocks[t]++
	p.Bytes[t] += int64(n)
	p.FetchNanos[t] += nanos
}

// BlocksTotal sums block reads across tiers.
func (p *Profile) BlocksTotal() int {
	var n int32
	for _, b := range p.Blocks {
		n += b
	}
	return int(n)
}

// BytesTotal sums block bytes across tiers.
func (p *Profile) BytesTotal() int64 {
	var n int64
	for _, b := range p.Bytes {
		n += b
	}
	return n
}

// Path renders where the read resolved and which tiers fed it, e.g. "mem",
// "L0:block-cache", "L3:pcache+cloud", "none". It allocates; use it only on
// the reporting path.
func (p *Profile) Path() string {
	var head string
	switch {
	case p.LevelServed == LevelMemtable:
		return "mem"
	case p.LevelServed == LevelNone:
		head = "none"
	default:
		head = fmt.Sprintf("L%d", p.LevelServed)
	}
	var tiers []string
	for t := Tier(0); t < NumTiers; t++ {
		if p.Blocks[t] > 0 {
			tiers = append(tiers, t.String())
		}
	}
	if len(tiers) == 0 {
		return head
	}
	return head + ":" + strings.Join(tiers, "+")
}
