// Package metrics holds the store's snapshot types: Metrics, the one
// point-in-time picture of a store that every reporting surface renders, and
// the structures nested in it. It is a leaf — it imports no engine code — so
// packages the engine itself imports (the vitals sampler, the flight
// detector) can hold and differentiate whole snapshots. Package db fills a
// Metrics and re-exports these types under their old names.
package metrics

import (
	"fmt"
	"io"
	"time"

	"rocksmash/internal/manifest"
	"rocksmash/internal/pcache"
	"rocksmash/internal/readprof"
	"rocksmash/internal/storage"
)

// LatencySummary condenses one latency histogram into the percentiles
// reporting cares about. Durations are zero when Count is zero.
type LatencySummary struct {
	Count int64
	Mean  time.Duration
	P50   time.Duration
	P90   time.Duration
	P99   time.Duration
	Max   time.Duration
}

// String renders the summary on one line.
func (s LatencySummary) String() string {
	if s.Count == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%s p50=%s p90=%s p99=%s max=%s",
		s.Count, s.Mean, s.P50, s.P90, s.P99, s.Max)
}

// ReadAmp summarizes read-path attribution across every profiled request
// (see internal/readprof): where Gets were served, how many tables and
// blocks each one touched, which tier produced the blocks, and how
// effective the bloom filters were. Per-tier arrays are indexed in
// readprof.Tier order (block cache, pcache, local, cloud); iterator reads
// aggregate separately so scans don't skew per-Get amplification.
type ReadAmp struct {
	ProfiledGets int64 // Gets that carried a profile
	TimedGets    int64 // subset with per-stage timings

	MemServes   int64 // resolved by a memtable
	NotFound    int64 // resolved nowhere
	LevelProbes [manifest.NumLevels]int64
	LevelServes [manifest.NumLevels]int64

	Tables        int64
	BloomChecked  int64
	BloomNegative int64

	Blocks     [readprof.NumTiers]int64
	Bytes      [readprof.NumTiers]int64
	FetchNanos [readprof.NumTiers]int64
	TotalNanos int64

	IterSeeks  int64
	IterBlocks [readprof.NumTiers]int64
	IterBytes  [readprof.NumTiers]int64
	IterNanos  [readprof.NumTiers]int64

	// Persistent-cache outcomes by LSM level (see pcache.LevelBucket; the
	// last bucket holds files with no registered level).
	PCacheLevelHits   [pcache.LevelBuckets]int64
	PCacheLevelMisses [pcache.LevelBuckets]int64
}

// TablesPerGet is mean table readers consulted per profiled Get.
func (r ReadAmp) TablesPerGet() float64 {
	if r.ProfiledGets == 0 {
		return 0
	}
	return float64(r.Tables) / float64(r.ProfiledGets)
}

// BlocksPerGet is mean data blocks read per profiled Get.
func (r ReadAmp) BlocksPerGet() float64 {
	if r.ProfiledGets == 0 {
		return 0
	}
	return float64(r.BlocksTotal()) / float64(r.ProfiledGets)
}

// BytesPerGet is mean data-block bytes read per profiled Get.
func (r ReadAmp) BytesPerGet() float64 {
	if r.ProfiledGets == 0 {
		return 0
	}
	return float64(r.BytesTotal()) / float64(r.ProfiledGets)
}

// BloomTrueNegativeRate is the fraction of bloom consultations that
// rejected the probe (saving a block read).
func (r ReadAmp) BloomTrueNegativeRate() float64 {
	if r.BloomChecked == 0 {
		return 0
	}
	return float64(r.BloomNegative) / float64(r.BloomChecked)
}

// BlocksTotal sums Get block reads across tiers.
func (r ReadAmp) BlocksTotal() int64 { return sumTiers(r.Blocks) }

// BytesTotal sums Get block bytes across tiers.
func (r ReadAmp) BytesTotal() int64 { return sumTiers(r.Bytes) }

// IterBlocksTotal sums iterator block reads across tiers.
func (r ReadAmp) IterBlocksTotal() int64 { return sumTiers(r.IterBlocks) }

func sumTiers(perTier [readprof.NumTiers]int64) (n int64) {
	for _, v := range perTier {
		n += v
	}
	return n
}

// HumanBytes renders a byte count with a binary-unit suffix.
func HumanBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2f KB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// Render writes the read-path report: the profiled Gets and where they
// were served, read amplification, bloom effectiveness, serves, probes and
// persistent-cache outcomes per level, blocks and fetch time per tier
// (fetch time from the timed Gets only), and the iterators' block reads.
// DumpStats' "Read Path" section and `mashctl profile -addr` both print it.
func (r ReadAmp) Render(w io.Writer) {
	fmt.Fprintf(w, "Profiled gets: %d (%d timed), served mem %d, not found %d\n",
		r.ProfiledGets, r.TimedGets, r.MemServes, r.NotFound)
	fmt.Fprintf(w, "Read amp: %.2f tables/get, %.2f blocks/get, %s/get\n",
		r.TablesPerGet(), r.BlocksPerGet(), HumanBytes(int64(r.BytesPerGet())))
	if r.BloomChecked > 0 {
		fmt.Fprintf(w, "Bloom: %d checked, %d negative (%.3f true-negative rate)\n",
			r.BloomChecked, r.BloomNegative, r.BloomTrueNegativeRate())
	}
	fmt.Fprintf(w, "%-6s %10s %10s %14s %14s\n", "level", "serves", "probes", "pcache-hit", "pcache-miss")
	for l := range r.LevelServes {
		if r.LevelServes[l] == 0 && r.LevelProbes[l] == 0 &&
			r.PCacheLevelHits[l] == 0 && r.PCacheLevelMisses[l] == 0 {
			continue
		}
		fmt.Fprintf(w, "L%-5d %10d %10d %14d %14d\n",
			l, r.LevelServes[l], r.LevelProbes[l], r.PCacheLevelHits[l], r.PCacheLevelMisses[l])
	}
	if uh, um := r.PCacheLevelHits[pcache.LevelUnknown], r.PCacheLevelMisses[pcache.LevelUnknown]; uh+um > 0 {
		fmt.Fprintf(w, "%-6s %10s %10s %14d %14d\n", "L?", "-", "-", uh, um)
	}
	fmt.Fprintf(w, "%-12s %10s %12s %12s\n", "tier", "blocks", "bytes", "time")
	for t := readprof.Tier(0); t < readprof.NumTiers; t++ {
		if r.Blocks[t] == 0 {
			continue
		}
		fmt.Fprintf(w, "%-12s %10d %12s %12s\n", t, r.Blocks[t], HumanBytes(r.Bytes[t]),
			time.Duration(r.FetchNanos[t]).Round(time.Microsecond))
	}
	if r.IterSeeks > 0 {
		fmt.Fprintf(w, "Iterators: %d seeks", r.IterSeeks)
		for t := readprof.Tier(0); t < readprof.NumTiers; t++ {
			if r.IterBlocks[t] > 0 {
				fmt.Fprintf(w, ", %s %d blocks (%s)", t, r.IterBlocks[t], HumanBytes(r.IterBytes[t]))
			}
		}
		fmt.Fprintln(w)
	}
}

// LevelWriteAmp attributes compaction traffic to one source→target level
// pair (Target is always Level+1). WriteAmp is the level's classic
// amplification ratio: bytes written to the target per source byte moved.
type LevelWriteAmp struct {
	Level         int   `json:"level"`
	Target        int   `json:"target"`
	Count         int64 `json:"count"`
	BytesInSource int64 `json:"bytes_in_source"`
	BytesInTarget int64 `json:"bytes_in_target"`
	BytesOut      int64 `json:"bytes_out"`
	// Disjoint counts the one-input jobs that overlapped nothing at the
	// target level, and DisjointBytes their input bytes.
	Disjoint      int64 `json:"disjoint"`
	DisjointBytes int64 `json:"disjoint_bytes"`
}

// WriteAmp is the level's write amplification: bytes written per source
// byte compacted away (0 before any compaction at this level).
func (l LevelWriteAmp) WriteAmp() float64 {
	if l.BytesInSource == 0 {
		return 0
	}
	return float64(l.BytesOut) / float64(l.BytesInSource)
}

// Metrics is a point-in-time summary for reporting.
type Metrics struct {
	Policy      string
	LastSeq     uint64
	LevelFiles  []int
	LevelBytes  []uint64
	LocalBytes  int64
	CloudBytes  int64
	MetaBytes   int64 // pinned table metadata (index+filter), all local
	PCacheMeta  int64
	PCacheUsed  int64
	PCacheHit   float64
	BlockHit    float64
	LocalIO     storage.Snapshot
	CloudIO     storage.Snapshot
	CloudCost   storage.CostReport
	Flushes     int64
	Compactions int64
	// CompactionsRunning is how many compaction jobs are running, store-wide
	// (at most the store's compaction slots).
	CompactionsRunning int64
	// WriteStalls counts writers held back for either cause (memtable full
	// behind a flush, or L0 at its file limit); WriteStallsL0 the second
	// cause alone.
	WriteStalls   int64
	WriteStallsL0 int64

	// Engine activity counters.
	Reads              int64
	Writes             int64
	BytesWritten       int64
	CommitGroups       int64
	CommitGroupBatches int64
	WALSyncsAmortized  int64
	FlushBytes         int64
	UploadRetries      int64
	ReadRetries        int64
	CompactBytesIn     int64
	CompactBytesOut    int64
	CompactDroppedKeys int64
	// CompactionsDisjoint and CompactDisjointBytes sum LevelWriteAmp's
	// Disjoint and DisjointBytes over the levels.
	CompactionsDisjoint  int64
	CompactDisjointBytes int64

	PrefetchSpans   int64
	PrefetchBlocks  int64
	ReadaheadSpans  int64
	ReadaheadBlocks int64

	// Sorted-view accounting (see Stats for the counter semantics).
	ScanViewHits   int64
	ScanViewMisses int64
	IterKeys       int64

	// Per-source-level compaction attribution (always manifest.NumLevels
	// entries; see LevelWriteAmp), plus the derived health gauges:
	// CompactionDebt estimates the bytes the compactor must move to bring
	// every level back under its target; SpaceAmp is total table bytes
	// over the deepest non-empty level's bytes (1.0 = no duplication).
	LevelWriteAmp  []LevelWriteAmp
	CompactionDebt int64
	SpaceAmp       float64

	// Raw cache outcome counts (the ratios above are cumulative; counts
	// let consumers window them over time).
	BlockCacheHits   int64
	BlockCacheMisses int64
	PCacheHits       int64
	PCacheMisses     int64
	// PCacheDoorDeclined counts blocks the block cache demoted that the
	// persistent cache's frequency door turned away.
	PCacheDoorDeclined int64
	// TablesClosing is how many evicted table readers stay open for a
	// reader's version pin, and TablesOpenPeak the most readers open at once,
	// cached and closing.
	TablesClosing  int64
	TablesOpenPeak int64

	// Robustness state: the cloud circuit breaker's position and history,
	// and the degraded-mode backlog of tables awaiting upload.
	BreakerState        string
	BreakerTrips        int64
	BreakerHalfOpens    int64
	DegradedDur         time.Duration
	DegradedTables      int64
	DrainedTables       int64
	DeferredDeletes     int64
	CompactionsDeferred int64
	PendingTables       int
	PendingBytes        int64
	// ObsoleteTables / ObsoleteBytes are the tables a version edit has
	// retired that a reader's pin on an older version still holds in place
	// (they are in no level and in neither tier's bytes above): space a
	// finished reader gives back, and a leaked iterator keeps growing.
	// DeferredDeletes counts deletions that failed and await retry, not these.
	ObsoleteTables int
	ObsoleteBytes  int64

	// Local-tier robustness state (the self-healing layer): the local
	// breaker's position and history, cloud-direct landings and drain-backs,
	// corruption scrub/repair reconciliation, quarantined tables, mirror
	// uploads, pcache CRC misses, and WAL segment spill/restore counts.
	LocalBreakerState     string
	LocalBreakerTrips     int64
	LocalBreakerHalfOpens int64
	LocalDegradedDur      time.Duration
	LocalDegradedTables   int64
	LocalDrainedBack      int64
	MisplacedTables       int // cloud-landed tables awaiting drain-back to local
	CorruptionsDetected   int64
	CorruptionsRepaired   int64
	CorruptionsUnrepaired int64
	QuarantinedTables     int
	ScrubPasses           int64
	MirroredTables        int64
	PCacheCorruptReads    int64
	WALSpills             int64
	WALRestored           int64

	// Flight-recorder state: detector fires, cooldown-suppressed re-triggers, postmortem bundle
	// outcomes, and the rule IDs active at snapshot time.
	IncidentsTriggered  int64
	IncidentsSuppressed int64
	BundlesWritten      int64
	BundleErrors        int64
	ActiveIncidents     []string

	// Read-path attribution (per-level serves, per-tier blocks, bloom
	// effectiveness).
	ReadAmp ReadAmp

	// Per-operation latency distributions (engine-side).
	GetLat     LatencySummary
	PutLat     LatencySummary
	FlushLat   LatencySummary
	CompactLat LatencySummary
	// Per-tier storage request latency (GET = read request, PUT = whole
	// object creation), recorded by the instrumented backends.
	LocalGetLat LatencySummary
	LocalPutLat LatencySummary
	CloudGetLat LatencySummary
	CloudPutLat LatencySummary

	// Shards carries per-shard attribution in a sharded store (one entry
	// per keyspace shard, in shard order); empty when Shards <= 1.
	Shards []ShardSummary
}

// OpLatency is one of the snapshot's latency distributions, named.
type OpLatency struct {
	Op, Help string
	Summary  LatencySummary
}

// Latencies names the snapshot's latency distributions once, in the order
// reports print them: DumpStats' rows and the /metrics summary families
// (rocksmash_<op>_latency_seconds, dots as underscores) both come from it.
func (m Metrics) Latencies() []OpLatency {
	return []OpLatency{
		{"get", "Point-lookup latency quantiles.", m.GetLat},
		{"put", "Commit latency quantiles (includes stall time).", m.PutLat},
		{"flush", "Memtable flush latency quantiles.", m.FlushLat},
		{"compact", "Compaction latency quantiles.", m.CompactLat},
		{"local.get", "Local-tier GET latency quantiles.", m.LocalGetLat},
		{"local.put", "Local-tier PUT latency quantiles.", m.LocalPutLat},
		{"cloud.get", "Cloud GET latency quantiles.", m.CloudGetLat},
		{"cloud.put", "Cloud PUT latency quantiles.", m.CloudPutLat},
	}
}

// ShardSummary attributes engine activity to one keyspace shard.
type ShardSummary struct {
	Shard       int
	LastSeq     uint64
	Writes      int64
	Reads       int64
	Flushes     int64
	Compactions int64
	WriteStalls int64
	// Files/Bytes describe the shard's live table footprint across levels;
	// PendingTables is its degraded-mode upload backlog.
	Files         int
	Bytes         int64
	PendingTables int
	// Persistent-cache outcomes for blocks of this shard's files (from the
	// shared cache's per-shard buckets; zero for shard indexes past the
	// bucket range).
	PCacheHits   int64
	PCacheMisses int64
}

// Ops is the shard's operation count, the unit shard balance is judged in.
func (s ShardSummary) Ops() int64 { return s.Writes + s.Reads }

// Add accumulates o into r. Per-level persistent-cache outcomes are not
// summed: they come from the shared cache and are filled in once by the
// caller.
func (r *ReadAmp) Add(o ReadAmp) {
	r.ProfiledGets += o.ProfiledGets
	r.TimedGets += o.TimedGets
	r.MemServes += o.MemServes
	r.NotFound += o.NotFound
	for i := range r.LevelProbes {
		r.LevelProbes[i] += o.LevelProbes[i]
		r.LevelServes[i] += o.LevelServes[i]
	}
	r.Tables += o.Tables
	r.BloomChecked += o.BloomChecked
	r.BloomNegative += o.BloomNegative
	for i := range r.Blocks {
		r.Blocks[i] += o.Blocks[i]
		r.Bytes[i] += o.Bytes[i]
		r.FetchNanos[i] += o.FetchNanos[i]
		r.IterBlocks[i] += o.IterBlocks[i]
		r.IterBytes[i] += o.IterBytes[i]
		r.IterNanos[i] += o.IterNanos[i]
	}
	r.TotalNanos += o.TotalNanos
	r.IterSeeks += o.IterSeeks
}

// WriteAmp is the store's exact cumulative write amplification: physical
// table bytes written (flush outputs plus compaction outputs) per user
// byte committed. Returns 0 before any user write.
func (m Metrics) WriteAmp() float64 {
	if m.BytesWritten == 0 {
		return 0
	}
	return float64(m.FlushBytes+m.CompactBytesOut) / float64(m.BytesWritten)
}
