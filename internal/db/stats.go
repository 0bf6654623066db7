package db

import (
	"fmt"
	"sync/atomic"
	"time"

	"rocksmash/internal/histogram"
	"rocksmash/internal/manifest"
	"rocksmash/internal/pcache"
	"rocksmash/internal/readprof"
	"rocksmash/internal/storage"
)

// Stats aggregates one engine's activity counters. Breaker and flight-
// recorder histories are the store's and live on the DB facade.
type Stats struct {
	Writes       atomic.Int64
	Reads        atomic.Int64
	BytesWritten atomic.Int64
	WriteStalls  atomic.Int64

	// Commit-pipeline counters: groups led, batches carried by those groups
	// (batches/groups = mean group size), and fsyncs amortized away by group
	// commit (group size minus one per synced group; 0 unless WALSync).
	CommitGroups       atomic.Int64
	CommitGroupBatches atomic.Int64
	WALSyncsAmortized  atomic.Int64

	Flushes    atomic.Int64
	FlushBytes atomic.Int64

	UploadRetries       atomic.Int64
	ReadRetries         atomic.Int64
	DegradedTables      atomic.Int64 // tables landed locally during outages
	DrainedTables       atomic.Int64 // pending tables migrated to cloud
	DeferredDeletes     atomic.Int64 // object deletions queued for retry
	CompactionsDeferred atomic.Int64 // compactions postponed by an open breaker

	// Local-tier fault-tolerance counters (the self-healing layer): tables
	// landed cloud-direct while the local tier was degraded and later
	// migrated back, corruption scrub/repair outcomes, and lazy mirror
	// uploads of local-level tables.
	LocalDegradedTables   atomic.Int64 // tables landed cloud-direct during local degradation
	LocalDrainedBack      atomic.Int64 // misplaced tables migrated back to local
	CorruptionsDetected   atomic.Int64 // checksum failures classified on local artifacts
	CorruptionsRepaired   atomic.Int64 // artifacts re-materialized from a cloud source
	CorruptionsUnrepaired atomic.Int64 // damage with no clean source (quarantined)
	ScrubPasses           atomic.Int64 // completed scrub walks
	MirroredTables        atomic.Int64 // local-level tables lazily copied to cloud
	Compactions           atomic.Int64
	CompactBytesIn        atomic.Int64
	CompactBytesOut       atomic.Int64
	CompactDroppedKeys    atomic.Int64

	// Cloud span reads (span.go): range GETs that landed and the blocks they
	// carried — Prefetch* for compaction inputs, Readahead* for view scans.
	PrefetchSpans   atomic.Int64
	PrefetchBlocks  atomic.Int64
	ReadaheadSpans  atomic.Int64
	ReadaheadBlocks atomic.Int64

	// Sorted-view counters: per-level iterators constructed on a valid view
	// vs falling back to the per-table merge, background view builds and
	// their encoded bytes, and live keys yielded by iterators (the
	// denominator of blocks-per-scanned-key).
	ScanViewHits   atomic.Int64
	ScanViewMisses atomic.Int64
	ViewBuilds     atomic.Int64
	ViewBuildBytes atomic.Int64
	IterKeys       atomic.Int64

	// LevelCompact attributes compaction traffic to its source level: every
	// compaction moves level → level+1, so indexing by the source level
	// captures the full source→target pair. The per-level counters
	// partition the store totals exactly: Σ(BytesInSource+BytesInTarget)
	// == CompactBytesIn and Σ BytesOut == CompactBytesOut.
	LevelCompact [manifest.NumLevels]LevelCompactCounters
}

// LevelCompactCounters are the raw per-source-level compaction counters.
type LevelCompactCounters struct {
	Count         atomic.Int64 // compactions picked at this source level
	BytesInSource atomic.Int64 // bytes read from the source level's inputs
	BytesInTarget atomic.Int64 // bytes read from overlapping target files
	BytesOut      atomic.Int64 // bytes written to the target level
}

// RecoveryReport describes what the last Open had to do to recover.
type RecoveryReport struct {
	WALSegments   int
	WALSkipped    int
	WALRecords    int64
	WALBytes      int64
	RecoveredKeys int64
	Parallelism   int
	Duration      time.Duration
}

// String renders the report.
func (r RecoveryReport) String() string {
	return fmt.Sprintf("recovery{segments=%d skipped=%d records=%d bytes=%d keys=%d par=%d dur=%s}",
		r.WALSegments, r.WALSkipped, r.WALRecords, r.WALBytes, r.RecoveredKeys, r.Parallelism, r.Duration)
}

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

// summarize extracts a LatencySummary from a histogram.
func summarize(h *histogram.H) LatencySummary {
	return LatencySummary{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Percentile(50),
		P90:   h.Percentile(90),
		P99:   h.Percentile(99),
		Max:   h.Max(),
	}
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
	// Per-level sorted-view outcomes during iterator construction: levels
	// served by a view cursor run vs levels that fell back to the
	// per-table merge (view missing or still building).
	IterViewHits   int64
	IterViewMisses int64

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
func (r ReadAmp) BlocksTotal() int64 {
	var n int64
	for _, b := range r.Blocks {
		n += b
	}
	return n
}

// BytesTotal sums Get block bytes across tiers.
func (r ReadAmp) BytesTotal() int64 {
	var n int64
	for _, b := range r.Bytes {
		n += b
	}
	return n
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
	WriteStalls int64

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

	PrefetchSpans   int64
	PrefetchBlocks  int64
	ReadaheadSpans  int64
	ReadaheadBlocks int64

	// Sorted-view accounting (see Stats for the counter semantics).
	ScanViewHits   int64
	ScanViewMisses int64
	ViewBuilds     int64
	ViewBuildBytes int64
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

	// Flight-recorder state (zero when Options.FlightRecorder is off):
	// detector fires, cooldown-suppressed re-triggers, postmortem bundle
	// outcomes, and the rule IDs active at snapshot time.
	IncidentsTriggered  int64
	IncidentsSuppressed int64
	BundlesWritten      int64
	BundleErrors        int64
	ActiveIncidents     []string

	// Read-path attribution (per-level serves, per-tier blocks, bloom
	// effectiveness); zero-valued when ReadProfileSampleRate is negative.
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

// add accumulates o into r. Per-level persistent-cache outcomes are not
// summed: they come from the shared cache and are filled in once by the
// caller.
func (r *ReadAmp) add(o ReadAmp) {
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
	r.IterViewHits += o.IterViewHits
	r.IterViewMisses += o.IterViewMisses
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

// compactionDebt estimates the bytes compaction must move to bring the
// tree back to its shape invariants: all of L0 once it reaches the
// compaction trigger, plus each deeper level's overage past its size
// target.
func (d *engine) compactionDebt(v *manifest.Version) int64 {
	var debt int64
	if len(v.Levels[0]) >= d.opts.L0CompactTrigger {
		debt += int64(v.LevelSize(0))
	}
	for l := 1; l < manifest.NumLevels-1; l++ {
		if over := int64(v.LevelSize(l)) - d.opts.levelTargetBytes(l); over > 0 {
			debt += over
		}
	}
	return debt
}

// spaceAmpOf estimates space amplification from a level-bytes profile:
// total table bytes over the deepest non-empty level's bytes. The deepest
// level approximates the dataset's true size (everything above it is
// yet-to-merge duplication), so 1.0 means no duplication. Returns 0 for
// an empty tree.
func spaceAmpOf(levelBytes []uint64) float64 {
	var total, deepest uint64
	for _, b := range levelBytes {
		total += b
		if b > 0 {
			deepest = b
		}
	}
	if deepest == 0 {
		return 0
	}
	return float64(total) / float64(deepest)
}

// Metrics gathers a summary snapshot: engine counters sum across engines,
// facade-owned figures (caches, latencies, breakers, device I/O, flight
// recorder) are read once, and with more than one engine Metrics.Shards
// carries the per-engine attribution.
func (d *DB) Metrics() Metrics {
	pcs := d.pcache.Stats()
	m := Metrics{
		Policy:     d.opts.Policy.String(),
		LastSeq:    d.ackedSeq(),
		MetaBytes:  d.tables.metadataBytes(),
		PCacheMeta: d.pcache.MetadataBytes(),
		PCacheUsed: d.pcache.UsedBytes(),
		PCacheHit:  pcs.HitRatio(),
		BlockHit:   d.blockCache.HitRatio(),
		// Every wrapper delegates Stats to the device underneath, so the
		// facade's undecorated backends report all engines' I/O.
		LocalIO: d.local.Stats().Snapshot(),

		LevelFiles:    make([]int, manifest.NumLevels),
		LevelBytes:    make([]uint64, manifest.NumLevels),
		LevelWriteAmp: make([]LevelWriteAmp, manifest.NumLevels),

		PCacheHits:         pcs.Hits.Load(),
		PCacheMisses:       pcs.Misses.Load(),
		PCacheCorruptReads: pcs.CorruptReads.Load(),

		BreakerTrips:          d.cloudTrips.trips.Load(),
		BreakerHalfOpens:      d.cloudTrips.halfOpens.Load(),
		LocalBreakerTrips:     d.localTrips.trips.Load(),
		LocalBreakerHalfOpens: d.localTrips.halfOpens.Load(),
		LocalBreakerState:     d.localBreaker.State().String(),
		LocalDegradedDur:      d.localBreaker.DegradedDur(),

		GetLat:      summarize(d.lat.get),
		PutLat:      summarize(d.lat.put),
		FlushLat:    summarize(d.lat.flush),
		CompactLat:  summarize(d.lat.compact),
		LocalGetLat: summarize(d.lat.localGet),
		LocalPutLat: summarize(d.lat.localPut),
		CloudGetLat: summarize(d.lat.cloudGet),
		CloudPutLat: summarize(d.lat.cloudPut),
	}
	m.BlockCacheHits, m.BlockCacheMisses = d.blockCache.Counters()
	if d.breaker != nil {
		m.BreakerState = d.breaker.State().String()
		m.DegradedDur = d.breaker.DegradedDur()
	}
	if d.cloud != nil {
		m.CloudIO = d.cloud.Stats().Snapshot()
	}
	if d.cloudSim != nil {
		m.CloudCost = d.cloudSim.CostReport()
	}
	if d.pcacheIndexHealed {
		m.CorruptionsDetected++
		m.CorruptionsRepaired++
	}
	d.fillFlightMetrics(&m)
	for l := range m.LevelWriteAmp {
		m.LevelWriteAmp[l] = LevelWriteAmp{Level: l, Target: l + 1}
	}
	if len(d.engines) > 1 {
		m.Shards = make([]ShardSummary, len(d.engines))
	}

	for i, e := range d.engines {
		st := &e.stats
		s := ShardSummary{
			Shard:       i,
			LastSeq:     e.lastSeq.Load(),
			Writes:      st.Writes.Load(),
			Reads:       st.Reads.Load(),
			Flushes:     st.Flushes.Load(),
			Compactions: st.Compactions.Load(),
			WriteStalls: st.WriteStalls.Load(),
		}
		v := e.vs.Current()
		for l := range v.Levels {
			m.LevelFiles[l] += len(v.Levels[l])
			m.LevelBytes[l] += v.LevelSize(l)
		}
		obsTables, obsBytes := e.vs.Pinned()
		m.ObsoleteTables += obsTables
		m.ObsoleteBytes += int64(obsBytes)
		v.AllFiles(func(level int, f *manifest.FileMetadata) {
			s.Files++
			s.Bytes += int64(f.Size)
			if f.Tier == storage.TierCloud {
				m.CloudBytes += int64(f.Size)
			} else {
				m.LocalBytes += int64(f.Size)
			}
			if f.PendingCloud {
				s.PendingTables++
				m.PendingTables++
				m.PendingBytes += int64(f.Size)
			}
			if home, ok := e.offHome(level, f); ok && home == storage.TierLocal {
				m.MisplacedTables++
			}
		})
		if i < pcache.ShardBuckets-1 {
			s.PCacheHits = pcs.ShardHits[i].Load()
			s.PCacheMisses = pcs.ShardMisses[i].Load()
		}

		m.Flushes += s.Flushes
		m.Compactions += s.Compactions
		m.WriteStalls += s.WriteStalls
		m.Reads += s.Reads
		m.Writes += s.Writes
		m.BytesWritten += st.BytesWritten.Load()
		m.CommitGroups += st.CommitGroups.Load()
		m.CommitGroupBatches += st.CommitGroupBatches.Load()
		m.WALSyncsAmortized += st.WALSyncsAmortized.Load()
		m.FlushBytes += st.FlushBytes.Load()
		m.UploadRetries += st.UploadRetries.Load()
		m.ReadRetries += st.ReadRetries.Load()
		m.CompactBytesIn += st.CompactBytesIn.Load()
		m.CompactBytesOut += st.CompactBytesOut.Load()
		m.CompactDroppedKeys += st.CompactDroppedKeys.Load()
		m.PrefetchSpans += st.PrefetchSpans.Load()
		m.PrefetchBlocks += st.PrefetchBlocks.Load()
		m.ReadaheadSpans += st.ReadaheadSpans.Load()
		m.ReadaheadBlocks += st.ReadaheadBlocks.Load()
		m.ScanViewHits += st.ScanViewHits.Load()
		m.ScanViewMisses += st.ScanViewMisses.Load()
		m.ViewBuilds += st.ViewBuilds.Load()
		m.ViewBuildBytes += st.ViewBuildBytes.Load()
		m.IterKeys += st.IterKeys.Load()
		m.DegradedTables += st.DegradedTables.Load()
		m.DrainedTables += st.DrainedTables.Load()
		m.DeferredDeletes += st.DeferredDeletes.Load()
		m.CompactionsDeferred += st.CompactionsDeferred.Load()
		m.LocalDegradedTables += st.LocalDegradedTables.Load()
		m.LocalDrainedBack += st.LocalDrainedBack.Load()
		m.CorruptionsDetected += st.CorruptionsDetected.Load()
		m.CorruptionsRepaired += st.CorruptionsRepaired.Load()
		m.CorruptionsUnrepaired += st.CorruptionsUnrepaired.Load()
		m.ScrubPasses += st.ScrubPasses.Load()
		m.MirroredTables += st.MirroredTables.Load()
		m.QuarantinedTables += e.quarantinedCount()
		m.WALSpills += e.wal.Spills()
		m.WALRestored += e.wal.Restored()

		// Per-level compaction attribution and debt sum across engines:
		// each compacts its own tree, so the store-wide level picture is
		// the union.
		for l := range st.LevelCompact {
			lc := &st.LevelCompact[l]
			m.LevelWriteAmp[l].Count += lc.Count.Load()
			m.LevelWriteAmp[l].BytesInSource += lc.BytesInSource.Load()
			m.LevelWriteAmp[l].BytesInTarget += lc.BytesInTarget.Load()
			m.LevelWriteAmp[l].BytesOut += lc.BytesOut.Load()
		}
		m.CompactionDebt += e.compactionDebt(v)

		m.ReadAmp.add(e.readAgg.snapshot())
		if m.Shards != nil {
			m.Shards[i] = s
		}
	}
	m.SpaceAmp = spaceAmpOf(m.LevelBytes)
	for b := 0; b < pcache.LevelBuckets; b++ {
		m.ReadAmp.PCacheLevelHits[b] = pcs.LevelHits[b].Load()
		m.ReadAmp.PCacheLevelMisses[b] = pcs.LevelMisses[b].Load()
	}
	return m
}

// RecoveryReport returns what the last Open recovered: the engines' replay
// counts summed, and the slowest engine's replay time (engines recover
// concurrently).
func (d *DB) RecoveryReport() RecoveryReport {
	rep := RecoveryReport{Parallelism: d.opts.RecoveryParallelism}
	for _, e := range d.engines {
		r := e.recovery
		rep.WALSegments += r.WALSegments
		rep.WALSkipped += r.WALSkipped
		rep.WALRecords += r.WALRecords
		rep.WALBytes += r.WALBytes
		rep.RecoveredKeys += r.RecoveredKeys
		if r.Duration > rep.Duration {
			rep.Duration = r.Duration
		}
	}
	return rep
}

// PCacheStats exposes the persistent-cache counters (for experiments).
func (d *DB) PCacheStats() (hitRatio float64, metaBytes, usedBytes int64) {
	return d.pcache.Stats().HitRatio(), d.pcache.MetadataBytes(), d.pcache.UsedBytes()
}

// CloudCost returns the simulated cloud bill, if the DB owns the simulator.
func (d *DB) CloudCost() (storage.CostReport, bool) {
	if d.cloudSim == nil {
		return storage.CostReport{}, false
	}
	return d.cloudSim.CostReport(), true
}
