// Package db implements the LSM-tree storage engine and the RocksMash
// hybrid-placement designs on top of it: level-based local/cloud placement,
// the LSM-aware persistent cache, and extended-WAL parallel recovery.
package db

import (
	"time"

	"rocksmash/internal/event"
	"rocksmash/internal/retry"
	"rocksmash/internal/sstable"
	"rocksmash/internal/storage"
)

// Policy selects how the store distributes data between the local tier and
// the cloud tier. The non-Mash policies are the paper's comparison schemes
// expressed on the same engine.
type Policy int

const (
	// PolicyMash is the paper's design: upper levels and all metadata
	// local, deeper levels in cloud behind the LSM-aware persistent cache,
	// extended WAL with parallel recovery.
	PolicyMash Policy = iota
	// PolicyLocalOnly keeps every file on local storage (RocksDB-on-SSD
	// baseline): fastest, most expensive, capacity-bound.
	PolicyLocalOnly
	// PolicyCloudOnly keeps every SSTable in cloud storage with only the
	// in-memory block cache (RocksDB-on-cloud worst case).
	PolicyCloudOnly
	// PolicyCloudLRU keeps every SSTable in cloud storage behind a
	// generic (non-LSM-aware) persistent LRU cache — the rocksdb-cloud
	// style state of the art the paper improves on.
	PolicyCloudLRU
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PolicyMash:
		return "mash"
	case PolicyLocalOnly:
		return "local-only"
	case PolicyCloudOnly:
		return "cloud-only"
	case PolicyCloudLRU:
		return "cloud-lru"
	default:
		return "unknown"
	}
}

// Options configures a DB.
type Options struct {
	// Policy selects the placement scheme. Default PolicyMash.
	Policy Policy
	// LocalLevels is the number of top levels kept on local storage under
	// PolicyMash (L0..LocalLevels-1 local, the rest cloud). 0 means the
	// default (2); -1 places every level in cloud (useful for isolating
	// the persistent cache in ablations).
	LocalLevels int

	// MemtableBytes triggers a flush when the memtable reaches this size.
	MemtableBytes int64
	// BlockBytes is the SSTable data-block size.
	BlockBytes int
	// BloomBitsPerKey sizes table filters (0 disables).
	BloomBitsPerKey int
	// Compression is the SSTable data-block codec. Compressing shrinks
	// cloud capacity and transfer (and their cost) at some CPU expense.
	Compression sstable.Compression
	// BlockCacheBytes bounds the in-memory block cache.
	BlockCacheBytes int64
	// MaxOpenTables bounds concurrently open table readers (and thus file
	// descriptors); least-recently-used idle tables are closed past it.
	MaxOpenTables int

	// PCacheBytes bounds the persistent cache (PolicyMash / PolicyCloudLRU).
	PCacheBytes int64
	// PCacheRegionBytes is the PCache allocation unit.
	PCacheRegionBytes int64
	// CompactionInheritance warms compaction outputs whose inputs were hot
	// in the persistent cache (PolicyMash only). Default true; disable for
	// the Fig. 10 ablation.
	CompactionInheritance bool

	// L0CompactTrigger is the L0 file count that triggers compaction.
	L0CompactTrigger int
	// L0StallFiles applies write backpressure when L0 reaches this count.
	L0StallFiles int
	// LevelBaseBytes is the target size of L1; each deeper level is
	// LevelMultiplier times larger.
	LevelBaseBytes int64
	// LevelMultiplier is the per-level size ratio. Default 10.
	LevelMultiplier int
	// TargetFileBytes is the compaction output file size target.
	TargetFileBytes int64

	// WALSync fsyncs the WAL on every commit.
	WALSync bool
	// WALSegmentBytes rolls WAL segments at this size.
	WALSegmentBytes int64
	// ExtendedWAL enables the eWAL segment index (skip-flushed metadata).
	// Disable for the Fig. 11 serial-recovery baseline.
	ExtendedWAL bool
	// WALCloudBackup uploads every sealed WAL segment to the cloud tier,
	// protecting unflushed writes against loss of the local device.
	// Recovery transparently restores missing local segments from cloud.
	WALCloudBackup bool
	// RecoveryParallelism is the number of WAL segments recovered
	// concurrently. 1 reproduces stock serial recovery.
	RecoveryParallelism int

	// CloudRetry bounds how cloud requests are retried (attempts, backoff,
	// deadline). Zero fields take retry.Default(); a custom Retryable is
	// composed with the built-in classification (data-absence and
	// breaker-open errors never retry).
	CloudRetry retry.Policy
	// CloudBreaker tunes the circuit breaker guarding the cloud tier: after
	// FailureThreshold consecutive failed requests the breaker opens, cloud
	// requests fail fast with ErrCloudUnavailable, and flushes/compactions
	// land their outputs locally (degraded mode) until a half-open probe
	// succeeds. Zero fields take the breaker defaults.
	CloudBreaker retry.BreakerConfig
	// PendingDrainInterval is how often the background drainer retries
	// deferred deletes and relocates off-home tables to their home tier.
	// Default 200ms.
	PendingDrainInterval time.Duration

	// LocalBreaker tunes the circuit breaker guarding the local tier — the
	// symmetric twin of CloudBreaker. After FailureThreshold consecutive
	// failed local writes (ENOSPC, fsync EIO) the breaker opens and the store
	// enters local-degraded mode: flush and compaction outputs that belong on
	// the local tier land cloud-direct instead, the persistent cache stops
	// admitting, and WAL segments spill to the cloud backup. A half-open
	// probe (the next local write attempt) closes it again, after which the
	// drainer migrates misplaced tables back. Zero fields take the breaker
	// defaults.
	LocalBreaker retry.BreakerConfig

	// ScrubInterval enables the background corruption scrubber: every
	// interval one pass walks the local tier's artifacts (SSTable blocks,
	// metadata sidecars, WAL segments, pcache index snapshot) verifying
	// checksums, and repairs damaged artifacts that have a cloud source of
	// truth in place. 0 (the default) disables the background loop;
	// DB.Scrub() remains available for on-demand passes either way.
	ScrubInterval time.Duration
	// MirrorLocalLevels lazily uploads local-level SSTables to the cloud tier
	// off the write path (riding the pending drainer), so every table has a
	// cloud source of truth and any local corruption is repairable. Mirror
	// uploads never block flushes or compactions; until a table's mirror
	// exists it is protected only by detection (typed corruption errors, no
	// silent wrong reads).
	MirrorLocalLevels bool

	// Shards is the number of engines the DB facade runs, the keyspace
	// hash-partitioned across them. Each engine is a full LSM — memtable
	// stack, eWAL segment stream, flush queue, compaction scheduler — so
	// writers, flushes, and compactions on different engines never
	// contend on the same mutexes or WAL writer. The block cache,
	// persistent cache, table cache, both circuit breakers, and the
	// sequence-number source belong to the facade: snapshots and
	// iterators stay consistent across engines. <= 1 (the default) is one
	// engine directly on the given backends, the layout of stores written
	// before sharding existed; N > 1 roots each engine under its own
	// "shard-NNN/" prefix. The shard count is part of the on-disk layout:
	// reopen with the same value.
	Shards int

	// DisableCommitPipeline reverts the write path to the serial
	// commit-mutex design: one writer at a time appends to the WAL and
	// applies to the memtable. The default (pipelined) path group-commits
	// concurrent writers — a leader batches the queue into one vectored WAL
	// append with a single amortized fsync while members apply to the
	// memtable in parallel. Disable only for bisection or as a comparison
	// baseline; results are identical either way, including post-crash
	// recovered state.
	DisableCommitPipeline bool

	// DisableSortedViews turns off the per-level sorted-view sidecars
	// (REMIX-style cursor runs) that accelerate range scans over levels
	// >= 1. With views disabled every scan merges the level's tables
	// through per-table iterators; with them enabled (the default) a scan
	// seeks once in the view's globally sorted block schedule and streams
	// blocks with exact cloud readahead. Correctness is identical either
	// way — views are derived data rebuilt from table indexes.
	DisableSortedViews bool

	// VitalsInterval enables continuous time-series telemetry: a background
	// sampler snapshots Metrics() into a fixed-size lock-free ring at this
	// period and derives windowed rates (ops/s, bytes/s per tier, cache hit
	// ratios, write-amp, $/hour — see internal/vitals and DB.Vitals). 0
	// (the default) disables sampling entirely: no goroutine starts and the
	// hot paths are untouched. One sampler serves the whole store, whatever
	// the shard count.
	VitalsInterval time.Duration
	// VitalsHistory is the sample ring capacity (how much history /vitals
	// and `mashctl top` can see). 0 means vitals.DefaultHistory (720 — 12
	// minutes at a 1s interval).
	VitalsHistory int

	// FlightRecorder enables the flight recorder: a bounded lock-free ring
	// of recent engine events tapped off the listener chain, an anomaly
	// detector evaluated on every vitals tick (latency spikes, write-stall
	// onset, breaker trips, compaction-debt growth, cache collapse, shard
	// skew, cost spikes — see internal/flight and DESIGN.md §5j), and
	// atomic postmortem bundle dumps when a detector fires. Off (the
	// default) the flight path does not exist: no ring, no detector, no
	// per-event or per-write cost. Enabling it defaults VitalsInterval to
	// 1s when unset (the detector rides the vitals tick).
	FlightRecorder bool
	// FlightDir overrides where incident bundles are written. Empty derives
	// <local root>/../flight when the local backend is a real directory;
	// otherwise bundling is disabled (detection still runs).
	FlightDir string
	// FlightBundleInterval rate-limits bundle dumps: at most one bundle per
	// interval regardless of how many detectors fire. 0 means 30s.
	FlightBundleInterval time.Duration

	// ReadProfileSampleRate selects 1-in-N Gets for full (timed) read-path
	// profiling; the cheap counter core (levels probed, tables touched,
	// bloom outcomes, blocks by tier) is recorded for every Get regardless.
	// 0 means the default (64), 1 times every Get, and a negative value
	// disables profiling entirely — Gets then take the nil-profile fast
	// path and record nothing.
	ReadProfileSampleRate int

	// EventListener receives engine lifecycle events (flush, compaction,
	// upload, stall, cache transitions). Nil disables event dispatch at zero
	// cost; see package event for the listener contract.
	EventListener event.Listener
	// TracePath, when set, appends every event as a JSON line to this file
	// (machine-readable run trace, decodable with event.ReadTraceFile and
	// summarized by `mashctl trace`). Combines with EventListener.
	TracePath string
	// TraceRotateBytes rotates the trace file when it reaches this size:
	// the live file shifts to TracePath.1 (older files to .2, .3, ...) and
	// a fresh file opens, always between complete JSON lines. 0 (the
	// default) never rotates.
	TraceRotateBytes int64
	// TraceRotateKeep is how many rotated trace files are retained beyond
	// the live one. 0 means 1.
	TraceRotateKeep int

	// Cloud configures the simulated object store when the DB creates its
	// own backends (OpenAt). Ignored when backends are supplied directly.
	CloudLatency storage.LatencyModel
	CloudCost    storage.CostModel

	// pcacheDir overrides where the persistent cache lives; set by OpenAt.
	pcacheDir string
}

// DefaultOptions returns the PolicyMash configuration used throughout the
// examples and experiments.
func DefaultOptions() Options {
	return Options{
		Policy:                PolicyMash,
		LocalLevels:           2,
		MemtableBytes:         4 << 20,
		BlockBytes:            4 << 10,
		BloomBitsPerKey:       10,
		BlockCacheBytes:       8 << 20,
		MaxOpenTables:         512,
		PCacheBytes:           64 << 20,
		PCacheRegionBytes:     256 << 10,
		CompactionInheritance: true,
		L0CompactTrigger:      4,
		L0StallFiles:          12,
		LevelBaseBytes:        16 << 20,
		LevelMultiplier:       10,
		TargetFileBytes:       4 << 20,
		WALSync:               false,
		WALSegmentBytes:       4 << 20,
		ExtendedWAL:           true,
		RecoveryParallelism:   4,
		ReadProfileSampleRate: 64,
		CloudLatency:          storage.DefaultLatency(),
		CloudCost:             storage.DefaultCost(),
	}
}

// sanitize fills zero values with defaults.
func (o Options) sanitize() Options {
	d := DefaultOptions()
	switch {
	case o.LocalLevels == 0:
		o.LocalLevels = d.LocalLevels
	case o.LocalLevels < 0:
		o.LocalLevels = -1 // all levels in cloud (idempotent sentinel)
	}
	if o.MemtableBytes <= 0 {
		o.MemtableBytes = d.MemtableBytes
	}
	if o.BlockBytes <= 0 {
		o.BlockBytes = d.BlockBytes
	}
	if o.BlockCacheBytes < 0 {
		o.BlockCacheBytes = 0
	}
	if o.MaxOpenTables <= 0 {
		o.MaxOpenTables = d.MaxOpenTables
	}
	if o.PCacheBytes <= 0 {
		o.PCacheBytes = d.PCacheBytes
	}
	if o.PCacheRegionBytes <= 0 {
		o.PCacheRegionBytes = d.PCacheRegionBytes
	}
	if o.L0CompactTrigger <= 0 {
		o.L0CompactTrigger = d.L0CompactTrigger
	}
	if o.L0StallFiles <= o.L0CompactTrigger {
		o.L0StallFiles = o.L0CompactTrigger * 3
	}
	if o.LevelBaseBytes <= 0 {
		o.LevelBaseBytes = d.LevelBaseBytes
	}
	if o.LevelMultiplier <= 1 {
		o.LevelMultiplier = d.LevelMultiplier
	}
	if o.TargetFileBytes <= 0 {
		o.TargetFileBytes = d.TargetFileBytes
	}
	if o.WALSegmentBytes <= 0 {
		o.WALSegmentBytes = d.WALSegmentBytes
	}
	if o.RecoveryParallelism <= 0 {
		o.RecoveryParallelism = 1
	}
	switch {
	case o.ReadProfileSampleRate == 0:
		o.ReadProfileSampleRate = d.ReadProfileSampleRate
	case o.ReadProfileSampleRate < 0:
		o.ReadProfileSampleRate = -1 // disabled (idempotent sentinel)
	}
	o.CloudRetry = o.CloudRetry.Sanitize()
	if o.PendingDrainInterval <= 0 {
		o.PendingDrainInterval = 200 * time.Millisecond
	}
	if o.VitalsInterval < 0 {
		o.VitalsInterval = 0
	}
	if o.FlightRecorder && o.VitalsInterval == 0 {
		// The detector evaluates on vitals ticks; a recorder without a
		// heartbeat would never detect anything.
		o.VitalsInterval = time.Second
	}
	if o.TraceRotateBytes < 0 {
		o.TraceRotateBytes = 0
	}
	if o.TraceRotateKeep < 0 {
		o.TraceRotateKeep = 0
	}
	if o.ScrubInterval < 0 {
		o.ScrubInterval = 0
	}
	if o.VitalsHistory < 0 {
		o.VitalsHistory = 0 // NewSampler substitutes vitals.DefaultHistory
	}
	if o.Shards < 1 {
		o.Shards = 1
	}
	return o
}

// tierForLevel returns where a new file at the given level belongs.
func (o Options) tierForLevel(level int) storage.Tier {
	switch o.Policy {
	case PolicyLocalOnly:
		return storage.TierLocal
	case PolicyCloudOnly, PolicyCloudLRU:
		return storage.TierCloud
	default: // PolicyMash
		if level < o.LocalLevels {
			return storage.TierLocal
		}
		return storage.TierCloud
	}
}

// levelTargetBytes returns the compaction size target for a level ≥ 1.
func (o Options) levelTargetBytes(level int) int64 {
	t := o.LevelBaseBytes
	for l := 1; l < level; l++ {
		t *= int64(o.LevelMultiplier)
	}
	return t
}

// usesPersistentCache reports whether the policy wants a disk cache.
func (o Options) usesPersistentCache() bool {
	return o.Policy == PolicyMash || o.Policy == PolicyCloudLRU
}
