package db

import (
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"time"

	"rocksmash/internal/histogram"
	"rocksmash/internal/manifest"
	"rocksmash/internal/metrics"
	"rocksmash/internal/pcache"
	"rocksmash/internal/storage"
)

// Stats aggregates one engine's activity counters. Breaker and flight-
// recorder histories are the store's and live on the DB facade.
type Stats struct {
	Writes       atomic.Int64
	Reads        atomic.Int64
	BytesWritten atomic.Int64
	// WriteStalls counts every writer held back, whatever the cause: a full
	// memtable waiting on the flush ahead of it (routine backpressure at
	// full ingest speed) or L0 at its file limit. WriteStallsL0 is the second
	// cause alone, the one that says compaction is behind.
	WriteStalls   atomic.Int64
	WriteStallsL0 atomic.Int64

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

	// Sorted-view counters: per-level iterators that found their level's view
	// on the version they pinned vs built it on first use, and live keys
	// yielded by iterators (the denominator of blocks-per-scanned-key).
	ScanViewHits   atomic.Int64
	ScanViewMisses atomic.Int64
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
	// Disjoint counts the one-input jobs that overlapped nothing at the
	// target level, and DisjointBytes their input bytes: what a trivial move
	// could have re-parented without a merge. An L0 job of several files is
	// not counted: they may overlap each other.
	Disjoint      atomic.Int64
	DisjointBytes atomic.Int64
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

// The snapshot types live in internal/metrics, a leaf package the vitals
// sampler and the flight detector can import; these aliases keep the names
// every caller of this package already uses.
type (
	Metrics        = metrics.Metrics
	ReadAmp        = metrics.ReadAmp
	LatencySummary = metrics.LatencySummary
	LevelWriteAmp  = metrics.LevelWriteAmp
	ShardSummary   = metrics.ShardSummary
)

// Signal declares one scalar signal, once: the /metrics family that exposes
// it, the Metrics field that carries it (a path, "ReadAmp.Tables"), and where
// DB.Metrics gets it. A field with a same-named atomic counter in Stats is
// that counter summed over the engines; a row with a read function is a
// store-wide figure (a cache, a breaker, the flight recorder) taken once per
// snapshot; the rest DB.Metrics computes in its body, while it walks the
// engines' versions or from a part of the store that may be absent (the
// cloud breaker). DB.Metrics, obs.WriteProm and DumpStats walk Signals and
// nothing else lists the scalars, so a signal added here is summed, exposed
// and reported by construction.
// Labeled families (per level, tier, shard, quantile) are not rows: they
// render the slices and nested structs of Metrics in loops of their own.
type Signal struct {
	row
	index []int // Field, located in Metrics
	stat  int   // the same-named Stats counter's field index, or -1

	section, line, label string // Dump, split
}

// row is a Signal as the table below writes it. Dump places the signal in
// DumpStats: "Section/Line/label", or a bare "Section" whose own renderer
// prints it (ReadAmp.Render for the ReadAmp rows).
type row struct {
	Name, Type, Help string
	Field, Dump      string
	read             func(*DB) any // returns a value of the field's type
}

// Value is the signal's sample in m; a duration is exposed in seconds.
func (s Signal) Value(m *Metrics) float64 {
	v := reflect.ValueOf(m).Elem().FieldByIndex(s.index)
	switch v.Kind() {
	case reflect.Int64:
		if v.Type() == reflect.TypeOf(time.Duration(0)) {
			return time.Duration(v.Int()).Seconds()
		}
	case reflect.Uint64:
		return float64(v.Uint())
	case reflect.Float64:
		return v.Float()
	}
	return float64(v.Int())
}

// resolve looks every row's Field up in Metrics and in Stats. A row naming
// no field, or a field that is not a number, stops the program at start.
func resolve(rows []row) []Signal {
	stats := reflect.TypeOf((*Stats)(nil)).Elem()
	out := make([]Signal, len(rows))
	for i := range rows {
		out[i].row = rows[i]
		r, t := &out[i], reflect.TypeOf((*Metrics)(nil)).Elem()
		for _, name := range strings.Split(r.Field, ".") {
			f, ok := t.FieldByName(name)
			if !ok {
				panic("db: signal " + r.Name + ": Metrics has no field " + r.Field)
			}
			r.index, t = append(r.index, f.Index...), f.Type
		}
		switch t.Kind() {
		case reflect.Int, reflect.Int64, reflect.Uint64, reflect.Float64:
		default:
			panic("db: signal " + r.Name + ": Metrics." + r.Field + " is not a scalar")
		}
		r.section = r.Dump
		if p := strings.SplitN(r.Dump, "/", 3); len(p) == 3 {
			r.section, r.line, r.label = p[0], p[1], p[2]
		}
		r.stat = -1
		if f, ok := stats.FieldByName(r.Field); ok && f.Type == reflect.TypeOf(atomic.Int64{}) && r.read == nil {
			r.stat = f.Index[0]
		}
	}
	return out
}

const (
	counter = "counter"
	gauge   = "gauge"
)

// Signals is every scalar signal of the store. The first 22 rows are in the
// order /metrics has always printed them, between its labeled families (see
// obs.WriteProm); a new row goes at the end.
var Signals = resolve([]row{
	{"rocksmash_reads_total", counter, "Point lookups served.", "Reads", "DB Stats/Reads/ops", nil},
	{"rocksmash_writes_total", counter, "Write operations committed.", "Writes", "DB Stats/Writes/ops", nil},
	{"rocksmash_write_stalls_total", counter, "Writes stalled on background work.", "WriteStalls", "DB Stats/Writes/stalls", nil},
	{"rocksmash_flushes_total", counter, "Memtable flushes completed.", "Flushes", "Flush & Compaction/Flushes/completed", nil},
	{"rocksmash_compactions_total", counter, "Compactions completed.", "Compactions", "Flush & Compaction/Compactions/completed", nil},
	{"rocksmash_read_profiled_total", counter, "Gets that carried a read profile.", "ReadAmp.ProfiledGets", "Read Path", nil},
	{"rocksmash_read_timed_total", counter, "Profiled Gets with per-stage timings.", "ReadAmp.TimedGets", "Read Path", nil},
	{"rocksmash_read_tables_total", counter, "Table readers consulted by profiled Gets.", "ReadAmp.Tables", "Read Path", nil},
	{"rocksmash_read_bloom_checked_total", counter, "Bloom filters consulted by profiled Gets.", "ReadAmp.BloomChecked", "Read Path", nil},
	{"rocksmash_read_bloom_negative_total", counter, "Bloom filters that rejected the probe.", "ReadAmp.BloomNegative", "Read Path", nil},
	{"rocksmash_iter_seeks_total", counter, "Iterator positioning operations profiled.", "ReadAmp.IterSeeks", "Read Path", nil},
	{"rocksmash_block_cache_hit_ratio", gauge, "In-memory block cache hit ratio.", "BlockHit", "Caches/Block cache/hit ratio", func(d *DB) any { return d.blockCache.HitRatio() }},
	{"rocksmash_pcache_hit_ratio", gauge, "Persistent cache hit ratio.", "PCacheHit", "Caches/PCache/hit ratio", func(d *DB) any { return d.pcache.Stats().HitRatio() }},
	{"rocksmash_pcache_used_bytes", gauge, "Persistent cache data bytes.", "PCacheUsed", "Caches/PCache/used", func(d *DB) any { return d.pcache.UsedBytes() }},
	{"rocksmash_local_bytes", gauge, "Table bytes on the local tier.", "LocalBytes", "Level Shape/Placement/local", nil},
	{"rocksmash_cloud_bytes", gauge, "Table bytes on the cloud tier.", "CloudBytes", "Level Shape/Placement/cloud", nil},
	{"rocksmash_compaction_debt_bytes", gauge, "Estimated bytes compaction must move to restore level targets.", "CompactionDebt", "Level Shape/Shape/compaction debt", nil},
	{"rocksmash_space_amp", gauge, "Space amplification estimate: total table bytes over deepest level bytes.", "SpaceAmp", "Level Shape/Shape/space amp", nil},
	{"rocksmash_incidents_triggered_total", counter, "Anomaly-detector incidents fired by the flight recorder.", "IncidentsTriggered", "Flight Recorder/Incidents/triggered", func(d *DB) any { return d.flight.triggered.Load() }},
	{"rocksmash_incidents_suppressed_total", counter, "Detector firings swallowed by per-rule cooldowns.", "IncidentsSuppressed", "Flight Recorder/Incidents/suppressed", func(d *DB) any { return d.flight.det.Suppressed() }},
	{"rocksmash_flight_bundles_written_total", counter, "Incident postmortem bundles committed to disk.", "BundlesWritten", "Flight Recorder/Bundles/written", func(d *DB) any { return d.flight.bundles.Load() }},
	{"rocksmash_flight_bundle_errors_total", counter, "Incident bundle dumps that failed to commit.", "BundleErrors", "Flight Recorder/Bundles/errors", func(d *DB) any { return d.flight.bundleErrors.Load() }},

	{"rocksmash_last_sequence", gauge, "Last acknowledged sequence number.", "LastSeq", "DB Stats/Writes/last seq", func(d *DB) any { return d.ackedSeq() }},
	{"rocksmash_user_bytes_written_total", counter, "User key and value bytes committed.", "BytesWritten", "DB Stats/Writes/user data", nil},
	{"rocksmash_commit_groups_total", counter, "Commit groups led.", "CommitGroups", "DB Stats/Commit groups/led", nil},
	{"rocksmash_commit_group_batches_total", counter, "Batches carried by commit groups.", "CommitGroupBatches", "DB Stats/Commit groups/batches", nil},
	{"rocksmash_wal_syncs_amortized_total", counter, "WAL fsyncs saved by group commit.", "WALSyncsAmortized", "DB Stats/Commit groups/WAL syncs amortized", nil},
	{"rocksmash_flush_bytes_total", counter, "Table bytes written by flushes.", "FlushBytes", "Flush & Compaction/Flushes/written", nil},
	{"rocksmash_compact_bytes_in_total", counter, "Table bytes read by compactions.", "CompactBytesIn", "Flush & Compaction/Compactions/in", nil},
	{"rocksmash_compact_bytes_out_total", counter, "Table bytes written by compactions.", "CompactBytesOut", "Flush & Compaction/Compactions/out", nil},
	{"rocksmash_compact_dropped_keys_total", counter, "Shadowed and deleted entries dropped by compactions.", "CompactDroppedKeys", "Flush & Compaction/Compactions/dropped keys", nil},
	{"rocksmash_prefetch_spans_total", counter, "Cloud range GETs that fetched compaction inputs.", "PrefetchSpans", "Flush & Compaction/Prefetch/spans", nil},
	{"rocksmash_prefetch_blocks_total", counter, "Blocks carried by compaction-input spans.", "PrefetchBlocks", "Flush & Compaction/Prefetch/blocks", nil},
	{"rocksmash_readahead_spans_total", counter, "Cloud range GETs that read ahead of view scans.", "ReadaheadSpans", "Range Scans/Readahead/spans", nil},
	{"rocksmash_readahead_blocks_total", counter, "Blocks carried by scan readahead spans.", "ReadaheadBlocks", "Range Scans/Readahead/blocks", nil},
	{"rocksmash_scan_view_hits_total", counter, "Per-level iterators that found their level's sorted view on the version.", "ScanViewHits", "Range Scans/Sorted views/level hits", nil},
	{"rocksmash_scan_view_misses_total", counter, "Per-level iterators that built their level's sorted view on first use.", "ScanViewMisses", "Range Scans/Sorted views/built on first scan", nil},
	{"rocksmash_iter_keys_total", counter, "Live keys yielded by iterators.", "IterKeys", "Range Scans/Scans/keys yielded", nil},
	{"rocksmash_block_cache_hits_total", counter, "Block cache lookups that hit.", "BlockCacheHits", "Caches/Block cache/hits", func(d *DB) any { h, _ := d.blockCache.Counters(); return h }},
	{"rocksmash_block_cache_misses_total", counter, "Block cache lookups that missed.", "BlockCacheMisses", "Caches/Block cache/misses", func(d *DB) any { _, n := d.blockCache.Counters(); return n }},
	{"rocksmash_pcache_hits_total", counter, "Persistent cache lookups that hit.", "PCacheHits", "Caches/PCache/hits", func(d *DB) any { return d.pcache.Stats().Hits.Load() }},
	{"rocksmash_pcache_misses_total", counter, "Persistent cache lookups that missed.", "PCacheMisses", "Caches/PCache/misses", func(d *DB) any { return d.pcache.Stats().Misses.Load() }},
	{"rocksmash_pcache_corrupt_reads_total", counter, "Persistent cache reads that failed their checksum and were served as misses.", "PCacheCorruptReads", "Caches/PCache/corrupt reads", func(d *DB) any { return d.pcache.Stats().CorruptReads.Load() }},
	{"rocksmash_pcache_metadata_bytes", gauge, "Memory held by the persistent cache's index.", "PCacheMeta", "Caches/PCache/metadata", func(d *DB) any { return d.pcache.MetadataBytes() }},
	{"rocksmash_table_metadata_bytes", gauge, "Pinned table metadata (index and filter blocks), all local.", "MetaBytes", "Level Shape/Placement/pinned metadata", func(d *DB) any { return d.tables.metadataBytes() }},

	{"rocksmash_upload_retries_total", counter, "Cloud uploads retried.", "UploadRetries", "Robustness/Retries/upload", nil},
	{"rocksmash_read_retries_total", counter, "Cloud reads retried.", "ReadRetries", "Robustness/Retries/read", nil},
	{"rocksmash_cloud_breaker_trips_total", counter, "Times the cloud circuit breaker opened.", "BreakerTrips", "Robustness/Cloud breaker/trips", func(d *DB) any { return d.cloudTrips.trips.Load() }},
	{"rocksmash_cloud_breaker_half_opens_total", counter, "Recovery probes the cloud circuit breaker admitted.", "BreakerHalfOpens", "Robustness/Cloud breaker/half-opens", func(d *DB) any { return d.cloudTrips.halfOpens.Load() }},
	{"rocksmash_cloud_degraded_seconds_total", counter, "Time the cloud circuit breaker has spent open or half-open.", "DegradedDur", "Robustness/Cloud breaker/degraded", nil},
	{"rocksmash_degraded_tables_total", counter, "Tables landed on the local tier during cloud outages.", "DegradedTables", "Robustness/Degraded landings/tables", nil},
	{"rocksmash_drained_tables_total", counter, "Pending tables since uploaded to the cloud tier.", "DrainedTables", "Robustness/Degraded landings/drained", nil},
	{"rocksmash_deferred_deletes_total", counter, "Object deletions that failed and were queued for retry.", "DeferredDeletes", "Robustness/Deferred/deletes", nil},
	{"rocksmash_compactions_deferred_total", counter, "Compactions postponed by an open breaker.", "CompactionsDeferred", "Robustness/Deferred/compactions", nil},
	{"rocksmash_pending_tables", gauge, "Tables on the local tier awaiting upload to the cloud tier.", "PendingTables", "Robustness/Degraded landings/pending tables", nil},
	{"rocksmash_pending_bytes", gauge, "Bytes of the tables awaiting upload to the cloud tier.", "PendingBytes", "Robustness/Degraded landings/pending bytes", nil},
	{"rocksmash_obsolete_tables", gauge, "Retired tables that an open reader's pin still holds in place.", "ObsoleteTables", "Level Shape/Obsolete, held by open readers/tables", nil},
	{"rocksmash_obsolete_bytes", gauge, "Bytes of the retired tables open readers hold in place.", "ObsoleteBytes", "Level Shape/Obsolete, held by open readers/bytes", nil},

	{"rocksmash_local_breaker_trips_total", counter, "Times the local circuit breaker opened.", "LocalBreakerTrips", "Robustness/Local breaker/trips", func(d *DB) any { return d.localTrips.trips.Load() }},
	{"rocksmash_local_breaker_half_opens_total", counter, "Recovery probes the local circuit breaker admitted.", "LocalBreakerHalfOpens", "Robustness/Local breaker/half-opens", func(d *DB) any { return d.localTrips.halfOpens.Load() }},
	{"rocksmash_local_degraded_seconds_total", counter, "Time the local circuit breaker has spent open or half-open.", "LocalDegradedDur", "Robustness/Local breaker/degraded", func(d *DB) any { return d.localBreaker.DegradedDur() }},
	{"rocksmash_local_degraded_tables_total", counter, "Tables landed cloud-direct while the local tier was degraded.", "LocalDegradedTables", "Robustness/Local-degraded landings/tables", nil},
	{"rocksmash_local_drained_back_total", counter, "Misplaced tables migrated back to the local tier.", "LocalDrainedBack", "Robustness/Local-degraded landings/drained back", nil},
	{"rocksmash_misplaced_tables", gauge, "Local-level tables on the cloud tier awaiting drain-back.", "MisplacedTables", "Robustness/Local-degraded landings/misplaced", nil},
	{"rocksmash_corruptions_detected_total", counter, "Checksum failures found on local artifacts.", "CorruptionsDetected", "Robustness/Corruption/detected", nil},
	{"rocksmash_corruptions_repaired_total", counter, "Corrupt artifacts rebuilt from a cloud copy.", "CorruptionsRepaired", "Robustness/Corruption/repaired", nil},
	{"rocksmash_corruptions_unrepaired_total", counter, "Corrupt artifacts with no clean copy, quarantined.", "CorruptionsUnrepaired", "Robustness/Corruption/unrepaired", nil},
	{"rocksmash_quarantined_tables", gauge, "Tables quarantined for unrepairable corruption.", "QuarantinedTables", "Robustness/Corruption/quarantined", nil},
	{"rocksmash_scrub_passes_total", counter, "Scrub walks completed.", "ScrubPasses", "Robustness/Corruption/scrub passes", nil},
	{"rocksmash_mirrored_tables_total", counter, "Local-level tables copied to the cloud tier as a repair source.", "MirroredTables", "Robustness/Backups/mirrored tables", nil},
	{"rocksmash_wal_spills_total", counter, "WAL segments spilled to the cloud backup.", "WALSpills", "Robustness/Backups/WAL spills", nil},
	{"rocksmash_wal_restored_total", counter, "WAL segments restored from the cloud backup.", "WALRestored", "Robustness/Backups/WAL restores", nil},
	{"rocksmash_write_stalls_l0_total", counter, "Writes stalled on the L0 file limit: compaction is behind.", "WriteStallsL0", "DB Stats/Writes/L0 stalls", nil},
	{"rocksmash_compactions_running", gauge, "Compaction jobs running, store-wide.", "CompactionsRunning", "Flush & Compaction/Compactions/running", func(d *DB) any { return d.compactionsRunning.Load() }},
	{"rocksmash_pcache_door_declined_total", counter, "Demoted blocks the persistent cache's frequency door turned away.", "PCacheDoorDeclined", "Caches/PCache/door declined", func(d *DB) any { return d.pcache.Stats().DoorDeclined.Load() }},
	{"rocksmash_tables_closing", gauge, "Evicted table readers kept open for the readers that pinned before the eviction.", "TablesClosing", "Level Shape/Table readers/closing", func(d *DB) any { return d.tables.closing.Load() }},
	{"rocksmash_tables_open_peak", gauge, "The most table readers open at once, cached and closing.", "TablesOpenPeak", "Level Shape/Table readers/peak open", func(d *DB) any { return d.tables.openPeak() }},
	{"rocksmash_compactions_disjoint_total", counter, "One-input compactions that overlapped nothing at the output level.", "CompactionsDisjoint", "Flush & Compaction/No output overlap/jobs", nil},
	{"rocksmash_compact_disjoint_bytes_total", counter, "Input bytes of one-input compactions that overlapped nothing at the output level.", "CompactDisjointBytes", "Flush & Compaction/No output overlap/in", nil},
})

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

// Metrics gathers a summary snapshot. Every scalar comes through Signals:
// engine counters sum across engines, store-wide figures (caches, breakers)
// are read once; what the table cannot hold — level shape, latencies, device
// I/O, the read profile, per-shard attribution with more than one engine —
// is filled here.
func (d *DB) Metrics() Metrics {
	m := Metrics{
		Policy: d.opts.Policy.String(),
		// Every wrapper delegates Stats to the device underneath, so the
		// facade's undecorated backends report all engines' I/O.
		LocalIO:           d.local.Stats().Snapshot(),
		LocalBreakerState: d.localBreaker.State().String(),

		LevelFiles:    make([]int, manifest.NumLevels),
		LevelBytes:    make([]uint64, manifest.NumLevels),
		LevelWriteAmp: make([]LevelWriteAmp, manifest.NumLevels),

		GetLat:      summarize(d.lat.get),
		PutLat:      summarize(d.lat.put),
		FlushLat:    summarize(d.lat.flush),
		CompactLat:  summarize(d.lat.compact),
		LocalGetLat: summarize(d.lat.localGet),
		LocalPutLat: summarize(d.lat.localPut),
		CloudGetLat: summarize(d.lat.cloudGet),
		CloudPutLat: summarize(d.lat.cloudPut),
	}
	mv := reflect.ValueOf(&m).Elem()
	for _, s := range Signals {
		if s.read != nil {
			mv.FieldByIndex(s.index).Set(reflect.ValueOf(s.read(d)))
		}
	}
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
	m.ActiveIncidents = d.flight.det.Active()
	for l := range m.LevelWriteAmp {
		m.LevelWriteAmp[l] = LevelWriteAmp{Level: l, Target: l + 1}
	}
	if len(d.engines) > 1 {
		m.Shards = make([]ShardSummary, len(d.engines))
	}

	pcs := d.pcache.Stats()
	for i, e := range d.engines {
		st := &e.stats
		sv := reflect.ValueOf(st).Elem()
		for _, s := range Signals {
			if s.stat >= 0 {
				f := mv.FieldByIndex(s.index)
				f.SetInt(f.Int() + sv.Field(s.stat).Addr().Interface().(*atomic.Int64).Load())
			}
		}
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
			m.LevelWriteAmp[l].Disjoint += lc.Disjoint.Load()
			m.LevelWriteAmp[l].DisjointBytes += lc.DisjointBytes.Load()
			m.CompactionsDisjoint += lc.Disjoint.Load()
			m.CompactDisjointBytes += lc.DisjointBytes.Load()
		}
		m.CompactionDebt += e.compactionDebt(v)

		m.ReadAmp.Add(e.readAgg.snapshot(s.Reads))
		if m.Shards != nil {
			m.Shards[i] = s
		}
	}
	// The Get histogram holds the timed sample (engine.get); its count is
	// every Get, from the engines' counters.
	m.GetLat.Count = m.Reads
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
