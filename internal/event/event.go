// Package event defines the engine's observability layer: typed lifecycle
// events with structured payloads, modelled on RocksDB's EventListener
// subsystem. The DB fires events at flush, compaction, upload, write-stall,
// and persistent-cache transitions; listeners observe where time and bytes
// go without touching the engine's hot paths.
//
// Contract for implementations:
//
//   - Listeners must be safe for concurrent use: events fire from the write
//     path, the flush lane, every running compaction job, and upload
//     workers simultaneously.
//   - Listeners are invoked outside the engine's internal locks, so they may
//     read engine state (Get, Metrics, DumpStats) safely. They must not call
//     back into the write path (Put, Write, Flush, CompactAll): a listener
//     blocking the background goroutine on write progress deadlocks.
//   - Callbacks run synchronously on engine goroutines; a slow listener
//     slows the operation that fired it. Offload heavy work.
package event

import (
	"reflect"
	"time"
)

// Type names an event kind; it is the "type" field of trace records.
type Type string

// Event types, in rough lifecycle order.
const (
	TFlushBegin      Type = "flush_begin"
	TFlushEnd        Type = "flush_end"
	TCompactionBegin Type = "compaction_begin"
	TCompactionEnd   Type = "compaction_end"
	TTableUploaded   Type = "table_uploaded"
	TTableDeleted    Type = "table_deleted"
	TWriteStallBegin Type = "write_stall_begin"
	TWriteStallEnd   Type = "write_stall_end"
	TCommitGroup     Type = "commit_group"
	TPCacheAdmit     Type = "pcache_admit"
	TPCacheEvict     Type = "pcache_evict"
	TCloudRetry      Type = "cloud_retry"
	TBreakerState    Type = "breaker_state"
	TSlowRead        Type = "slow_read"

	TCorruptionDetected Type = "corruption_detected"
	TCorruptionRepaired Type = "corruption_repaired"

	TViewBuilt Type = "view_built"

	TIncidentTriggered Type = "incident_triggered"
)

// FlushBegin fires when a sealed memtable (or recovery memtables) starts
// flushing to an L0 table.
type FlushBegin struct {
	// Reason is "memtable" for a sealed memtable flush and "recovery" for a
	// flush draining only WAL-recovered memtables.
	Reason string `json:"reason"`
}

// FlushEnd fires after the flush output is durable and installed.
type FlushEnd struct {
	Table    uint64        `json:"table"`
	Bytes    int64         `json:"bytes"`
	Tier     string        `json:"tier"`
	Duration time.Duration `json:"dur"`
}

// CompactionBegin fires when a compaction job starts merging. Jobs of one
// store run concurrently: Job pairs the event with its CompactionEnd, and
// Shard with Smallest..Largest is the user-key range the job holds on both of
// its levels until then.
type CompactionBegin struct {
	Job         uint64 `json:"job"`
	Shard       int    `json:"shard"`
	Level       int    `json:"level"`
	OutputLevel int    `json:"output_level"`
	Inputs      int    `json:"inputs"` // input files, both levels
	InputBytes  int64  `json:"input_bytes"`
	Smallest    []byte `json:"smallest"`
	Largest     []byte `json:"largest"`
}

// CompactionEnd fires after the outputs are installed and before any input
// is retired: an input's TableDeleted always comes after the CompactionEnd of
// the job that made it obsolete. The stage durations decompose where the
// compaction spent time: ReadDur is time blocked fetching input blocks (a
// subset of MergeDur, the merge loop's wall time), UploadDur is the summed
// per-table upload time (it can exceed Duration when uploads overlap the
// merge), and InstallDur covers the manifest edit. Retiring the inputs is
// in none of them.
type CompactionEnd struct {
	Job           uint64        `json:"job"`
	Shard         int           `json:"shard"`
	Level         int           `json:"level"`
	OutputLevel   int           `json:"output_level"`
	Inputs        int           `json:"inputs"`
	Outputs       int           `json:"outputs"`
	InputBytes    int64         `json:"input_bytes"`
	OutputBytes   int64         `json:"output_bytes"`
	DroppedKeys   int64         `json:"dropped_keys"`
	PrefetchSpans int64         `json:"prefetch_spans"`
	ReadDur       time.Duration `json:"read_dur"`
	MergeDur      time.Duration `json:"merge_dur"`
	UploadDur     time.Duration `json:"upload_dur"`
	InstallDur    time.Duration `json:"install_dur"`
	Duration      time.Duration `json:"dur"`
}

// TableUploaded fires when a built table object is durable in its tier.
type TableUploaded struct {
	Table    uint64        `json:"table"`
	Tier     string        `json:"tier"`
	Bytes    int64         `json:"bytes"`
	Attempts int           `json:"attempts"`
	Duration time.Duration `json:"dur"`
	// Pending marks a degraded-mode landing: the table belongs on the cloud
	// tier but was written to local storage because the cloud was
	// unreachable. A second event (Pending false, tier "cloud") fires when
	// the drainer migrates it.
	Pending bool `json:"pending,omitempty"`
}

// TableDeleted fires when a compaction input object is removed, after its
// job's CompactionEnd.
type TableDeleted struct {
	Table uint64 `json:"table"`
	Tier  string `json:"tier"`
}

// WriteStallBegin fires when the write path starts waiting on background
// work. Reason is "memtable" (sealed memtable still flushing) or "l0"
// (too many L0 files; compaction must catch up).
type WriteStallBegin struct {
	Reason string `json:"reason"`
}

// WriteStallEnd fires when the stalled write proceeds.
type WriteStallEnd struct {
	Reason   string        `json:"reason"`
	Duration time.Duration `json:"dur"`
}

// CommitGroup fires when a commit-pipeline leader finishes the WAL write
// for one coalesced group of write batches. Batches is the group size (1
// under a single writer), Ops and Bytes sum the member batches, Synced
// reports whether the group paid a durability barrier (one fsync for the
// whole group — Batches-1 syncs amortized away), and Duration is the
// vectored WAL append including that barrier.
type CommitGroup struct {
	Batches  int           `json:"batches"`
	Ops      int64         `json:"ops"`
	Bytes    int64         `json:"bytes"`
	Synced   bool          `json:"synced,omitempty"`
	Duration time.Duration `json:"dur"`
}

// PCacheAdmit fires when the persistent cache admits blocks of a file. Bulk
// admissions (readahead, compaction warming) report one event per batch.
type PCacheAdmit struct {
	File   uint64 `json:"file"`
	Blocks int    `json:"blocks"`
	Bytes  int64  `json:"bytes"`
}

// PCacheEvict fires when cached blocks of a file are discarded. Reason is
// "clock" (region reclaimed by the CLOCK policy), "lru" (generic-cache LRU
// eviction), or "drop-file" (the file was deleted by compaction).
type PCacheEvict struct {
	File   uint64 `json:"file"`
	Blocks int    `json:"blocks"`
	Bytes  int64  `json:"bytes"`
	Reason string `json:"reason"`
}

// CloudRetry fires when a cloud request fails and will be retried.
type CloudRetry struct {
	Op      string `json:"op"`
	Object  string `json:"object"`
	Attempt int    `json:"attempt"`
	Err     string `json:"err"`
}

// BreakerState fires when a circuit breaker transitions (for example
// "closed" -> "open" when an outage is detected, or "half-open" -> "closed"
// when a probe succeeds). Tier identifies which breaker moved: "cloud"
// (the cloud-outage breaker) or "local" (the local-media breaker guarding
// disk-full / fsync-EIO degradation). Empty means cloud, for traces written
// before the local breaker existed.
type BreakerState struct {
	From string `json:"from"`
	To   string `json:"to"`
	Tier string `json:"tier,omitempty"`
}

// CorruptionDetected fires when a checksum or structural verification
// failure is classified on a local artifact — by the background scrubber or
// by an in-flight read. Artifact is the artifact class: "sstable-block",
// "sstable-meta", "sidecar", "wal-segment", "pcache". Object is the storage
// object name; File the table/segment number when applicable.
type CorruptionDetected struct {
	Artifact string `json:"artifact"`
	Object   string `json:"object"`
	File     uint64 `json:"file,omitempty"`
	Err      string `json:"err"`
}

// CorruptionRepaired fires when a damaged local artifact has been
// re-materialized from its cloud source of truth. Source names where the
// clean copy came from ("cloud-object", "cloud-mirror", "wal-backup",
// "meta-tail").
type CorruptionRepaired struct {
	Artifact string        `json:"artifact"`
	Object   string        `json:"object"`
	File     uint64        `json:"file,omitempty"`
	Source   string        `json:"source"`
	Duration time.Duration `json:"dur"`
}

// ViewBuilt fires when a scan builds a level's sorted view (the globally
// sorted block-cursor run it walks) because the version it pinned had none.
// Members is the level's table count, Entries the cursor count.
type ViewBuilt struct {
	Level    int           `json:"level"`
	Members  int           `json:"members"`
	Entries  int           `json:"entries"`
	Duration time.Duration `json:"dur"`
}

// SlowRead reports one of the worst timed Gets of a tracking interval,
// with its full read-path attribution (see internal/readprof). The
// per-tier arrays are indexed in readprof.Tier order: block cache,
// persistent cache, local disk, cloud.
type SlowRead struct {
	// Key is the user key (truncated to a prefix when long).
	Key      string        `json:"key"`
	Duration time.Duration `json:"dur"`
	// LevelsProbed counts distinct levels consulted including the memtable;
	// LevelServed is the LSM level that resolved the key, -1 for a memtable
	// hit, -2 for not found.
	LevelsProbed  int              `json:"levels_probed"`
	LevelServed   int              `json:"level_served"`
	Tables        int              `json:"tables"`
	BloomChecked  int              `json:"bloom_checked,omitempty"`
	BloomNegative int              `json:"bloom_negative,omitempty"`
	Blocks        [4]int           `json:"blocks"`
	Bytes         [4]int64         `json:"bytes"`
	FetchDur      [4]time.Duration `json:"fetch_dur"`
	// Path renders the serve path, e.g. "mem", "L3:pcache+cloud".
	Path string `json:"path"`
}

// IncidentTriggered fires when a flight-recorder detector rule crosses its
// threshold and opens an incident. Rule is the detector identifier (e.g.
// "cloud-outage"), Severity "warn" or "critical", Value/Threshold the
// observation that crossed, and Bundle the postmortem bundle directory when
// one was written ("" when bundling was rate-limited or disabled).
type IncidentTriggered struct {
	Rule      string  `json:"rule"`
	Severity  string  `json:"severity"`
	Reason    string  `json:"reason"`
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	Bundle    string  `json:"bundle,omitempty"`
}

// Listener receives engine lifecycle events. Embed NopListener to implement
// only the methods of interest.
type Listener interface {
	OnFlushBegin(FlushBegin)
	OnFlushEnd(FlushEnd)
	OnCompactionBegin(CompactionBegin)
	OnCompactionEnd(CompactionEnd)
	OnTableUploaded(TableUploaded)
	OnTableDeleted(TableDeleted)
	OnWriteStallBegin(WriteStallBegin)
	OnWriteStallEnd(WriteStallEnd)
	OnCommitGroup(CommitGroup)
	OnPCacheAdmit(PCacheAdmit)
	OnPCacheEvict(PCacheEvict)
	OnCloudRetry(CloudRetry)
	OnBreakerState(BreakerState)
	OnSlowRead(SlowRead)
	OnCorruptionDetected(CorruptionDetected)
	OnCorruptionRepaired(CorruptionRepaired)
	OnViewBuilt(ViewBuilt)
	OnIncidentTriggered(IncidentTriggered)
}

// NopListener implements Listener with no-ops; embed it in partial
// implementations so they stay compatible as events are added.
type NopListener struct{}

func (NopListener) OnFlushBegin(FlushBegin)           {}
func (NopListener) OnFlushEnd(FlushEnd)               {}
func (NopListener) OnCompactionBegin(CompactionBegin) {}
func (NopListener) OnCompactionEnd(CompactionEnd)     {}
func (NopListener) OnTableUploaded(TableUploaded)     {}
func (NopListener) OnTableDeleted(TableDeleted)       {}
func (NopListener) OnWriteStallBegin(WriteStallBegin) {}
func (NopListener) OnWriteStallEnd(WriteStallEnd)     {}
func (NopListener) OnCommitGroup(CommitGroup)         {}
func (NopListener) OnPCacheAdmit(PCacheAdmit)         {}
func (NopListener) OnPCacheEvict(PCacheEvict)         {}
func (NopListener) OnCloudRetry(CloudRetry)           {}
func (NopListener) OnBreakerState(BreakerState)       {}
func (NopListener) OnSlowRead(SlowRead)               {}

func (NopListener) OnCorruptionDetected(CorruptionDetected) {}
func (NopListener) OnCorruptionRepaired(CorruptionRepaired) {}
func (NopListener) OnViewBuilt(ViewBuilt)                   {}
func (NopListener) OnIncidentTriggered(IncidentTriggered)   {}

// Kind pairs an event type with its payload struct.
type Kind struct {
	Type    Type
	Payload reflect.Type
}

// Kinds is every event kind, in the order of the Type constants. Decoding a
// trace record reads it; a new kind is a payload struct, a Type, a row here,
// a Listener method, and a line each in NopListener, Func and Deliver.
var Kinds = []Kind{
	{TFlushBegin, reflect.TypeOf(FlushBegin{})},
	{TFlushEnd, reflect.TypeOf(FlushEnd{})},
	{TCompactionBegin, reflect.TypeOf(CompactionBegin{})},
	{TCompactionEnd, reflect.TypeOf(CompactionEnd{})},
	{TTableUploaded, reflect.TypeOf(TableUploaded{})},
	{TTableDeleted, reflect.TypeOf(TableDeleted{})},
	{TWriteStallBegin, reflect.TypeOf(WriteStallBegin{})},
	{TWriteStallEnd, reflect.TypeOf(WriteStallEnd{})},
	{TCommitGroup, reflect.TypeOf(CommitGroup{})},
	{TPCacheAdmit, reflect.TypeOf(PCacheAdmit{})},
	{TPCacheEvict, reflect.TypeOf(PCacheEvict{})},
	{TCloudRetry, reflect.TypeOf(CloudRetry{})},
	{TBreakerState, reflect.TypeOf(BreakerState{})},
	{TSlowRead, reflect.TypeOf(SlowRead{})},
	{TCorruptionDetected, reflect.TypeOf(CorruptionDetected{})},
	{TCorruptionRepaired, reflect.TypeOf(CorruptionRepaired{})},
	{TViewBuilt, reflect.TypeOf(ViewBuilt{})},
	{TIncidentTriggered, reflect.TypeOf(IncidentTriggered{})},
}

// Func adapts one function to Listener: every event reaches it as its Type
// and its payload, by value (FlushEnd, not *FlushEnd). A consumer that
// treats all kinds alike — a trace, a ring, a log — is a Func.
type Func func(Type, any)

func (f Func) OnFlushBegin(e FlushBegin)           { f(TFlushBegin, e) }
func (f Func) OnFlushEnd(e FlushEnd)               { f(TFlushEnd, e) }
func (f Func) OnCompactionBegin(e CompactionBegin) { f(TCompactionBegin, e) }
func (f Func) OnCompactionEnd(e CompactionEnd)     { f(TCompactionEnd, e) }
func (f Func) OnTableUploaded(e TableUploaded)     { f(TTableUploaded, e) }
func (f Func) OnTableDeleted(e TableDeleted)       { f(TTableDeleted, e) }
func (f Func) OnWriteStallBegin(e WriteStallBegin) { f(TWriteStallBegin, e) }
func (f Func) OnWriteStallEnd(e WriteStallEnd)     { f(TWriteStallEnd, e) }
func (f Func) OnCommitGroup(e CommitGroup)         { f(TCommitGroup, e) }
func (f Func) OnPCacheAdmit(e PCacheAdmit)         { f(TPCacheAdmit, e) }
func (f Func) OnPCacheEvict(e PCacheEvict)         { f(TPCacheEvict, e) }
func (f Func) OnCloudRetry(e CloudRetry)           { f(TCloudRetry, e) }
func (f Func) OnBreakerState(e BreakerState)       { f(TBreakerState, e) }
func (f Func) OnSlowRead(e SlowRead)               { f(TSlowRead, e) }

func (f Func) OnCorruptionDetected(e CorruptionDetected) { f(TCorruptionDetected, e) }
func (f Func) OnCorruptionRepaired(e CorruptionRepaired) { f(TCorruptionRepaired, e) }
func (f Func) OnViewBuilt(e ViewBuilt)                   { f(TViewBuilt, e) }
func (f Func) OnIncidentTriggered(e IncidentTriggered)   { f(TIncidentTriggered, e) }

// Deliver hands payload e to l's method for its kind; a value of no kind is
// dropped. It is Func run backwards: Deliver(Func(fn), e) calls fn with e's
// Type.
func Deliver(l Listener, e any) {
	switch e := e.(type) {
	case FlushBegin:
		l.OnFlushBegin(e)
	case FlushEnd:
		l.OnFlushEnd(e)
	case CompactionBegin:
		l.OnCompactionBegin(e)
	case CompactionEnd:
		l.OnCompactionEnd(e)
	case TableUploaded:
		l.OnTableUploaded(e)
	case TableDeleted:
		l.OnTableDeleted(e)
	case WriteStallBegin:
		l.OnWriteStallBegin(e)
	case WriteStallEnd:
		l.OnWriteStallEnd(e)
	case CommitGroup:
		l.OnCommitGroup(e)
	case PCacheAdmit:
		l.OnPCacheAdmit(e)
	case PCacheEvict:
		l.OnPCacheEvict(e)
	case CloudRetry:
		l.OnCloudRetry(e)
	case BreakerState:
		l.OnBreakerState(e)
	case SlowRead:
		l.OnSlowRead(e)
	case CorruptionDetected:
		l.OnCorruptionDetected(e)
	case CorruptionRepaired:
		l.OnCorruptionRepaired(e)
	case ViewBuilt:
		l.OnViewBuilt(e)
	case IncidentTriggered:
		l.OnIncidentTriggered(e)
	}
}

// Multi combines listeners into one that dispatches to all of them, in
// argument order. Nil entries are skipped; a single survivor is returned
// unwrapped, and an empty set yields nil (no listener). The combination is a
// Func: each event is boxed once, handed as is to members that are Funcs,
// and delivered to the rest through their methods.
func Multi(ls ...Listener) Listener {
	var fs []Func
	var last Listener
	for _, l := range ls {
		if l == nil {
			continue
		}
		last = l
		f, ok := l.(Func)
		if !ok {
			f = func(_ Type, e any) { Deliver(l, e) }
		}
		fs = append(fs, f)
	}
	if len(fs) < 2 {
		return last
	}
	return Func(func(t Type, e any) {
		for _, f := range fs {
			f(t, e)
		}
	})
}
