// Package rocksmash is a fast and efficient LSM-tree key–value store that
// integrates local storage with cloud object storage, reproducing the
// design of "Building A Fast and Efficient LSM-tree Store by Integrating
// Local Storage with Cloud Storage" (CLUSTER 2021 / RocksMash).
//
// The store keeps frequently accessed data — the write-ahead log, all
// metadata, and the upper LSM levels — on fast local storage, while the
// bulk of colder data lives in cloud object storage for cost-effectiveness.
// Reads of cloud-resident data are served through an LSM-aware persistent
// cache on local disk, and an extended write-ahead log enables fast
// parallel crash recovery.
//
// # Quickstart
//
//	db, err := rocksmash.Open("/tmp/mydb", nil)
//	if err != nil { ... }
//	defer db.Close()
//
//	db.Put([]byte("user:42"), []byte(`{"name":"ada"}`))
//	v, err := db.Get([]byte("user:42"))
//
//	it, _ := db.NewIterator()
//	defer it.Close()
//	for it.Seek([]byte("user:")); it.Valid(); it.Next() {
//	    fmt.Printf("%s = %s\n", it.Key(), it.Value())
//	}
//
// # Placement policies
//
// Open's options select a placement Policy. PolicyMash (default) is the
// paper's hybrid design. PolicyLocalOnly, PolicyCloudOnly and
// PolicyCloudLRU reproduce the comparison schemes from the paper's
// evaluation on the same engine.
package rocksmash

import (
	"rocksmash/internal/batch"
	"rocksmash/internal/db"
	"rocksmash/internal/event"
	"rocksmash/internal/sstable"
	"rocksmash/internal/storage"
)

// DB is an open store handle, safe for concurrent use.
type DB = db.DB

// Options configures a store; the zero value of any field falls back to
// the default from DefaultOptions.
type Options = db.Options

// Policy selects the local/cloud placement scheme.
type Policy = db.Policy

// Placement policies (see the package comment).
const (
	PolicyMash      = db.PolicyMash
	PolicyLocalOnly = db.PolicyLocalOnly
	PolicyCloudOnly = db.PolicyCloudOnly
	PolicyCloudLRU  = db.PolicyCloudLRU
)

// Compression selects the SSTable data-block codec (Options.Compression).
type Compression = sstable.Compression

// Data-block codecs.
const (
	CompressionNone  = sstable.CompressionNone
	CompressionFlate = sstable.CompressionFlate
)

// WriteBatch collects writes to be applied atomically via DB.Write.
type WriteBatch = batch.Batch

// Iterator walks live keys in either direction: First/Seek/Next forward,
// Last/SeekForPrev/Prev backward. Directions can be mixed freely.
type Iterator = db.Iterator

// Snapshot is a consistent read view; Release it when done.
type Snapshot = db.Snapshot

// Metrics is a point-in-time operational summary.
type Metrics = db.Metrics

// LatencySummary condenses one latency histogram (count, mean, p50/p90/p99,
// max), as embedded in Metrics.
type LatencySummary = db.LatencySummary

// EventListener receives engine lifecycle events (Options.EventListener).
// Embed NopListener to implement only the events of interest; see the
// internal event package docs for the listener contract.
type EventListener = event.Listener

// NopListener implements EventListener with no-ops, for embedding.
type NopListener = event.NopListener

// TraceWriter is an EventListener that appends every event as a JSON line,
// summarized by `mashctl trace`.
type TraceWriter = event.TraceWriter

// CreateTrace creates the trace file at path. Close the writer after
// DB.Close: engine shutdown still fires events.
func CreateTrace(path string) (*TraceWriter, error) { return event.CreateTrace(path) }

// Event payload types, as delivered to an EventListener.
type (
	FlushBeginEvent      = event.FlushBegin
	FlushEndEvent        = event.FlushEnd
	CompactionBeginEvent = event.CompactionBegin
	CompactionEndEvent   = event.CompactionEnd
	TableUploadedEvent   = event.TableUploaded
	TableDeletedEvent    = event.TableDeleted
	WriteStallBeginEvent = event.WriteStallBegin
	WriteStallEndEvent   = event.WriteStallEnd
	PCacheAdmitEvent     = event.PCacheAdmit
	PCacheEvictEvent     = event.PCacheEvict
	CloudRetryEvent      = event.CloudRetry
)

// RecoveryReport describes the work the last Open performed to recover.
type RecoveryReport = db.RecoveryReport

// LatencyModel configures the simulated cloud backend's performance.
type LatencyModel = storage.LatencyModel

// CostModel prices simulated cloud usage.
type CostModel = storage.CostModel

// CostReport is a priced summary of cloud usage.
type CostReport = storage.CostReport

// Sentinel errors.
var (
	// ErrNotFound is returned by Get for missing keys.
	ErrNotFound = db.ErrNotFound
	// ErrClosed is returned by operations on a closed DB.
	ErrClosed = db.ErrClosed
)

// DefaultOptions returns the PolicyMash defaults.
func DefaultOptions() Options { return db.DefaultOptions() }

// Open opens (creating if necessary) a store rooted at dir. Local data
// lives under dir/local, the simulated cloud store under dir/cloud, and
// the persistent cache under dir/pcache. A nil opts uses DefaultOptions.
func Open(dir string, opts *Options) (*DB, error) {
	o := DefaultOptions()
	if opts != nil {
		o = *opts
	}
	return db.OpenAt(dir, o)
}

// NewWriteBatch returns an empty batch.
func NewWriteBatch() *WriteBatch { return batch.New() }
