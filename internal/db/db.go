package db

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"rocksmash/internal/batch"
	"rocksmash/internal/cache"
	"rocksmash/internal/event"
	"rocksmash/internal/manifest"
	"rocksmash/internal/pcache"
	"rocksmash/internal/readprof"
	"rocksmash/internal/retry"
	"rocksmash/internal/storage"
	"rocksmash/internal/vitals"
)

// ErrClosed is returned by operations on a closed DB.
var ErrClosed = errors.New("db: closed")

// ErrNotFound is returned by Get when the key does not exist.
var ErrNotFound = errors.New("db: key not found")

// ErrCloudUnavailable marks reads that genuinely need the cloud tier while
// its circuit breaker is open. Locally held data (memtables, local-tier
// tables, cached blocks) keeps serving during an outage; only a cold
// cloud-block fetch surfaces this error.
var ErrCloudUnavailable = storage.ErrCloudUnavailable

// ErrLocalUnavailable marks writes that genuinely need the local tier while
// its circuit breaker is open and no cloud fallback exists (PolicyLocalOnly).
var ErrLocalUnavailable = storage.ErrLocalUnavailable

// DB is the LSM-tree store: a facade over Options.Shards engines that
// routes by key or fans out, and owns everything the engines share. It is
// safe for concurrent use.
type DB struct {
	shared
	// local and cloud are the caller's backends, undecorated. Engine I/O goes
	// through each engine's own wrappers; the facade uses these for the
	// store-level objects (shard marker) and the per-device I/O counters.
	local storage.Backend
	cloud storage.Backend
	// engines has one entry per keyspace shard, in shard order. One engine
	// sits directly on local/cloud; several each take a "shard-NNN/" prefix.
	engines []*engine

	// Breaker histories, counted here because the breakers are the
	// store's: every engine sees each transition, the store had one.
	cloudTrips breakerHistory
	localTrips breakerHistory
	// pcacheIndexHealed records that Open found the persistent cache's
	// index snapshot damaged and restarted it cold.
	pcacheIndexHealed bool

	openedAt time.Time

	// dumpMu guards the previous DumpStats call's snapshot and time, the
	// baseline of the next call's interval deltas.
	dumpMu     sync.Mutex
	lastDump   Metrics
	lastDumpAt time.Time

	// vit is the time-series telemetry sampler (Options.VitalsInterval).
	vit *vitals.Sampler

	// flight is the anomaly detector and its incident log, plus the event
	// ring and bundle writer when Options.FlightDir is set.
	flight flightState
}

// Open creates or reopens a DB with explicit backends. local must also host
// the WAL and manifest; cloud may be nil for PolicyLocalOnly.
func Open(opts Options, local storage.Backend, cloud storage.Backend) (*DB, error) {
	opts = opts.sanitize()
	if cloud == nil && opts.Policy != PolicyLocalOnly {
		return nil, errors.New("db: policy requires a cloud backend")
	}
	if err := ensureShardLayout(local, opts.Shards); err != nil {
		return nil, err
	}
	d := &DB{
		shared: shared{
			opts:   opts,
			seqs:   newSeqSource(),
			lat:    newLatencies(),
			tables: newTableCache(maxOpenTables),
			slots:  make(chan struct{}, compactionSlots),
		},
		local:    local,
		cloud:    cloud,
		openedAt: time.Now(),
	}
	// Unwrap decorators (Faulty, Instrumented, ...) to find the simulated
	// cloud for cost reporting and object-loss injection.
	if cs, ok := storage.BaseBackend(cloud).(*storage.Cloud); ok {
		d.cloudSim = cs
	}
	// Assemble the effective listener: the user's plus, with a FlightDir,
	// the flight recorder's event ring. Every engine fires into this one
	// chain, so one trace interleaves all of them.
	d.listener = opts.EventListener
	d.initFlight()
	if ring := d.flight.ring; ring != nil {
		d.listener = event.Multi(d.listener, event.Func(ring.Add))
	}
	if cloud != nil {
		d.breaker = d.newBreaker(opts.CloudBreaker, "cloud", &d.cloudTrips)
	}
	// The local tier gets the symmetric breaker. It exists even for
	// PolicyLocalOnly (there is always a local device): without a cloud
	// fallback an open local breaker cannot redirect flushes, but its state
	// still gates pcache admissions and feeds the metrics.
	d.localBreaker = d.newBreaker(opts.LocalBreaker, "local", &d.localTrips)
	// The caches are one ladder: a cloud block is admitted to the block cache
	// when it is fetched and to the persistent cache when the block cache
	// lets go of it. This sink is the persistent cache's only admission from
	// the read path, so its gate, door, events and counters see every block
	// once. The door's sketch is sized by the blocks both caches hold.
	d.sketch = cache.NewSketch(int((opts.BlockCacheBytes + opts.PCacheBytes) / int64(opts.BlockBytes)))
	if err := d.initPCache(); err != nil {
		d.closeShared()
		return nil, err
	}
	d.blockCache = cache.NewWithSink(opts.BlockCacheBytes, func(k cache.Key, body []byte) {
		d.pcache.Put(k.FileNum, k.Offset, body)
	})

	// Build every engine before opening any (see newEngine), then open them
	// concurrently: each recovers its own WAL stream.
	n := opts.Shards
	if n > 1 {
		d.pcache.Stats().SetKeyspaceShards(n)
	}
	d.engines = make([]*engine, n)
	for i := range d.engines {
		d.engines[i] = newEngine(&d.shared, i)
	}
	opened := make([]bool, n)
	err := d.eachEngine(func(e *engine) error {
		prefix := opts.enginePrefix(e.id)
		err := e.open(prefixed(local, prefix), prefixed(cloud, prefix))
		opened[e.id] = err == nil
		return err
	})
	if err != nil {
		d.closed.Store(true)
		for i, e := range d.engines {
			if opened[i] {
				_ = e.close()
			}
		}
		d.closeShared()
		return nil, err
	}
	d.startVitals()
	return d, nil
}

// breakerHistory counts one breaker's transitions into open and half-open.
type breakerHistory struct {
	trips     atomic.Int64
	halfOpens atomic.Int64
}

// newBreaker builds one tier's circuit breaker. Its transitions are counted
// and announced once, here, then the recovery edge is passed to every
// engine and the user's own callback runs last.
func (d *DB) newBreaker(cfg retry.BreakerConfig, tier string, hist *breakerHistory) *retry.Breaker {
	userCB := cfg.OnStateChange
	cfg.OnStateChange = func(from, to retry.State) {
		switch to {
		case retry.StateOpen:
			hist.trips.Add(1)
		case retry.StateHalfOpen:
			hist.halfOpens.Add(1)
		case retry.StateClosed:
			for _, e := range d.engines {
				e.tierRecovered()
			}
		}
		d.evBreakerState(tier, from.String(), to.String())
		if userCB != nil {
			userCB(from, to)
		}
	}
	return retry.NewBreaker(cfg)
}

// closeShared releases the facade-owned resources, after every engine is
// down.
func (d *DB) closeShared() error {
	var firstErr error
	if d.pcache != nil {
		if d.blockCache != nil {
			// The persistent cache outlives the process and the block cache
			// does not: hand down what is resident before the index snapshot.
			d.blockCache.DemoteAll()
		}
		firstErr = d.pcache.Close()
	}
	d.tables.close()
	return firstErr
}

// OpenAt opens a DB under dir, creating local storage at dir/local, the
// simulated cloud at dir/cloud, and the persistent cache at dir/pcache.
func OpenAt(dir string, opts Options) (*DB, error) {
	d, _, _, err := openAt(dir, opts, nil, nil)
	return d, err
}

// OpenAtChaos opens like OpenAt but wraps the cloud backend in a Faulty
// fault-injection decorator, for benchmark chaos flags and robustness
// experiments. The returned Faulty handle scripts outages and reports
// injected-fault counts; it is nil for PolicyLocalOnly.
func OpenAtChaos(dir string, opts Options, cfg storage.FaultConfig) (*DB, *storage.Faulty, error) {
	d, _, cloudFaulty, err := openAt(dir, opts, nil, &cfg)
	return d, cloudFaulty, err
}

// OpenAtChaosLocal opens like OpenAtChaos but wraps *both* tiers in Faulty
// decorators, so experiments can script local-device faults (bit flips,
// ENOSPC, fsync EIO) alongside cloud outages. The returned handles are
// (localFaulty, cloudFaulty); cloudFaulty is nil for PolicyLocalOnly.
func OpenAtChaosLocal(dir string, opts Options, localCfg, cloudCfg storage.FaultConfig) (*DB, *storage.Faulty, *storage.Faulty, error) {
	return openAt(dir, opts, &localCfg, &cloudCfg)
}

// openAt is the body of the OpenAt family: a tier whose config is non-nil
// is wrapped in a Faulty decorator, returned with the DB.
func openAt(dir string, opts Options, localCfg, cloudCfg *storage.FaultConfig) (*DB, *storage.Faulty, *storage.Faulty, error) {
	opts = opts.sanitize()
	l, err := storage.NewLocal(filepath.Join(dir, "local"))
	if err != nil {
		return nil, nil, nil, err
	}
	var local, cloud storage.Backend = l, nil
	var localFaulty, cloudFaulty *storage.Faulty
	if localCfg != nil {
		localFaulty = storage.NewFaulty(l, *localCfg)
		local = localFaulty
	}
	if opts.Policy != PolicyLocalOnly {
		c, err := storage.NewCloud(filepath.Join(dir, "cloud"), opts.CloudLatency, opts.CloudCost)
		if err != nil {
			return nil, nil, nil, err
		}
		cloud = c
		if cloudCfg != nil {
			cloudFaulty = storage.NewFaulty(c, *cloudCfg)
			cloud = cloudFaulty
		}
	}
	opts.pcacheDir = filepath.Join(dir, "pcache")
	d, err := Open(opts, local, cloud)
	if err != nil {
		return nil, nil, nil, err
	}
	return d, localFaulty, cloudFaulty, nil
}

func (d *DB) initPCache() error {
	dir := d.opts.pcacheDir
	if dir == "" {
		if l, ok := storage.BaseBackend(d.local).(*storage.Local); ok {
			dir = filepath.Join(l.Root(), "..", "pcache")
		} else {
			dir = "pcache"
		}
	}
	o := pcache.Options{
		Dir:         dir,
		RegionBytes: d.opts.PCacheRegionBytes,
		Generic:     d.opts.Policy == PolicyCloudLRU,
		Listener:    d.listener,
		// Cache admissions are writes to the local device; gate them off
		// while the local tier is degraded.
		Admit:  func() bool { return d.localBreaker.State() != retry.StateOpen },
		Sketch: d.sketch,
	}
	if d.opts.Policy == PolicyMash || d.opts.Policy == PolicyCloudLRU {
		o.CapacityBytes = d.opts.PCacheBytes // else no index: nothing is cached
	}
	pc, err := pcache.New(o)
	if err != nil {
		return err
	}
	if pc.IndexWasCorrupt() {
		// A damaged index snapshot is self-healing by design: the cache
		// restarts cold and refills from the cloud. Metrics counts it as a
		// detected and repaired corruption so scrub reconciliation stays
		// honest.
		d.pcacheIndexHealed = true
		d.evCorruptionDetected("pcache-index", "INDEX", 0, errors.New("pcache: index snapshot corrupt"))
		d.evCorruptionRepaired("pcache-index", "INDEX", 0, "cold-start", 0)
	}
	d.pcache = pc
	return nil
}

// eachEngine runs fn on every engine concurrently (the caller's goroutine
// takes engine 0) and joins the errors; a lone error is returned as is.
func (d *DB) eachEngine(fn func(*engine) error) error {
	errs := make([]error, len(d.engines))
	var wg sync.WaitGroup
	for _, e := range d.engines[1:] {
		wg.Add(1)
		go func(e *engine) {
			defer wg.Done()
			errs[e.id] = fn(e)
		}(e)
	}
	errs[0] = fn(d.engines[0])
	wg.Wait()
	var first error
	failed := 0
	for _, err := range errs {
		if err != nil {
			if first == nil {
				first = err
			}
			failed++
		}
	}
	if failed <= 1 {
		return first
	}
	return errors.Join(errs...)
}

// putBatches recycles the one-record batches of Put and Delete. A batch
// goes back only after Write returns, when nothing holds its bytes: the WAL
// copied the payload into its own encode buffer and the memtable copied key
// and value into its arena.
var putBatches = sync.Pool{New: func() any { return batch.New() }}

// maxPooledBatch keeps a Put of a huge value from pinning its buffer in
// the pool.
const maxPooledBatch = 64 << 10

func releasePutBatch(b *batch.Batch) {
	if b.Size() > maxPooledBatch {
		return
	}
	b.Reset()
	putBatches.Put(b)
}

// Put stores a key/value pair.
func (d *DB) Put(key, value []byte) error {
	b := putBatches.Get().(*batch.Batch)
	b.Set(key, value)
	err := d.Write(b)
	releasePutBatch(b)
	return err
}

// Delete removes a key.
func (d *DB) Delete(key []byte) error {
	b := putBatches.Get().(*batch.Batch)
	b.Delete(key)
	err := d.Write(b)
	releasePutBatch(b)
	return err
}

// Write applies a batch. A batch whose keys all hash to one engine — every
// Put and Delete, and every batch of an unsharded store — commits
// atomically. A batch spanning engines is split by key hash and committed
// per engine: each sub-batch is atomic and the caller observes all of them
// applied on return, but a reader racing the write may see one engine's
// portion before another's.
func (d *DB) Write(b *batch.Batch) error {
	if d.closed.Load() {
		return ErrClosed
	}
	if b.Empty() {
		return nil
	}
	e, err := d.engineOf(b)
	if err != nil {
		return err
	}
	if e != nil {
		return e.write(b)
	}
	return d.splitWrite(b)
}

// Get returns the value for key at the latest sequence number. A point
// read depends only on writes to key's own engine, so it reads at that
// engine's acked frontier — no need to touch the global watermark, which
// may trail another engine's in-flight commits.
func (d *DB) Get(key []byte) ([]byte, error) {
	return d.engineFor(key).get(key, atFrontier, nil)
}

// GetAt returns the value for key visible at snapshot seq; keys.MaxSequence
// reads at the acked frontier, as Get does.
func (d *DB) GetAt(key []byte, seq uint64) ([]byte, error) {
	return d.engineFor(key).get(key, seq, nil)
}

// GetProfiled is Get with full attribution: the returned Profile reports
// where the read was served from and what it cost, regardless of the
// sampling rate. The read still feeds the aggregate counters.
func (d *DB) GetProfiled(key []byte) ([]byte, readprof.Profile, error) {
	var prof readprof.Profile
	v, err := d.engineFor(key).get(key, atFrontier, &prof)
	return v, prof, err
}

// Has reports whether key exists.
func (d *DB) Has(key []byte) (bool, error) {
	_, err := d.Get(key)
	if err == ErrNotFound {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, nil
}

// Snapshot captures a read view of the DB. Release it when done so
// compaction can reclaim versions it pins.
type Snapshot struct {
	db       *DB
	seq      uint64
	released bool
}

// GetSnapshot returns a consistent read view at the current sequence. The
// snapshot sequence comes from the shared visibility watermark and is
// pinned in every engine, so reads through it observe a single point in
// time across the keyspace. The watermark is first caught up to the acked
// frontier, so every write that returned before this call is inside the
// snapshot.
func (d *DB) GetSnapshot() *Snapshot {
	for {
		d.seqs.waitVisible(d.ackedSeq())
		s := &Snapshot{db: d, seq: d.seqs.visible.Load()}
		for _, e := range d.engines {
			e.registerSnapshot(s.seq)
		}
		if !d.droppedAbove(s.seq) {
			return s
		}
		// A compaction that began before the registration may drop what
		// the snapshot should see: take a newer sequence.
		s.Release()
	}
}

// droppedAbove reports whether a compaction in any engine may have dropped
// versions visible at seq: a snapshot or iterator that took seq before it
// and registered or pinned after it began must take a newer one.
func (d *DB) droppedAbove(seq uint64) bool {
	for _, e := range d.engines {
		if e.horizon.Load() > seq {
			return true
		}
	}
	return false
}

// Release unpins the snapshot. Reads through a released snapshot may
// observe compacted state.
func (s *Snapshot) Release() {
	if s.released {
		return
	}
	s.released = true
	for _, e := range s.db.engines {
		e.unregisterSnapshot(s.seq)
	}
}

// Get reads key at the snapshot.
func (s *Snapshot) Get(key []byte) ([]byte, error) { return s.db.GetAt(key, s.seq) }

// Seq returns the snapshot's sequence number.
func (s *Snapshot) Seq() uint64 { return s.seq }

// Flush forces every engine's current memtable (and any recovery
// memtables) to an SSTable and waits.
func (d *DB) Flush() error { return d.eachEngine((*engine).flush) }

// CompactAll flushes and then compacts, one job at a time per engine, until
// every tree is quiescent. Background compactions pause meanwhile, so the
// same tree and the same writes always give the same result. Used by
// experiments to reach a steady state.
func (d *DB) CompactAll() error { return d.eachEngine((*engine).compactAll) }

// Close flushes state and releases resources.
func (d *DB) Close() error {
	if !d.closed.CompareAndSwap(false, true) {
		return nil
	}
	d.vit.Stop()
	firstErr := d.eachEngine((*engine).close)
	if err := d.closeShared(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// LastSequence returns the newest committed sequence number.
func (d *DB) LastSequence() uint64 { return d.ackedSeq() }

// ackedSeq returns the store's acknowledged frontier: the newest sequence
// any engine has acked a writer for.
func (d *DB) ackedSeq() uint64 {
	var max uint64
	for _, e := range d.engines {
		if ls := e.lastSeq.Load(); ls > max {
			max = ls
		}
	}
	return max
}

// Crash abandons the DB without flushing or closing cleanly, simulating a
// process crash. Used by recovery experiments and tests; the handle must
// not be used afterwards. Data appended to the WAL remains recoverable.
func (d *DB) Crash() {
	if !d.closed.CompareAndSwap(false, true) {
		return
	}
	d.vit.Stop()
	_ = d.eachEngine(func(e *engine) error {
		e.stop()
		return nil
	})
	d.tables.close()
}

// LoseCloudObject simulates silent loss of a cloud object (reliability
// experiments). It reports false when the DB has no simulated cloud.
func (d *DB) LoseCloudObject(name string) bool {
	if d.cloudSim == nil {
		return false
	}
	// Losing the name in every engine's namespace hits whichever engine
	// actually holds it.
	for i := range d.engines {
		d.cloudSim.LoseObject(d.opts.enginePrefix(i) + name)
	}
	return true
}

// debugLevels is used by tests to inspect the file layout.
func (d *DB) debugLevels() [manifest.NumLevels]int {
	var out [manifest.NumLevels]int
	for _, e := range d.engines {
		v := e.vs.Current()
		for l := range v.Levels {
			out[l] += len(v.Levels[l])
		}
	}
	return out
}

// String summarizes the DB for logs.
func (d *DB) String() string {
	var files int
	for _, e := range d.engines {
		files += e.vs.Current().NumFiles()
	}
	return fmt.Sprintf("db{policy=%s shards=%d files=%d lastSeq=%d}",
		d.opts.Policy, len(d.engines), files, d.ackedSeq())
}
