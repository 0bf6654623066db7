package db

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"rocksmash/internal/batch"
	"rocksmash/internal/cache"
	"rocksmash/internal/event"
	"rocksmash/internal/keys"
	"rocksmash/internal/manifest"
	"rocksmash/internal/memtable"
	"rocksmash/internal/pcache"
	"rocksmash/internal/readprof"
	"rocksmash/internal/retry"
	"rocksmash/internal/storage"
	"rocksmash/internal/wal"
)

// shared is the state a store keeps once no matter how many engines it
// runs. The DB facade owns it (and is the only one to close any of it);
// every engine reads it through one pointer.
type shared struct {
	opts Options

	// One block cache, persistent cache, and table cache for the whole
	// store: file numbers are unique across engines (striped when there is
	// more than one), so the caches need no engine dimension in their keys.
	// The two block caches are one ladder: a cloud block enters blockCache
	// when it is fetched (PutCloud) and pcache when blockCache lets go of it
	// (the sink DB.Open wires). Nothing on a read path calls pcache.Put.
	blockCache *cache.Cache
	pcache     pcache.BlockCache
	tables     *tableCache
	// lat holds the always-on per-operation latency histograms.
	lat *latencies
	// seqs allocates sequence numbers and publishes the visibility
	// watermark; one source keeps snapshots consistent across engines.
	seqs *seqSource
	// breaker guards the cloud tier (nil without one) and localBreaker the
	// local device. Each tier is one dependency, so a failure observed by
	// any engine fails the others fast.
	breaker      *retry.Breaker
	localBreaker *retry.Breaker
	// listener receives lifecycle events; nil when observability is off
	// (the fast path — every fire site is nil-guarded and allocation-free).
	listener event.Listener
	// cloudSim is non-nil when the store sits on a simulated cloud backend
	// and can produce cost reports.
	cloudSim *storage.Cloud

	closed atomic.Bool
}

// engine is one LSM-tree over one pair of backends: memtables, WAL,
// manifest, commit pipeline, and the flush/compaction/drain/scrub loops.
// A store runs Options.Shards of them behind the DB facade.
type engine struct {
	*shared
	// id is this engine's index in DB.engines; with more than one engine it
	// is also the residue class of its striped file numbers.
	id int

	// local and cloud are this engine's slice of the store's backends,
	// wrapped for per-tier latency recording. cloudRel is the retry/breaker
	// decorator cloud points at (nil for PolicyLocalOnly).
	local    storage.Backend
	cloud    storage.Backend
	cloudRel *storage.Reliable

	vs  *manifest.Set
	wal *wal.Manager

	// ackRing is this engine's slice of the seqSource's allocation order:
	// its own commits, in sequence order, awaiting their memtable apply.
	// Writers are acked when their entry reaches the front, so one engine's
	// commits never wait out another engine's in-flight group. Guarded by
	// seqs.mu.
	ackRing []*commitEntry
	ackHead int

	// commitMu serializes the legacy write path (WAL append + memtable
	// apply) when the commit pipeline is disabled.
	commitMu sync.Mutex
	// pipeline is the parallel group-commit path (see commit.go); nil when
	// Options.DisableCommitPipeline reverts to the serial commitMu path.
	pipeline *commitPipeline
	// compactionMu serializes compaction pick+execute units.
	compactionMu sync.Mutex

	// mu guards memtable rotation and background state.
	mu      sync.Mutex
	mem     *memtable.MemTable
	imm     *memtable.MemTable // sealed memtable being flushed
	immWake *sync.Cond         // signalled when imm drains
	// recovered holds read-only memtables rebuilt by WAL recovery (one
	// per replayed segment, enabling parallel replay). They contain only
	// sequence numbers older than mem/imm and drain into L0 at the next
	// flush.
	recovered []*memtable.MemTable
	// rs caches the read-visible memtable set (mem/imm/recovered) behind an
	// atomic pointer so point reads and iterator construction never contend
	// on d.mu; every mutation site republishes via updateReadStateLocked.
	rs atomic.Pointer[readState]
	// lastSeq is this engine's acked frontier: the newest sequence it has
	// released a writer for.
	lastSeq    atomic.Uint64
	bgErr      error
	snaps      map[uint64]int // active snapshot seq -> refcount
	compactPtr map[int][]byte // per-level round-robin compaction cursor

	bgWork chan struct{}
	bgQuit chan struct{}
	bgDone chan struct{}

	// drainWake nudges the pending-upload drainer ahead of its ticker (a
	// breaker closing sends here); drainDone closes when the drainer exits.
	// deferredMu guards deferred, the queue of table/sidecar deletions that
	// failed and will be retried by the drainer.
	drainWake  chan struct{}
	drainDone  chan struct{}
	deferredMu sync.Mutex
	deferred   []deferredDelete
	// obsolete queues the tables the manifest set has reported obsolete until
	// a background goroutine retires them (retire.go); retireMu serializes
	// those drains.
	obsoleteMu sync.Mutex
	obsolete   []manifest.Obsolete
	retireMu   sync.Mutex

	// repairMu serializes cloud-backed repairs of corrupt local artifacts so
	// concurrent readers hitting the same damage trigger one re-fetch;
	// quarantined holds table numbers whose damage had no clean source and
	// must not be recounted on every read.
	repairMu    sync.Mutex
	quarantined map[uint64]bool
	// mirrorMu guards mirrored, the set of local-tier tables whose bytes are
	// known to have a cloud copy (Options.MirrorLocalLevels lazy uploads,
	// plus copies reconciled from a cloud listing at Open).
	mirrorMu sync.Mutex
	mirrored map[uint64]bool
	// scrubDone closes when the background scrub loop exits; nil when
	// Options.ScrubInterval is zero.
	scrubDone chan struct{}

	// views caches decoded sorted-view sidecars per level and dedupes their
	// background builds; viewWG tracks in-flight builders so close can drain
	// them before the facade tears down the table cache.
	views  viewRegistry
	viewWG sync.WaitGroup

	stats Stats
	// profTick drives 1-in-N selection of Timed (clock-reading) read
	// profiles; readAgg accumulates every sampled profile; slow tracks the
	// worst timed Gets per interval for slow-read trace emission.
	profTick atomic.Uint64
	readAgg  readAgg
	slow     slowTracker

	recovery RecoveryReport
}

// newEngine allocates engine id without touching storage. The facade
// builds every engine before opening any, so a breaker transition during
// one engine's recovery can already reach the others' wake channels.
func newEngine(s *shared, id int) *engine {
	d := &engine{
		shared:      s,
		id:          id,
		mem:         memtable.New(),
		bgWork:      make(chan struct{}, 1),
		bgQuit:      make(chan struct{}),
		bgDone:      make(chan struct{}),
		drainWake:   make(chan struct{}, 1),
		drainDone:   make(chan struct{}),
		quarantined: map[uint64]bool{},
		mirrored:    map[uint64]bool{},
	}
	d.immWake = sync.NewCond(&d.mu)
	d.rs.Store(&readState{mem: d.mem})
	return d
}

// open recovers the engine from its backends and starts its background
// loops. local also hosts the WAL and manifest; cloud is nil for
// PolicyLocalOnly.
func (d *engine) open(local, cloud storage.Backend) error {
	// Route SSTable and sidecar I/O through recording wrappers so GET/PUT
	// latency is measured per tier. The WAL and manifest keep the raw local
	// backend: their I/O granularity (append, rotate) is not a per-object
	// PUT and would pollute the distribution.
	d.local = storage.Instrument(local, d.lat.localGet, d.lat.localPut)
	if cloud != nil {
		// Layering: Reliable(Instrumented(cloud)) — each retry is a real
		// request and lands in the latency histograms; the breaker and
		// backoff sit above them. Backoff waits abort at bgQuit so close
		// never sleeps out an outage.
		d.cloudRel = storage.NewReliable(
			storage.Instrument(cloud, d.lat.cloudGet, d.lat.cloudPut),
			d.opts.CloudRetry, d.breaker, d.onCloudRetry, d.bgQuit)
		d.cloud = d.cloudRel
	}

	var err error
	if d.vs, err = manifest.Open(local); err != nil {
		return err
	}
	d.vs.OnObsolete(d.tablesObsolete)
	if n := d.opts.Shards; n > 1 {
		// Stripe file numbering so file numbers are unique across engines:
		// the shared caches key on bare file numbers, and fileNum % n
		// recovers the owning engine for attribution.
		d.vs.SetStride(uint64(n), uint64(d.id))
	}
	d.lastSeq.Store(d.vs.LastSeq())

	walOpts := wal.Options{
		Dir:          "wal",
		SegmentBytes: d.opts.WALSegmentBytes,
		Sync:         d.opts.WALSync,
		Extended:     d.opts.ExtendedWAL,
	}
	if d.opts.WALCloudBackup && cloud != nil {
		// Through the instrumented wrapper: segment backups are whole-object
		// PUTs and belong in the cloud PUT latency distribution.
		walOpts.Backup = d.cloud
	}
	if d.wal, err = wal.Open(local, walOpts, 1); err != nil {
		return err
	}
	if err := d.recover(); err != nil {
		return err
	}
	// Replayed writes are already applied, so they are visible by
	// definition; lift the shared sequence source over them.
	d.seqs.raise(d.lastSeq.Load())
	// Register every live file's level with the persistent cache so its
	// hit/miss counters attribute correctly from the first read.
	d.vs.Current().AllFiles(func(level int, f *manifest.FileMetadata) {
		d.pcache.SetLevel(f.Num, level)
	})
	if !d.opts.DisableCommitPipeline {
		d.pipeline = newCommitPipeline(d)
	}
	// A crash between an object write and its manifest edit (or during a
	// degraded-mode drain) can strand table objects no version references.
	// Background work has not started yet, so the sweep races nothing.
	d.cleanOrphans()
	go d.backgroundLoop()
	go d.drainLoop()
	if d.opts.ScrubInterval > 0 {
		d.scrubDone = make(chan struct{})
		go d.scrubLoop()
	}
	return nil
}

func (d *engine) backendFor(t storage.Tier) storage.Backend {
	if t == storage.TierCloud {
		return d.cloud
	}
	return d.local
}

// write commits one batch: in the WAL, applied to the memtable, and acked
// at this engine's frontier on return.
func (d *engine) write(b *batch.Batch) error {
	start := time.Now()
	err := d.commit(b)
	// Commit latency includes any stall time: that is what a caller of Put
	// observes, and stall tails are exactly what the histogram is for.
	d.lat.put.Record(time.Since(start))
	return err
}

func (d *engine) commit(b *batch.Batch) error {
	if err := d.makeRoomForWrite(int64(b.Size())); err != nil {
		return err
	}
	if p := d.pipeline; p != nil {
		return p.commit(b)
	}

	// Serial path: one writer at a time per engine (commitMu), but sequence
	// allocation and visibility still route through the shared seqSource so
	// the store keeps one globally ordered watermark regardless of which
	// commit path is configured.
	d.commitMu.Lock()
	defer d.commitMu.Unlock()
	ss := d.seqs
	e := entryPool.Get().(*commitEntry)
	e.b, e.d, e.mem = b, d, nil
	e.err, e.promoted, e.applied = nil, false, false
	ss.mu.Lock()
	b.SetSeq(ss.nextSeq)
	ss.nextSeq += uint64(b.Count())
	e.maxSeq = b.MaxSeq()
	ss.enqueueLocked(d, e)
	ss.mu.Unlock()
	if _, err := d.wal.Append(b.Payload(), b.Seq(), e.maxSeq); err != nil {
		// The allocated range is a hole: recovery and visibility tolerate
		// gaps, matching the pipeline's failed-group semantics.
		e.err = err
	} else {
		mem := d.currentMem()
		e.err = b.Iterate(func(op batch.Op) error {
			mem.Add(op.Seq, op.Kind, op.Key, op.Value)
			return nil
		})
		if e.err == nil {
			d.stats.Writes.Add(int64(b.Count()))
			d.stats.BytesWritten.Add(int64(b.Size()))
		}
	}
	ss.markApplied(e)
	<-e.visible
	err := e.err
	e.b, e.d, e.mem = nil, nil, nil
	entryPool.Put(e)
	return err
}

func (d *engine) currentMem() *memtable.MemTable {
	d.mu.Lock()
	m := d.mem
	d.mu.Unlock()
	return m
}

// readState is the immutable snapshot of the read-visible memtable set.
// Readers load it with one atomic pointer read instead of taking d.mu.
type readState struct {
	mem       *memtable.MemTable
	imm       *memtable.MemTable
	recovered []*memtable.MemTable
}

// updateReadStateLocked republishes the read snapshot; the caller holds
// d.mu and has just mutated mem, imm, or recovered.
func (d *engine) updateReadStateLocked() {
	d.rs.Store(&readState{mem: d.mem, imm: d.imm, recovered: d.recovered})
}

// makeRoomForWrite seals the memtable when full and applies backpressure
// when flushing or L0 falls behind. Stall events fire with d.mu released
// (the listener contract); the loop re-evaluates its conditions after every
// re-acquisition, so the temporary unlock is safe.
func (d *engine) makeRoomForWrite(incoming int64) (err error) {
	var (
		stallStart  time.Time
		stallReason string
	)
	d.mu.Lock()
	defer func() {
		d.mu.Unlock()
		if !stallStart.IsZero() {
			if l := d.listener; l != nil {
				l.OnWriteStallEnd(event.WriteStallEnd{
					Reason:   stallReason,
					Duration: time.Since(stallStart),
				})
			}
		}
	}()
	// stallBegin marks and counts the stall, whichever its cause, and fires
	// WriteStallBegin outside d.mu. It returns with d.mu re-held; the caller
	// must re-check conditions.
	stallBegin := func(reason string) {
		stallStart, stallReason = time.Now(), reason
		d.stats.WriteStalls.Add(1)
		if l := d.listener; l != nil {
			d.mu.Unlock()
			l.OnWriteStallBegin(event.WriteStallBegin{Reason: reason})
			d.mu.Lock()
		}
	}
	for {
		if d.bgErr != nil {
			return d.bgErr
		}
		switch {
		case d.mem.ApproximateSize()+incoming < d.opts.MemtableBytes,
			d.mem.Empty():
			// A batch larger than the memtable budget must still be
			// admitted once the memtable is empty, or it could never
			// commit.
			return nil
		case d.imm != nil:
			// A flush is already in flight; wait for it.
			if stallStart.IsZero() {
				stallBegin("memtable")
				continue
			}
			d.immWake.Wait()
		case len(d.vs.Current().Levels[0]) >= d.opts.L0StallFiles:
			// Too many L0 files; wait for compaction to catch up.
			if stallStart.IsZero() {
				d.stats.WriteStallsL0.Add(1)
				stallBegin("l0")
				continue
			}
			d.immWake.Wait()
		default:
			// Seal the memtable. Roll the WAL so the sealed memtable's
			// tail aligns with a segment boundary (eWAL design).
			d.imm = d.mem
			d.mem = memtable.New()
			d.updateReadStateLocked()
			if err := d.wal.Roll(); err != nil {
				d.bgErr = err
				return err
			}
			d.scheduleWork()
			return nil
		}
	}
}

func (d *engine) scheduleWork() {
	select {
	case d.bgWork <- struct{}{}:
	default:
	}
}

// get returns the value for key visible at snapshot seq.
func (d *engine) get(key []byte, seq uint64) ([]byte, error) {
	if d.closed.Load() {
		return nil, ErrClosed
	}
	d.stats.Reads.Add(1)
	// Read profiling: every Get carries a pooled profile (cheap counter
	// core) unless disabled; 1-in-ReadProfileSampleRate of them are Timed
	// and additionally pay per-stage clock reads.
	var prof *readprof.Profile
	if rate := d.opts.ReadProfileSampleRate; rate > 0 {
		prof = getProfile()
		prof.Timed = rate == 1 || d.profTick.Add(1)%uint64(rate) == 0
	}
	start := time.Now()
	v, err := d.getAt(key, seq, prof)
	elapsed := time.Since(start)
	d.lat.get.Record(elapsed)
	if prof != nil {
		d.finishProfile(key, prof, elapsed)
	}
	return v, err
}

// getProfiled is get at the acked frontier with full attribution,
// regardless of the sampling rate.
func (d *engine) getProfiled(key []byte) ([]byte, readprof.Profile, error) {
	if d.closed.Load() {
		return nil, readprof.Profile{}, ErrClosed
	}
	d.stats.Reads.Add(1)
	prof := getProfile()
	prof.Timed = true
	start := time.Now()
	v, err := d.getAt(key, d.lastSeq.Load(), prof)
	elapsed := time.Since(start)
	d.lat.get.Record(elapsed)
	prof.TotalNanos = elapsed.Nanoseconds()
	out := *prof
	d.finishProfile(key, prof, elapsed)
	return v, out, err
}

func (d *engine) getAt(key []byte, seq uint64, prof *readprof.Profile) ([]byte, error) {
	// One atomic load instead of d.mu: reads stay off the rotation lock so
	// a write-heavy workload cannot starve point lookups (and vice versa).
	rs := d.rs.Load()
	mem, imm := rs.mem, rs.imm
	recovered := rs.recovered

	// One seek key for every memtable and table this read probes, built on
	// the stack; the value copy handed back is the read's only allocation.
	var buf [keys.SeekBufLen]byte
	seek := keys.MakeSeekKey(buf[:0], key, seq)

	if v, found, live := mem.GetSeek(seek); found {
		if prof != nil {
			prof.LevelServed = readprof.LevelMemtable
		}
		if !live {
			return nil, ErrNotFound
		}
		return append([]byte(nil), v...), nil
	}
	if imm != nil {
		if v, found, live := imm.GetSeek(seek); found {
			if prof != nil {
				prof.LevelServed = readprof.LevelMemtable
			}
			if !live {
				return nil, ErrNotFound
			}
			return append([]byte(nil), v...), nil
		}
	}
	if len(recovered) > 0 {
		// Recovered memtables are unordered relative to each other; pick
		// the newest visible entry across all of them.
		if v, live, ok := getFromRecovered(recovered, seek); ok {
			if prof != nil {
				prof.LevelServed = readprof.LevelMemtable
			}
			if !live {
				return nil, ErrNotFound
			}
			return v, nil
		}
	}

	// Pinned for the walk, so every table it names stays openable. A snapshot
	// read pins the current version too: a snapshot is a sequence number, and
	// compaction keeps what it can see in whatever tables are current.
	v := d.vs.Acquire()
	var (
		value []byte
		state int // 0 = not found, 1 = live, 2 = tombstone
	)
	err := v.FilesFor(key, func(level int, f *manifest.FileMetadata) (bool, error) {
		if prof != nil {
			prof.ProbeLevel(level)
		}
		if seq < f.MinSeq && level > 0 {
			// Nothing in this file is visible at the snapshot.
			return false, nil
		}
		h, err := d.tables.get(d, f)
		if err != nil {
			return false, err
		}
		defer h.release()
		if prof != nil {
			prof.Tables++
		}
		val, found, live, err := h.reader.GetSeek(seek, prof)
		if err != nil {
			return false, err
		}
		if !found {
			return false, nil
		}
		if prof != nil {
			prof.LevelServed = int8(level)
		}
		if live {
			value, state = val, 1
		} else {
			state = 2
		}
		return true, nil
	})
	d.unpin(v)
	if err != nil {
		return nil, err
	}
	if state == 1 {
		return value, nil
	}
	return nil, ErrNotFound
}

func (d *engine) registerSnapshot(seq uint64) {
	d.mu.Lock()
	if d.snaps == nil {
		d.snaps = map[uint64]int{}
	}
	d.snaps[seq]++
	d.mu.Unlock()
}

func (d *engine) unregisterSnapshot(seq uint64) {
	d.mu.Lock()
	if n := d.snaps[seq]; n <= 1 {
		delete(d.snaps, seq)
	} else {
		d.snaps[seq] = n - 1
	}
	d.mu.Unlock()
}

// flush forces the current memtable (and any recovery memtables) to an
// SSTable and waits.
func (d *engine) flush() error {
	d.mu.Lock()
	if d.mem.Empty() && d.imm == nil && len(d.recovered) == 0 {
		d.mu.Unlock()
		return nil
	}
	for d.imm != nil {
		if d.bgErr != nil {
			err := d.bgErr
			d.mu.Unlock()
			return err
		}
		d.immWake.Wait()
	}
	if d.mem.Empty() && len(d.recovered) == 0 {
		d.mu.Unlock()
		return nil
	}
	d.imm = d.mem
	d.mem = memtable.New()
	d.updateReadStateLocked()
	if err := d.wal.Roll(); err != nil {
		d.mu.Unlock()
		return err
	}
	d.scheduleWork()
	for d.imm != nil && d.bgErr == nil {
		d.immWake.Wait()
	}
	err := d.bgErr
	d.mu.Unlock()
	return err
}

// compactAll flushes and repeatedly compacts until the tree is quiescent.
func (d *engine) compactAll() error {
	if err := d.flush(); err != nil {
		return err
	}
	for {
		did, err := d.maybeCompact()
		if err != nil {
			return err
		}
		if !did {
			return nil
		}
	}
}

// backgroundLoop runs flushes and compactions.
func (d *engine) backgroundLoop() {
	defer close(d.bgDone)
	for {
		select {
		case <-d.bgQuit:
			return
		case <-d.bgWork:
		}
		if d.closed.Load() {
			return
		}
		d.mu.Lock()
		imm := d.imm
		d.mu.Unlock()
		if imm != nil {
			err := d.flushMemtable(imm)
			d.mu.Lock()
			if err != nil {
				d.bgErr = err
			} else {
				d.imm = nil
				d.updateReadStateLocked()
			}
			d.immWake.Broadcast()
			d.mu.Unlock()
			if err != nil {
				continue
			}
		}
		// Compact until no level is over threshold.
		for {
			did, err := d.maybeCompact()
			if err != nil {
				// A compaction stopped by a cloud outage is deferred, not
				// fatal: the tree is unchanged, and the breaker's close
				// transition reschedules background work. Anything else
				// wedges the engine as before.
				if errors.Is(err, storage.ErrCloudUnavailable) {
					d.stats.CompactionsDeferred.Add(1)
					break
				}
				d.mu.Lock()
				d.bgErr = err
				d.immWake.Broadcast()
				d.mu.Unlock()
				break
			}
			if !did {
				break
			}
			d.mu.Lock()
			d.immWake.Broadcast() // L0 may have drained below the stall limit
			d.mu.Unlock()
			// A flush may be pending while we compact.
			d.mu.Lock()
			pending := d.imm != nil
			d.mu.Unlock()
			if pending {
				d.scheduleWork()
				break
			}
		}
	}
}

// backgroundErr returns the wedging background error, if any.
func (d *engine) backgroundErr() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.bgErr
}

// stop halts the background loops and drains in-flight sorted-view builds
// while their table handles are still valid. The facade has already set
// closed.
func (d *engine) stop() {
	close(d.bgQuit)
	<-d.bgDone
	<-d.drainDone
	if d.scrubDone != nil {
		<-d.scrubDone
	}
	d.stopViewBuilders()
}

// close stops the engine and releases what it owns; the shared caches
// stay open for the facade to close once every engine is down.
func (d *engine) close() error {
	d.stop()
	// What readers left obsolete since the drainer's last round goes now;
	// tables an open iterator still pins wait for the next Open's sweep.
	d.retireObsolete()

	// Flush any sealed or recovered memtables synchronously so no WAL
	// data is stranded longer than necessary (the WAL still covers the
	// active memtable).
	d.mu.Lock()
	imm := d.imm
	haveRecovered := len(d.recovered) > 0
	d.mu.Unlock()
	var firstErr error
	if imm != nil || haveRecovered {
		if err := d.flushMemtable(imm); err != nil {
			firstErr = err
		} else {
			d.mu.Lock()
			d.imm = nil
			d.updateReadStateLocked()
			d.mu.Unlock()
		}
	}
	if err := d.wal.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := d.vs.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	// Drain any slow reads buffered in the current tracking window so their
	// trace records are not lost.
	d.flushSlowReads()
	return firstErr
}
