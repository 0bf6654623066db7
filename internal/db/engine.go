package db

import (
	"sync"
	"sync/atomic"
	"time"

	"rocksmash/internal/batch"
	"rocksmash/internal/bloom"
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
	// sketch counts the cloud blocks client reads consume, whichever rung
	// serves them; the persistent cache's door admits a demoted block only
	// if it was read more often than what it would displace.
	blockCache *cache.Cache
	pcache     *pcache.PCache
	sketch     *cache.Sketch
	tables     *tableCache
	// bufs is the free list of the table and compaction-span buffers every
	// engine's flushes and compactions build and read in (bufpool.go).
	bufs *bufPool
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

	// slots holds one token per compaction job running anywhere in the
	// store, at most compactionSlots: with Shards:4 the engines share four,
	// they do not get four each. compactionsRunning counts the jobs holding
	// a reservation, and compactionJobs numbers them for their events.
	slots              chan struct{}
	compactionsRunning atomic.Int64
	compactionJobs     atomic.Uint64

	closed atomic.Bool
}

// engine is one LSM-tree over one pair of backends: memtables, WAL,
// manifest, commit pipeline, the flush and compaction lanes, and the
// drain/scrub loops.
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

	// pipeline is the group-commit write path (see commit.go).
	pipeline commitPipeline

	// compactionMu guards what the compaction lane decides: the running jobs
	// (each reserves a key range on its two levels) and the pause CompactAll
	// holds. It is held to pick and reserve a job and to install one, never
	// across a merge, a read or an upload (lanes.go). jobDone, on
	// compactionMu, is broadcast when a job lets go of its reservation.
	compactionMu sync.Mutex
	running      []*compaction
	paused       int
	jobDone      *sync.Cond

	// mu guards memtable rotation and background state.
	mu      sync.Mutex
	mem     *memtable.MemTable
	imm     *memtable.MemTable // sealed memtable being flushed
	immWake *sync.Cond         // signalled when imm drains
	// recovered holds the read-only sorted runs rebuilt by WAL recovery
	// (one per replayed segment, enabling parallel replay). They contain
	// only sequence numbers older than mem/imm and drain into L0 at the
	// next flush.
	recovered []*memtable.Run
	// rs caches the read-visible memtable set (mem/imm/recovered) behind an
	// atomic pointer so point reads and iterator construction never contend
	// on d.mu; every mutation site republishes via updateReadStateLocked.
	rs atomic.Pointer[readState]
	// lastSeq is this engine's acked frontier: the newest sequence it has
	// released a writer for.
	lastSeq atomic.Uint64
	bgErr   error
	snaps   map[uint64]int // active snapshot seq -> refcount

	// flushWake nudges the flush lane (a memtable was sealed), compactWake
	// the compaction lane (the tree or the running set changed); bgQuit
	// stops every background goroutine. flushDone and compactDone close
	// when the lanes exit; jobs counts the compaction jobs the lane started
	// that have not finished.
	flushWake   chan struct{}
	compactWake chan struct{}
	bgQuit      chan struct{}
	flushDone   chan struct{}
	compactDone chan struct{}
	jobs        sync.WaitGroup

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

	// scanTails counts the span GETs of scans in flight, which outlive their
	// iterator's Close: stop waits them out, since a landing span writes to
	// the caches and may drop the last pin on a version.
	scanTails sync.WaitGroup

	// horizon is the newest sequence below which a compaction has dropped
	// versions: a read at an older sequence whose version was pinned after
	// such a compaction installed may miss what it should see, so a read
	// pins first and then checks its sequence against this. Raised under mu
	// by smallestSnapshot, before the compaction's edit is installed.
	horizon atomic.Uint64

	stats Stats
	// profTick counts iterators for the 1-in-N selection of Timed
	// (clock-reading) profiles, as stats.Reads counts Gets; readAgg
	// accumulates every profile; slow tracks the worst timed Gets per
	// interval for slow-read trace emission.
	profTick atomic.Int64
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
		flushWake:   make(chan struct{}, 1),
		compactWake: make(chan struct{}, 1),
		bgQuit:      make(chan struct{}),
		flushDone:   make(chan struct{}),
		compactDone: make(chan struct{}),
		drainWake:   make(chan struct{}, 1),
		drainDone:   make(chan struct{}),
		quarantined: map[uint64]bool{},
		mirrored:    map[uint64]bool{},
	}
	d.immWake = sync.NewCond(&d.mu)
	d.jobDone = sync.NewCond(&d.compactionMu)
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
	// A crash between an object write and its manifest edit (or during a
	// degraded-mode drain) can strand table objects no version references.
	// Background work has not started yet, so the sweep races nothing.
	d.cleanOrphans()
	go d.flushLane()
	go d.compactionLane()
	go d.drainLoop()
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

// readState is the immutable snapshot of the read-visible memtable set.
// Readers load it with one atomic pointer read instead of taking d.mu.
type readState struct {
	mem       *memtable.MemTable
	imm       *memtable.MemTable
	recovered []*memtable.Run
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
//
// A wait is booked by its cause: a writer that waits on the memtable and
// then on L0 ends its memtable stall where the L0 stall begins, so the two
// stalls' durations sum to the wait.
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
	// stall begins a stall for reason unless one is already running for it,
	// ending a running stall of another cause at the same instant. It marks
	// and counts the new stall and fires the events outside d.mu. It reports
	// whether it began one; if so it returns with d.mu re-held and the
	// caller must re-check conditions.
	stall := func(reason string) bool {
		if reason == stallReason {
			return false
		}
		prevStart, prevReason := stallStart, stallReason
		stallStart, stallReason = time.Now(), reason
		d.stats.WriteStalls.Add(1)
		if reason == "l0" {
			d.stats.WriteStallsL0.Add(1)
		}
		if l := d.listener; l != nil {
			d.mu.Unlock()
			if !prevStart.IsZero() {
				l.OnWriteStallEnd(event.WriteStallEnd{
					Reason:   prevReason,
					Duration: stallStart.Sub(prevStart),
				})
			}
			l.OnWriteStallBegin(event.WriteStallBegin{Reason: reason})
			d.mu.Lock()
		}
		return true
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
			if stall("memtable") {
				continue
			}
			d.immWake.Wait()
		case len(d.vs.Current().Levels[0]) >= d.opts.L0StallFiles:
			// Too many L0 files; wait for compaction to catch up.
			if stall("l0") {
				continue
			}
			d.immWake.Wait()
		default:
			d.sealLocked()
			return d.bgErr
		}
	}
}

// sealLocked hands the active memtable to the flush lane: it becomes imm,
// readers see the new set, and the WAL rolls so the sealed memtable's tail
// aligns with a segment boundary (eWAL design). A failed roll wedges the
// engine: bgErr is set and everyone waiting on immWake wakes to return it.
// The caller holds d.mu and checks d.bgErr.
func (d *engine) sealLocked() {
	d.imm = d.mem
	d.mem = memtable.New()
	d.updateReadStateLocked()
	if err := d.wal.Roll(); err != nil {
		d.bgErr = err
		d.immWake.Broadcast()
		return
	}
	wake(d.flushWake)
}

// get returns the value for key visible at snapshot seq. Every Get carries a
// pooled profile whose counter core is always recorded; only a Timed one
// reads the clock — 1 in profileSampleRate of them, and every Get that asks
// for its profile back through out (DB.GetProfiled). The latency histogram
// holds the 1-in-profileSampleRate sample only, however each Get was called:
// a caller that profiles some of its Gets does not weight it toward them.
// Metrics counts Gets from stats.Reads.
func (d *engine) get(key []byte, seq uint64, out *readprof.Profile) ([]byte, error) {
	if d.closed.Load() {
		return nil, ErrClosed
	}
	n := d.stats.Reads.Add(1)
	sample := sampled(n)
	prof := getProfile()
	prof.Timed = out != nil || sample
	var start time.Time
	if prof.Timed {
		start = time.Now()
	}
	v, err := d.getAt(key, seq, prof)
	if prof.Timed {
		elapsed := time.Since(start)
		if sample {
			d.lat.get.Record(elapsed)
		}
		prof.TotalNanos = elapsed.Nanoseconds()
		if out != nil {
			*out = *prof
		}
	}
	d.finishProfile(key, prof)
	return v, err
}

// atFrontier, as a read's sequence, reads at the engine's acked frontier,
// taken once the read holds its memtables.
const atFrontier = keys.MaxSequence

func (d *engine) getAt(key []byte, seq uint64, prof *readprof.Profile) ([]byte, error) {
	// One atomic load instead of d.mu: reads stay off the rotation lock so
	// a write-heavy workload cannot starve point lookups (and vice versa).
	rs := d.rs.Load()
	mem, imm := rs.mem, rs.imm
	recovered := rs.recovered
	frontier := seq == atFrontier
	if frontier {
		seq = d.lastSeq.Load()
	}

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
		// Recovered runs are unordered relative to each other; pick the
		// newest visible entry across all of them.
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
	if frontier && seq < d.horizon.Load() {
		// A compaction that started after seq was taken may have dropped,
		// from v's tables, versions visible at seq. Whatever it kept is at or
		// below the frontier now, and a version the memtables hold above
		// seq was written during this read: read the tables there.
		seq = d.lastSeq.Load()
		seek = keys.MakeSeekKey(buf[:0], key, seq)
	}
	var (
		value []byte
		state int // 0 = not found, 1 = live, 2 = tombstone
		hash  = bloom.Hash(key)
	)
	err := v.FilesFor(key, func(level int, f *manifest.FileMetadata) (bool, error) {
		if prof != nil {
			prof.ProbeLevel(level)
		}
		if seq < f.MinSeq && level > 0 {
			// Nothing in this file is visible at the snapshot.
			return false, nil
		}
		if prof != nil {
			prof.Tables++
		}
		h, err := d.tables.get(d, f)
		if err != nil {
			return false, err
		}
		if !h.reader.MayContain(hash, prof) {
			return false, nil
		}
		val, found, live, err := h.reader.Lookup(seek, prof)
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
	d.sealLocked()
	for d.imm != nil && d.bgErr == nil {
		d.immWake.Wait()
	}
	err := d.bgErr
	d.mu.Unlock()
	return err
}

// backgroundErr returns the wedging background error, if any.
func (d *engine) backgroundErr() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.bgErr
}

// stop halts the background loops and drains scan readahead while its table
// handles are still valid, before the facade tears down the table cache and
// the persistent cache. The facade has already set closed.
func (d *engine) stop() {
	close(d.bgQuit)
	<-d.flushDone
	<-d.compactDone
	d.jobs.Wait()
	<-d.drainDone
	d.scanTails.Wait()
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
