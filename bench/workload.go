package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"rocksmash/internal/db"
	"rocksmash/internal/storage"
)

// config is what one invocation fixes for every workload it runs.
type config struct {
	seed    int64
	seconds float64 // length of the measured phase
	trace   bool
	// scale divides every record count, key space and byte-sized store
	// setting alike, so dataset-to-cache ratios hold; 1 outside the smoke test.
	scale   int
	latency storage.LatencyModel // the measured store's cloud; set-up always builds at zero latency
	// kernel is the time each leaf-package kernel is measured for. The issue
	// asks for a second apiece; the driver's cap on a run leaves a tenth.
	kernel time.Duration
	// drainCap bounds the wait for background work after the last
	// acknowledgement; quiet is how long it must have stood still to count
	// as idle. At the seed a 10 s fill leaves about half a minute of
	// compactions behind; the driver's budget for a run does not have that
	// time, so what is left at the cap is reported as db.bg.debt_bytes_end.
	drainCap, quiet time.Duration
	tmpRoot         string // parent of each workload's scratch directory
	outDir          string // where a traced run writes its span files
}

// storeOptions is the one geometry every workload measures: the store as
// shipped (db.DefaultOptions) scaled down so that flushes, compactions and
// cloud levels appear within seconds. Nothing else is overridden, so a later
// change of a default shows up in the numbers.
func (c config) storeOptions() db.Options {
	o := db.DefaultOptions()
	s := int64(c.scale)
	o.MemtableBytes = (1 << 20) / s
	o.LevelBaseBytes = (4 << 20) / s
	o.LevelMultiplier = 8
	o.TargetFileBytes = (1 << 20) / s
	o.PCacheBytes = (16 << 20) / s
	o.PCacheRegionBytes = max((128<<10)/s, int64(8*o.BlockBytes)) // a region must hold several blocks
	o.BlockCacheBytes /= s
	return o
}

// workload is one row of the benchmark's table. Sizes are at scale 1.
type workload struct {
	name     string
	clients  int // closed-loop clients in the measured phase, at most nproc (2)
	records  int // records set-up loads, version 1 each
	keyspace int // key indices operations may name
	// warmOps operations (all clients together) run before the clock starts,
	// on warmClients goroutines: warm-up is set-up, not load.
	warmOps, warmClients int
	// warmEvery makes warm-up read every record once instead of drawing from
	// the workload: the data set fits the block cache and should be in it.
	warmEvery bool
	setupRuns int // set-up repetitions; setup_s is their median
	draw      func(*generator) op
	// latency_us is the latencyQ percentile of the operations of kind
	// primary: the median, except where the median read is a cache hit and
	// the time goes to the misses behind it; there p90, the cloud round trip.
	primary  int
	latencyQ float64
	drain    bool // wait for background work and check the whole store afterwards
	// walOnly marks the recover workload: set-up leaves every record in the
	// WAL and the measured operation is db.Open replaying it.
	walOnly bool
	// expect is the wall time of one untraced run at the seed on the 2-vCPU
	// sandbox with a 10 s measured phase, rounded up to the next 5 s (a busy
	// neighbour has doubled it); three times this is the ceiling.
	expect time.Duration
}

const coldRecords = 200_000

// buildChunk is how many records set-up loads between two forced flushes;
// about 0.85 MB of the 1 MiB memtable, which takes some 2,400.
const buildChunk = 2000

var workloads = []workload{
	{
		name: "fill", clients: 2, primary: kindPut, latencyQ: 0.5, keyspace: 2_000_000, setupRuns: 3, drain: true, expect: 20 * time.Second,
		draw: func(g *generator) op { return op{kind: kindPut, idx: g.own(g.rng.Intn(g.keyspace))} },
	},
	{
		name: "get_hot", clients: 1, primary: kindGet, latencyQ: 0.5, records: 10_000, keyspace: 10_000, warmEvery: true, warmOps: 10_000, warmClients: 1,
		setupRuns: 3, expect: 15 * time.Second,
		draw: func(g *generator) op { return op{kind: kindGet, idx: uint32(g.zipfian())} },
	},
	{
		name: "get_cold", clients: 2, primary: kindGet, latencyQ: 0.9, records: coldRecords, keyspace: coldRecords, warmOps: 10_000, warmClients: 8,
		setupRuns: 1, expect: 20 * time.Second,
		draw: func(g *generator) op { return op{kind: kindGet, idx: uint32(g.zipfian())} },
	},
	{
		// YCSB-E: 95 % scans of 1–100 records, 5 % inserts of new keys.
		name: "scan_cold", clients: 2, primary: kindScan, latencyQ: 0.5, records: coldRecords, keyspace: coldRecords + 2*opsPerClient/16,
		warmOps: 2_000, warmClients: 8, setupRuns: 1, expect: 20 * time.Second,
		draw: func(g *generator) op {
			if g.rng.Float64() < 0.95 || g.next >= g.keyspace {
				return op{kind: kindScan, idx: uint32(g.zipfian()), n: uint8(1 + g.rng.Intn(100))}
			}
			return g.insert()
		},
	},
	{
		// 70 % reads, 30 % updates. YCSB-A's 50 % clog the store inside a
		// 10 s phase (see README): what is measured then is a lottery.
		name: "mix_cold", clients: 2, primary: kindGet, latencyQ: 0.9,
		records: coldRecords, keyspace: coldRecords, warmOps: 10_000, warmClients: 8,
		setupRuns: 1, drain: true, expect: 25 * time.Second,
		draw: func(g *generator) op {
			if g.rng.Float64() < 0.7 {
				return op{kind: kindGet, idx: uint32(g.zipfian())}
			}
			return op{kind: kindPut, idx: g.own(g.zipfian())}
		},
	},
	{name: "recover", clients: 1, primary: kindOpen, latencyQ: 0.5, records: 300_000, keyspace: 300_000, setupRuns: 1, walOnly: true, expect: 20 * time.Second},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// scaled returns the workload with its sizes divided by the config's scale.
func (w workload) scaled(c config) workload {
	w.records /= c.scale
	w.keyspace /= c.scale
	w.warmOps /= c.scale
	return w
}

// inputs is everything set-up derives from the seed before the clock starts.
type inputs struct {
	keys *keyTable
	ops  [][]op // per measured client
	warm [][]op // per warm-up goroutine
}

func (w *workload) generate(c config) *inputs {
	in := &inputs{keys: newKeyTable(w.keyspace)}
	if w.draw == nil {
		return in
	}
	for i := 0; i < w.clients; i++ {
		g := newGenerator(c.seed, i, w.clients, w.records, w.keyspace)
		in.ops = append(in.ops, g.list(opsPerClient/c.scale, w.draw))
	}
	for i := 0; i < w.warmClients; i++ {
		// Warm-up reads only: it must leave the store's contents alone.
		g := newGenerator(c.seed+1, i, w.warmClients, w.records, w.keyspace)
		next := uint32(i)
		in.warm = append(in.warm, g.list(w.warmOps/w.warmClients, func(g *generator) op {
			if w.warmEvery {
				next += uint32(w.warmClients)
				return op{kind: kindGet, idx: next - uint32(w.warmClients)}
			}
			o := w.draw(g)
			if o.kind == kindPut {
				o = op{kind: kindGet, idx: uint32(g.zipfian())}
			}
			return o
		}))
	}
	return in
}

// store is an open DB with the benchmark's meters around both tiers.
type store struct {
	*db.DB
	local, cloud *meter
	events       *listener // nil unless traced
}

func openStore(dir string, o db.Options, lat storage.LatencyModel, tr *tracer) (*store, error) {
	local, err := storage.NewLocal(filepath.Join(dir, "local"))
	if err != nil {
		return nil, err
	}
	cloud, err := storage.NewCloud(filepath.Join(dir, "cloud"), lat, storage.DefaultCost())
	if err != nil {
		return nil, err
	}
	s := &store{local: newMeter(local, tr), cloud: newMeter(cloud, tr)}
	if tr != nil {
		s.events = newListener(tr)
		o.EventListener = s.events
	}
	if s.DB, err = db.Open(o, s.local, s.cloud); err != nil {
		return nil, fmt.Errorf("opening store in %s: %w", dir, err)
	}
	return s, nil
}

// resetCounts starts the meters, the listener and the tracer afresh, so that
// what they hold afterwards belongs to the measured phase alone.
func (s *store) resetCounts(tr *tracer) {
	s.local.c.Store(new(tierCounts))
	s.cloud.c.Store(new(tierCounts))
	if tr != nil {
		s.events.c.Store(new(eventCounts))
		tr.reset()
	}
}

// options returns the store settings the workload is measured with.
func (w *workload) options(c config) db.Options {
	o := c.storeOptions()
	if w.walOnly {
		// The one per-workload override: a memtable that never fills, so
		// every record stays in the WAL, in small segments that replay in
		// parallel.
		o.MemtableBytes = 1 << 30
		o.WALSegmentBytes = (2 << 20) / int64(c.scale)
	}
	return o
}

// build loads the workload's records into a new store under dir against a
// zero-latency cloud. It then compacts until the tree is quiescent and closes
// the store, or, for the recover workload, crashes it with the WAL unflushed.
func (w *workload) build(c config, dir string, keys *keyTable) error {
	s, err := openStore(dir, w.options(c), storage.LatencyModel{}, nil)
	if err != nil {
		return err
	}
	// The store flushes and compacts at fixed points of the load, after every
	// chunk (well short of a full memtable), never wherever its background
	// happened to be: left to itself, the same load ends in trees of different
	// shapes (0 to 2 files in L0, for one), and a scan's cost follows the shape.
	chunk := max(1, buildChunk/c.scale)
	val := make([]byte, valueLen)
	for i := 0; i < w.records; i++ {
		fillValue(val, uint32(i), 1)
		if err := s.Put(keys.key(uint32(i)), val); err != nil {
			s.Crash()
			return fmt.Errorf("loading record %d: %w", i, err)
		}
		if !w.walOnly && (i+1)%chunk == 0 {
			if err := s.CompactAll(); err != nil {
				s.Crash()
				return fmt.Errorf("compacting after record %d: %w", i, err)
			}
		}
	}
	if w.walOnly {
		s.Crash()
		return nil
	}
	if err := s.CompactAll(); err != nil {
		s.Crash()
		return fmt.Errorf("compacting the loaded store: %w", err)
	}
	return s.Close()
}

// passResult is what one pass over a workload measured.
type passResult struct {
	setup     time.Duration // reopen and warm-up; the caller adds build time
	wall      time.Duration // the measured phase; for recover, the sum of the timed opens
	cpu       time.Duration // process user+system time over the same interval
	ops       int64         // operations acknowledged within the measured phase and verified
	attempted int64         // those plus every verification read
	failed    int64
	lat       [numKinds]hist
	opens     []float64 // recover: every timed db.Open in ns; too few for a histogram's median
	scanned   int64     // records scans returned
	userBytes int64     // key+value bytes of acknowledged writes
	liveBytes int64     // key+value bytes of live records afterwards
	drain     time.Duration
	debtEnd   int64
	tableSize int64 // bytes of table objects on both tiers afterwards
	local     *tierCounts
	cloud     *tierCounts
	events    *eventCounts
	before    db.Metrics
	after     db.Metrics
	recovery  []db.RecoveryReport
	proc      procDelta
	self      map[string]int64 // traced: self time per client operation name
	childNs   int64            // traced: time of client operations their children cover
	parented  float64          // traced: share of cloud GET spans with a client operation as parent
}

// client is one closed-loop client of the measured phase.
type client struct {
	id, of  int
	ops     []op
	keys    *keyTable
	model   *model
	val     []byte
	lat     [numKinds]hist
	trace   *clientTrace
	tr      *tracer
	done    int64 // operations acknowledged within the measured phase
	late    int64 // 0 or 1: the operation acknowledged after it
	failed  int64
	scanned int64
	written int64
	// A scan copies what it reads here and checks it once the clock stopped.
	scanKeys [100][24]byte
	scanLens [100]uint8
	scanHdrs [100][16]byte
	scanVals [100]int
}

// run issues operations until the deadline; it returns when its last
// operation has been acknowledged, which after a write stall may be seconds
// later.
func (c *client) run(s *store, start time.Time, deadline time.Duration) {
	if c.tr != nil {
		c.trace = c.tr.registerClient()
	}
	for i := 0; ; i++ {
		o := c.ops[i%len(c.ops)]
		id := int64(i*c.of+c.id) + 1
		var d time.Duration
		switch o.kind {
		case kindPut:
			d = c.put(s, o, id)
		case kindGet:
			d = c.get(s, o, id)
		case kindScan:
			d = c.scan(s, o, id)
		}
		c.lat[o.kind].record(d)
		if time.Since(start) >= deadline {
			// In flight when the time ran out: checked and timed like any
			// other, but not counted as completed within the phase.
			c.late++
			return
		}
		c.done++
	}
}

// timed runs fn between two clock readings and, in a traced pass, records
// the client span. Everything else a client does happens outside it.
func (c *client) timed(kind int, id int64, fn func()) time.Duration {
	if c.trace == nil {
		t0 := time.Now()
		fn()
		return time.Since(t0)
	}
	c.trace.opBegin(id, kind)
	t0 := c.tr.now()
	fn()
	t1 := c.tr.now()
	c.trace.opEnd(kind, id, t0, t1, 0)
	return time.Duration(t1 - t0)
}

func (c *client) put(s *store, o op, id int64) time.Duration {
	key := c.keys.key(o.idx)
	ver := c.model.issued[o.idx].Add(1)
	fillValue(c.val, o.idx, ver)
	var err error
	d := c.timed(kindPut, id, func() { err = s.Put(key, c.val) })
	if err != nil {
		c.failed++
		return d
	}
	c.model.acked[o.idx].Store(ver)
	c.written += int64(len(key) + valueLen)
	return d
}

func (c *client) get(s *store, o op, id int64) time.Duration {
	key := c.keys.key(o.idx)
	lo := c.model.acked[o.idx].Load()
	var v []byte
	var err error
	d := c.timed(kindGet, id, func() { v, err = s.Get(key) })
	if err != nil || !checkValue(v, o.idx, lo, c.model.issued[o.idx].Load()) {
		c.failed++
	}
	return d
}

func (c *client) scan(s *store, o op, id int64) time.Duration {
	key := c.keys.key(o.idx)
	want, got, ended := int(o.n), 0, false
	var err error
	d := c.timed(kindScan, id, func() {
		it, e := s.NewIterator()
		if e != nil {
			err = e
			return
		}
		for it.Seek(key); got < want; it.Next() {
			if !it.Valid() {
				ended = true
				break
			}
			c.scanLens[got] = uint8(copy(c.scanKeys[got][:], it.Key()))
			v := it.Value()
			c.scanVals[got] = len(v)
			copy(c.scanHdrs[got][:], v)
			got++
		}
		err = errors.Join(it.Err(), it.Close())
	})
	c.scanned += int64(got)
	ok := err == nil && (got == want || ended) && got > 0
	for i := 0; ok && i < got; i++ {
		k := c.scanKeys[i][:c.scanLens[i]]
		ok = c.model.checkRecord(c.keys, k, c.scanHdrs[i][:], c.scanVals[i], false)
		if i == 0 {
			ok = ok && string(k) >= string(key)
		} else {
			ok = ok && string(k) > string(c.scanKeys[i-1][:c.scanLens[i-1]])
		}
	}
	if !ok {
		c.failed++
	}
	return d
}

// warm runs the warm-up operations: reads and scans, unchecked and untimed.
func warm(s *store, in *inputs) {
	var wg sync.WaitGroup
	for _, ops := range in.warm {
		wg.Add(1)
		go func(ops []op) {
			defer wg.Done()
			for _, o := range ops {
				key := in.keys.key(o.idx)
				if o.kind == kindGet {
					s.Get(key) // answers are checked in the measured phase
					continue
				}
				it, err := s.NewIterator()
				if err != nil {
					continue
				}
				it.Seek(key)
				for n := 0; n < int(o.n) && it.Valid(); n++ {
					it.Next()
				}
				it.Close()
			}
		}(ops)
	}
	wg.Wait()
}

// pass opens the store prepared in dir with the measured cloud latency,
// warms it, runs the measured phase for the given time and checks the result.
func (w *workload) pass(c config, dir string, in *inputs, traced bool, measure time.Duration) (*passResult, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	res := &passResult{}
	t0 := time.Now()
	s, err := openStore(dir, w.options(c), c.latency, tr)
	if err != nil {
		return nil, err
	}
	defer s.abandon()
	warm(s, in)
	res.setup = time.Since(t0)

	mdl := newModel(w.keyspace, w.records)
	clients := make([]*client, w.clients)
	for i := range clients {
		clients[i] = &client{id: i, of: w.clients, ops: in.ops[i], keys: in.keys, model: mdl, tr: tr,
			val: newValue(newGenerator(c.seed+2, i, w.clients, 0, 0).rng)}
	}

	runtime.GC() // set-up's garbage is not the measured phase's to collect
	s.resetCounts(tr)
	res.before = s.Metrics()
	sampler := startProcSampler()
	cpu0 := cpuTime()
	start := time.Now()
	var wg sync.WaitGroup
	for _, cl := range clients {
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			cl.run(s, start, measure)
		}(cl)
	}
	// CPU time and the runtime's counters cover the measured phase exactly;
	// a client held by a write stall may return seconds after it.
	time.Sleep(time.Until(start.Add(measure)))
	res.wall = measure
	res.cpu = cpuTime() - cpu0
	res.proc = sampler.stop()
	wg.Wait()

	var traces []*clientTrace
	for _, cl := range clients {
		res.ops += cl.done - cl.failed
		res.attempted += cl.done + cl.late
		res.failed += cl.failed
		res.scanned += cl.scanned
		res.userBytes += cl.written
		for k := range cl.lat {
			res.lat[k].merge(&cl.lat[k])
		}
		traces = append(traces, cl.trace)
	}
	if w.drain {
		res.drain = s.waitIdle(c.quiet, c.drainCap)
		res.tableSize = tableBytes(dir)
	}
	// Counts stop here: the checks below are not part of the workload.
	res.local, res.cloud = s.local.c.Load(), s.cloud.c.Load()
	res.after = s.Metrics()
	res.debtEnd = res.after.CompactionDebt
	if traced {
		res.events = s.events.c.Load()
		res.self, res.childNs = tr.selfTimes(traces)
		res.parented = tr.parentedShare(s.cloud.names[opRead][classTable])
		if err := tr.write(filepath.Join(c.outDir, "trace-"+w.name+".jsonl"), traces); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	if w.drain {
		s.abandon()
		if err := w.verify(c, dir, in.keys, mdl, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// verify reopens the store a pass has abandoned, as after a crash, and
// compares all of it with the model of acknowledged writes. It reads through
// a zero-latency cloud and lets compactions finish first: an iterator opened
// while a compaction retires tables can fail with "object not found".
func (w *workload) verify(c config, dir string, keys *keyTable, mdl *model, res *passResult) error {
	s, err := openStore(dir, w.options(c), storage.LatencyModel{}, nil)
	if err != nil {
		return fmt.Errorf("reopening to verify: %w", err)
	}
	defer s.abandon()
	if !w.walOnly {
		if err := s.CompactAll(); err != nil {
			return fmt.Errorf("compacting before the check: %w", err)
		}
	}
	return s.checkAll(keys, mdl, res)
}

// abandon ends a pass the way a crash would: the cloud stops answering, so a
// compaction that is under way fails at its next request instead of running
// for as long as its backlog lasts, and the store is dropped without a flush.
// The scratch directory is deleted next.
func (s *store) abandon() {
	s.cloud.down.Store(true)
	s.Crash()
}

// waitIdle returns how long background work went on after the last
// acknowledgement: until neither tier saw a request, and flush and
// compaction counts and compaction debt stood still, for the quiet period; or
// the cap if it went on longer.
func (s *store) waitIdle(quiet, limit time.Duration) time.Duration {
	type state struct {
		requests, flushes, compactions, debt int64
		pending                              int
	}
	read := func() state {
		m := s.Metrics()
		st := state{flushes: m.Flushes, compactions: m.Compactions, debt: m.CompactionDebt, pending: m.PendingTables}
		for _, t := range []*tierCounts{s.local.c.Load(), s.cloud.c.Load()} {
			for op := 0; op < numOps; op++ {
				st.requests += t.count(op)
			}
			st.requests += t.written() + t.readBytes.Load()
		}
		return st
	}
	start := time.Now()
	last, since := read(), start
	for {
		time.Sleep(quiet / 20)
		if cur := read(); cur != last {
			last, since = cur, time.Now()
		} else if time.Since(since) >= quiet {
			return since.Sub(start)
		}
		if waited := time.Since(start); waited >= limit {
			return waited
		}
	}
}

// checkAll reads the whole store with one iterator and compares it with the
// model of acknowledged writes: every live key once, at exactly its last
// acknowledged version, in ascending order.
func (s *store) checkAll(keys *keyTable, mdl *model, res *passResult) error {
	it, err := s.NewIterator()
	if err != nil {
		return fmt.Errorf("opening the check iterator: %w", err)
	}
	var prev []byte
	n := 0
	for it.First(); it.Valid(); it.Next() {
		n++
		res.attempted++
		v := it.Value()
		res.liveBytes += int64(len(it.Key()) + len(v))
		if !mdl.checkRecord(keys, it.Key(), v, len(v), true) || string(it.Key()) <= string(prev) {
			res.failed++
		}
		prev = append(prev[:0], it.Key()...)
	}
	if err := errors.Join(it.Err(), it.Close()); err != nil {
		return fmt.Errorf("check iterator: %w", err)
	}
	live := mdl.live()
	if n != live {
		res.attempted += int64(abs(live - n))
		res.failed += int64(abs(live - n))
	}
	return nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// tableBytes sums the table objects on both tiers as they lie on disk.
func tableBytes(dir string) int64 {
	var n int64
	for _, tier := range []string{"local", "cloud"} {
		entries, _ := os.ReadDir(filepath.Join(dir, tier, "sst")) // a tier without tables has no directory
		for _, e := range entries {
			if info, err := e.Info(); err == nil {
				n += info.Size()
			}
		}
	}
	return n
}

// runRecover is the recover workload: the store holds every record in its
// WAL only; each cycle crashes it and times db.Open replaying that WAL.
func (w *workload) runRecover(c config, dir string, in *inputs, traced bool, measure time.Duration) (*passResult, error) {
	var tr *tracer
	cl := &client{}
	if traced {
		tr = newTracer()
		cl.tr, cl.trace = tr, tr.registerClient()
	}
	res := &passResult{local: new(tierCounts), cloud: new(tierCounts), events: new(eventCounts)}
	rng := newGenerator(c.seed, 0, 1, 0, 0).rng
	sampler := startProcSampler()
	for start, cycle := time.Now(), int64(1); time.Since(start) < measure; cycle++ {
		var s *store
		var err error
		runtime.GC() // a crashed process restarts with an empty heap
		cpu0 := cpuTime()
		d := cl.timed(kindOpen, cycle, func() { s, err = openStore(dir, w.options(c), c.latency, tr) })
		if err != nil {
			return nil, err
		}
		res.cpu += cpuTime() - cpu0
		res.wall += d
		res.lat[kindOpen].record(d)
		res.opens = append(res.opens, float64(d))
		rep := s.RecoveryReport()
		res.recovery = append(res.recovery, rep)
		res.ops += rep.RecoveredKeys
		res.attempted += rep.RecoveredKeys
		res.local.add(s.local.c.Load())
		res.cloud.add(s.cloud.c.Load())
		res.after = s.Metrics()
		for i := 0; i < 100; i++ { // a spot check each cycle; every record after the last
			idx := uint32(rng.Intn(w.records))
			v, err := s.Get(in.keys.key(idx))
			res.attempted++
			if err != nil || !checkValue(v, idx, 1, 1) {
				res.failed++
			}
		}
		s.abandon()
	}
	res.proc = sampler.stop()
	if traced {
		traces := []*clientTrace{cl.trace}
		res.self, res.childNs = tr.selfTimes(traces)
		if err := tr.write(filepath.Join(c.outDir, "trace-"+w.name+".jsonl"), traces); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return res, w.verify(c, dir, in.keys, newModel(w.keyspace, w.records), res)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else if n > 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return 0
}
