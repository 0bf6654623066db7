// Command mashbench drives the store: db_bench-style micro-benchmarks
// (fillseq, fillrandom, readrandom, readseq, readwhilewriting) or a YCSB
// core workload (`-ycsb A-F`) over any placement policy, plus
// `-exp figN|tabN|all` to regenerate the paper's tables and figures via the
// experiment harness.
//
// Usage:
//
//	mashbench -benchmarks fillrandom,readrandom -num 100000 -policy mash
//	mashbench -ycsb A -num 100000 -reads 50000 -threads 4 -policy mash
//	mashbench -exp fig8
//	mashbench -exp all -quick
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"rocksmash/internal/db"
	"rocksmash/internal/event"
	"rocksmash/internal/harness"
	"rocksmash/internal/histogram"
	"rocksmash/internal/obs"
	"rocksmash/internal/sstable"
	"rocksmash/internal/storage"
	"rocksmash/internal/ycsb"
)

// unavailableReads counts reads the cloud could not serve during a chaos
// run (see harness.Phase.TolerateUnavailable): an expected degraded-mode
// outcome, not a benchmark failure.
var unavailableReads int64

// scheduleOutage parses "start,duration" and arms a one-shot full outage on
// the faulty cloud backend.
func scheduleOutage(f *storage.Faulty, spec string) error {
	parts := strings.SplitN(spec, ",", 2)
	if len(parts) != 2 {
		return fmt.Errorf("bad -outage %q, want start,duration (e.g. 10s,30s)", spec)
	}
	start, err := time.ParseDuration(strings.TrimSpace(parts[0]))
	if err != nil {
		return fmt.Errorf("bad -outage start: %w", err)
	}
	dur, err := time.ParseDuration(strings.TrimSpace(parts[1]))
	if err != nil {
		return fmt.Errorf("bad -outage duration: %w", err)
	}
	if f == nil {
		return errors.New("-outage needs a cloud-tier policy")
	}
	time.AfterFunc(start, func() {
		fmt.Printf("chaos: cloud outage begins (for %s)\n", dur)
		f.StartOutage(dur)
	})
	return nil
}

func main() {
	var (
		dbDir      = flag.String("db", "", "database directory (default: temp)")
		policy     = flag.String("policy", "mash", "placement policy: mash|local-only|cloud-only|cloud-lru")
		benchmarks = flag.String("benchmarks", "fillrandom,readrandom", "comma-separated benchmark list")
		workload   = flag.String("ycsb", "", "run YCSB core workload A-F instead of -benchmarks: load -num records, then run -reads operations")
		num        = flag.Int("num", 50000, "number of keys (YCSB: records to load)")
		reads      = flag.Int("reads", 20000, "number of reads for read benchmarks (YCSB: operations to run)")
		threads    = flag.Int("threads", 1, "concurrent client goroutines per benchmark or YCSB phase (readseq and compact stay single-threaded)")
		shards     = flag.Int("shards", 1, "hash-partition the keyspace into this many independent sub-LSMs")
		walSync    = flag.Bool("wal-sync", false, "fsync the WAL on every commit (group commit amortizes the fsync across threads)")
		valueSize  = flag.Int("valuesize", 400, "value size in bytes")
		exp        = flag.String("exp", "", "run a paper experiment (fig1..fig12, tab2..tab4, all) instead of benchmarks")
		quick      = flag.Bool("quick", false, "shrink experiment datasets ~10x")
		seed       = flag.Int64("seed", 42, "workload RNG seed")
		compress   = flag.Bool("compress", false, "flate-compress SSTable data blocks")
		metrics    = flag.String("metrics-addr", "", "serve live metrics over HTTP on this address (/metrics, /debug/vars, /stats, /vitals, /debug/pprof)")
		vitalsEach = flag.Duration("vitals", 0, "time-series vitals and anomaly-detection interval (0 = 1s; view with `mashctl top` via -metrics-addr)")
		flightRec  = flag.Bool("flight", false, "keep an event ring and write postmortem incident bundles under <db>/flight (see /health and /incidents with -metrics-addr)")
		tracePath  = flag.String("trace", "", "append engine events as JSON lines to this file (see `mashctl trace`)")
		dumpStats  = flag.Bool("stats", false, "print the DumpStats report after the benchmarks")
		faultGet   = flag.Float64("fault-get-rate", 0, "inject cloud GET failures with this probability [0,1]")
		faultPut   = flag.Float64("fault-put-rate", 0, "inject cloud PUT failures with this probability [0,1]")
		outage     = flag.String("outage", "", "script a full cloud outage as start,duration (e.g. 10s,30s); with -ycsb the clock starts at the run phase")

		faultLocalCorrupt = flag.Float64("fault-local-corrupt-rate", 0, "flip a bit in local reads with this probability [0,1]")
		faultLocalBudget  = flag.Int64("fault-local-write-budget", 0, "fail local writes with ENOSPC after this many bytes (0 = unlimited)")
		faultLocalSync    = flag.Int("fault-local-sync-failures", 0, "fail the next N local fsyncs with EIO")
	)
	flag.Parse()

	if *exp == "list" {
		for _, e := range harness.List() {
			fmt.Printf("%-8s %s\n", e.Name, e.Title)
		}
		return
	}
	if *exp != "" {
		cfg := harness.Config{BaseDir: *dbDir, Quick: *quick, Out: os.Stdout, Seed: *seed}
		if err := harness.Run(*exp, cfg); err != nil {
			fatal(err)
		}
		return
	}

	p, err := parsePolicy(*policy)
	if err != nil {
		fatal(err)
	}
	var wl ycsb.Workload
	if *workload != "" {
		if wl, err = ycsb.ByName(*workload); err != nil {
			fatal(err)
		}
	}
	dir := *dbDir
	if dir == "" {
		if dir, err = os.MkdirTemp("", "mashbench-*"); err != nil {
			fatal(err)
		}
		defer os.RemoveAll(dir)
	}
	opts := db.DefaultOptions()
	opts.Policy = p
	if *compress {
		opts.Compression = sstable.CompressionFlate
	}
	opts.WALSync = *walSync
	opts.Shards = *shards
	opts.VitalsInterval = *vitalsEach
	if *flightRec {
		opts.FlightDir = filepath.Join(dir, "flight")
	}
	if *tracePath != "" {
		tw, err := event.CreateTrace(*tracePath)
		if err != nil {
			fatal(err)
		}
		// Deferred before the store's Close, so it runs after it: engine
		// shutdown still fires events.
		defer func() {
			if err := tw.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "mashbench: trace:", err)
			}
		}()
		opts.EventListener = tw
	}
	var d *db.DB
	var faulty, localFaulty *storage.Faulty
	cloudFaults := storage.FaultConfig{Seed: *seed, GetErrorRate: *faultGet, PutErrorRate: *faultPut}
	switch {
	case *faultLocalCorrupt > 0 || *faultLocalBudget > 0 || *faultLocalSync > 0:
		cloudFaults.Seed++
		d, localFaulty, faulty, err = db.OpenAtChaosLocal(dir, opts,
			storage.FaultConfig{
				Seed:             *seed,
				CorruptRate:      *faultLocalCorrupt,
				WriteBudgetBytes: *faultLocalBudget,
				SyncFailures:     *faultLocalSync,
			}, cloudFaults)
	case *faultGet > 0 || *faultPut > 0 || *outage != "":
		d, faulty, err = db.OpenAtChaos(dir, opts, cloudFaults)
	default:
		d, err = db.OpenAt(dir, opts)
	}
	if err != nil {
		fatal(fmt.Errorf("open: %w", err))
	}
	defer d.Close()
	if *metrics != "" {
		if srv, err := obs.Serve(*metrics, d); err != nil {
			fmt.Fprintln(os.Stderr, "mashbench: metrics:", err)
		} else {
			fmt.Printf("mashbench: metrics on http://%s/metrics\n", srv.Addr)
		}
	}
	armOutage := func() error {
		if *outage == "" {
			return nil
		}
		return scheduleOutage(faulty, *outage)
	}

	if *workload != "" {
		ph := harness.Phase{Workload: wl, Records: *num, Ops: *reads, Threads: *threads,
			ValueLen: *valueSize, Seed: *seed, TolerateUnavailable: true}
		if err := runYCSB(d, p, ph, armOutage); err != nil {
			fatal(err)
		}
	} else {
		if err := armOutage(); err != nil {
			fatal(err)
		}
		fmt.Printf("mashbench: policy=%s num=%d valuesize=%d threads=%d dir=%s\n", p, *num, *valueSize, *threads, dir)
		for _, b := range strings.Split(*benchmarks, ",") {
			if b = strings.TrimSpace(b); b == "" {
				continue
			}
			if err := runBench(d, b, *num, *reads, *valueSize, *threads, *seed); err != nil {
				fatal(fmt.Errorf("%s: %w", b, err))
			}
		}
	}
	m := d.Metrics()
	fmt.Printf("\nlevels: files=%v\nlocal=%0.2fMB cloud=%0.2fMB pcacheHit=%.3f blockHit=%.3f stalls=%d\n",
		m.LevelFiles, float64(m.LocalBytes)/(1<<20), float64(m.CloudBytes)/(1<<20), m.PCacheHit, m.BlockHit, m.WriteStalls)
	if rep, ok := d.CloudCost(); ok {
		fmt.Println("cloud bill:", rep)
	}
	printReadAmp(m.ReadAmp)
	if faulty != nil {
		fmt.Printf("chaos: injected=%d unavailable-reads=%d breaker=%s trips=%d degraded=%s pending=%d drained=%d\n",
			faulty.InjectedFaults(), unavailableReads, m.BreakerState, m.BreakerTrips,
			m.DegradedDur.Round(time.Millisecond), m.PendingTables, m.DrainedTables)
	}
	if localFaulty != nil {
		fmt.Printf("local chaos: injected=%d corrupted-reads=%d breaker=%s trips=%d degraded-tables=%d drained-back=%d detected=%d repaired=%d unrepaired=%d\n",
			localFaulty.InjectedFaults(), localFaulty.CorruptedReads(), m.LocalBreakerState,
			m.LocalBreakerTrips, m.LocalDegradedTables, m.LocalDrainedBack,
			m.CorruptionsDetected, m.CorruptionsRepaired, m.CorruptionsUnrepaired)
	}
	if *dumpStats {
		fmt.Println()
		fmt.Print(d.DumpStats())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mashbench:", err)
	os.Exit(1)
}

// printReadAmp renders the read-path profiler's report when any reads were
// profiled (see `mashctl profile` for the live view).
func printReadAmp(ra db.ReadAmp) {
	if ra.ProfiledGets > 0 {
		fmt.Println("\nread profile:")
		ra.Render(os.Stdout)
	}
}

func parsePolicy(s string) (db.Policy, error) {
	switch s {
	case "mash":
		return db.PolicyMash, nil
	case "local-only", "local":
		return db.PolicyLocalOnly, nil
	case "cloud-only", "cloud":
		return db.PolicyCloudOnly, nil
	case "cloud-lru":
		return db.PolicyCloudLRU, nil
	}
	return 0, fmt.Errorf("unknown policy %q", s)
}

// runYCSB loads ph.Records records on ph.Threads clients, settles the tree,
// then runs ph. arm runs between the two phases, so a scripted outage
// leaves the load healthy.
func runYCSB(d *db.DB, p db.Policy, ph harness.Phase, arm func() error) error {
	fmt.Printf("loading %d records (%dB values) under policy %s, %d threads...\n",
		ph.Records, ph.ValueLen, p, max(ph.Threads, 1))
	val := make([]byte, ph.ValueLen)
	start := time.Now()
	if err := harness.Clients(ph.Threads, ph.Records, nil, func(int) func(int) error {
		return func(i int) error { return d.Put(ycsb.Key(uint64(i)), val) }
	}); err != nil {
		return err
	}
	if err := d.CompactAll(); err != nil {
		if !errors.Is(err, db.ErrCloudUnavailable) {
			return err
		}
		fmt.Println("load compaction deferred: cloud unavailable")
	}
	fmt.Printf("load done in %s\n", time.Since(start).Round(time.Millisecond))
	if err := arm(); err != nil {
		return err
	}
	r, err := ph.Run(d)
	if err != nil {
		return err
	}
	unavailableReads += r.Unavailable
	fmt.Printf("\nYCSB-%s on %s: %.0f ops/s (%d ops in %s, %d threads)\n",
		ph.Workload.Name, p, float64(ph.Ops)/r.Dur.Seconds(), ph.Ops, r.Dur.Round(time.Millisecond), max(ph.Threads, 1))
	if r.Reads.Count() > 0 {
		fmt.Println("  reads :", r.Reads)
	}
	if r.Writes.Count() > 0 {
		fmt.Println("  writes:", r.Writes)
	}
	return nil
}

// runBench runs one db_bench-style benchmark. Latencies land in one
// histogram; merged throughput is total wall time over all ops, matching
// db_bench's merged-stats reporting.
func runBench(d *db.DB, name string, num, reads, valueSize, threads int, seed int64) error {
	val := make([]byte, valueSize)
	h := histogram.New()
	start := time.Now()
	ops := num
	// worker builds client tid's op closure, run on the harness's clients.
	var worker func(tid int) func(i int) error
	randomKeys := func(op func(key []byte) error) func(int) func(int) error {
		return func(tid int) func(int) error {
			rng := rand.New(rand.NewSource(seed + int64(tid)))
			return func(int) error { return op(ycsb.Key(uint64(rng.Intn(num)))) }
		}
	}
	switch name {
	case "fillseq":
		worker = func(int) func(int) error {
			return func(i int) error { return d.Put([]byte(fmt.Sprintf("key%012d", i)), val) }
		}
	case "fillrandom":
		worker = randomKeys(func(key []byte) error { return d.Put(key, val) })
	case "overwrite":
		// Rewrite existing keys repeatedly, stressing compaction debt.
		worker = func(int) func(int) error {
			return func(i int) error { return d.Put(ycsb.Key(uint64(i%max(num/4, 1))), val) }
		}
	case "deleterandom":
		worker = randomKeys(d.Delete)
	case "seekrandom":
		ops = reads
		worker = randomKeys(func(key []byte) error {
			it, err := d.NewIterator()
			if err != nil {
				return err
			}
			it.Seek(key)
			for j := 0; j < 10 && it.Valid(); j++ {
				it.Next()
			}
			return it.Close()
		})
	case "readrandom", "readwhilewriting":
		// Zipfian point reads, alone or beside 50% updates: YCSB C and A.
		wl := ycsb.WorkloadC
		if name == "readwhilewriting" {
			wl = ycsb.WorkloadA
		}
		r, err := harness.Phase{Workload: wl, Records: num, Ops: reads, Threads: threads,
			ValueLen: valueSize, Seed: seed, TolerateUnavailable: true}.Run(d)
		if err != nil {
			return err
		}
		unavailableReads += r.Unavailable
		h.Merge(r.Reads)
		h.Merge(r.Writes)
		ops = reads
	case "readseq":
		it, err := d.NewIterator()
		if err != nil {
			return err
		}
		ops = 0
		for it.First(); it.Valid() && ops < reads; it.Next() {
			ops++
		}
		if err := it.Close(); err != nil {
			return err
		}
	case "compact":
		if err := d.CompactAll(); err != nil {
			return err
		}
		ops = 1
	default:
		return fmt.Errorf("unknown benchmark (have fillseq fillrandom overwrite deleterandom readrandom readseq seekrandom readwhilewriting compact)")
	}
	if worker != nil {
		if err := harness.Clients(threads, ops, h, worker); err != nil {
			return err
		}
	}
	dur := time.Since(start)
	fmt.Printf("%-18s : %10.0f ops/s  (%d ops in %s, %d threads)  %s\n",
		name, float64(ops)/dur.Seconds(), ops, dur.Round(time.Millisecond), max(threads, 1), h)
	return nil
}
