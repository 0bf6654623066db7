package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"rocksmash/internal/db"
	"rocksmash/internal/histogram"
	"rocksmash/internal/sstable"
	"rocksmash/internal/storage"
	"rocksmash/internal/ycsb"
)

func init() {
	register("fig1", "Motivation: local vs cloud storage latency/throughput gap", fig1StorageGap)
	register("fig5", "Random-write throughput across placement schemes", fig5FillRandom)
	register("fig6", "Random-read throughput across placement schemes (zipfian)", fig6ReadRandom)
	register("fig7", "Read latency percentiles across placement schemes", fig7ReadLatency)
	register("fig8", "YCSB A–F throughput across placement schemes", fig8YCSB)
	register("fig9", "Persistent-cache hit ratio vs cache size (LSM-aware vs generic LRU)", fig9HitRatio)
	register("fig10", "Compaction-aware cache ablation (inheritance on/off)", fig10CompactionAware)
	register("fig11", "Recovery time vs WAL volume (eWAL parallel vs serial)", fig11Recovery)
	register("fig12", "Skew sensitivity: throughput vs zipfian theta", fig12Skew)
	register("tab2", "Metadata space-efficiency: packed index vs generic cache map", tab2Metadata)
	register("tab3", "Cost analysis: monthly cost and performance per dollar", tab3Cost)
	register("tab4", "Reliability: crash recovery and cloud-object-loss detection", tab4Reliability)
	register("fig13", "Placement sweep (ours): how many levels to keep local", fig13LocalLevels)
}

// fig1StorageGap measures the raw backends, motivating hybrid placement.
func fig1StorageGap(cfg Config) error {
	w := cfg.out()
	dir := filepath.Join(cfg.BaseDir, "fig1")
	local, err := storage.NewLocal(filepath.Join(dir, "local"))
	if err != nil {
		return err
	}
	cloud, err := storage.NewCloud(filepath.Join(dir, "cloud"), expOptions(db.PolicyMash).CloudLatency, storage.DefaultCost())
	if err != nil {
		return err
	}
	sizes := []int{4 << 10, 64 << 10, 1 << 20}
	iters := cfg.scale(200)
	fmt.Fprintf(w, "%-8s %-10s %12s %12s %14s\n", "backend", "objsize", "PUT avg", "GET avg", "GET MB/s")
	for _, be := range []storage.Backend{local, cloud} {
		for _, sz := range sizes {
			buf := make([]byte, sz)
			putH, getH := histogram.New(), histogram.New()
			for i := 0; i < iters; i++ {
				name := fmt.Sprintf("o%d-%d", sz, i%8)
				s := time.Now()
				if err := storage.WriteObject(be, name, buf); err != nil {
					return err
				}
				putH.Record(time.Since(s))
				s = time.Now()
				if _, err := be.ReadAll(name); err != nil {
					return err
				}
				getH.Record(time.Since(s))
			}
			mbps := float64(sz) / (1 << 20) / getH.Mean().Seconds()
			fmt.Fprintf(w, "%-8s %-10d %12s %12s %14.1f\n",
				be.Tier(), sz, putH.Mean().Round(time.Microsecond),
				getH.Mean().Round(time.Microsecond), mbps)
		}
	}
	return nil
}

// fig5FillRandom loads random keys under every policy.
func fig5FillRandom(cfg Config) error {
	w := cfg.out()
	n := cfg.scale(30000)
	const valLen = 400
	fmt.Fprintf(w, "%-12s %10s %10s %10s\n", "scheme", "kops/s", "MB/s", "stalls")
	for _, p := range allPolicies {
		d, err := openExp(cfg, "fig5", expOptions(p))
		if err != nil {
			return err
		}
		start := time.Now()
		if _, err := parallelFill(d, 1, n, valLen, cfg.seed()); err != nil {
			d.Close()
			return err
		}
		if err := d.Flush(); err != nil {
			d.Close()
			return err
		}
		dur := time.Since(start)
		m := d.Metrics()
		fmt.Fprintf(w, "%-12s %10s %10.2f %10d\n", p, kops(n, dur),
			float64(n*valLen)/(1<<20)/dur.Seconds(), m.WriteStalls)
		if err := d.Close(); err != nil {
			return err
		}
	}
	return nil
}

// readPhase loads a dataset once per policy and runs zipfian point reads.
func readPhase(cfg Config, tag string, p db.Policy, records, reads int) (*db.DB, PhaseResult, error) {
	d, r, err := loadAndRun(cfg, tag, expOptions(p), cfg.phase(ycsb.WorkloadC, records, reads))
	if err == nil {
		phaseReport(cfg, tag+"/"+p.String(), r)
	}
	return d, r, err
}

// fig6ReadRandom measures zipfian point-read throughput.
func fig6ReadRandom(cfg Config) error {
	w := cfg.out()
	records := cfg.scale(20000)
	reads := cfg.scale(8000)
	fmt.Fprintf(w, "%-12s %10s %12s %12s %10s\n", "scheme", "kops/s", "pcache-hit", "blkcache-hit", "cloudGET")
	for _, p := range allPolicies {
		d, r, err := readPhase(cfg, "fig6", p, records, reads)
		if err != nil {
			return err
		}
		m := d.Metrics()
		fmt.Fprintf(w, "%-12s %10s %12.3f %12.3f %10d\n", p, kops(reads, r.Dur),
			m.PCacheHit, m.BlockHit, m.CloudIO.GetOps)
		if err := d.Close(); err != nil {
			return err
		}
	}
	return nil
}

// fig7ReadLatency reports the latency distribution behind fig6.
func fig7ReadLatency(cfg Config) error {
	w := cfg.out()
	records := cfg.scale(20000)
	reads := cfg.scale(8000)
	fmt.Fprintf(w, "%-12s %12s %12s %12s %12s\n", "scheme", "mean", "p50", "p95", "p99")
	for _, p := range allPolicies {
		d, r, err := readPhase(cfg, "fig7", p, records, reads)
		if err != nil {
			return err
		}
		h := r.Reads
		fmt.Fprintf(w, "%-12s %12s %12s %12s %12s\n", p,
			h.Mean().Round(time.Microsecond), h.Percentile(50).Round(time.Microsecond),
			h.Percentile(95).Round(time.Microsecond), h.Percentile(99).Round(time.Microsecond))
		if err := d.Close(); err != nil {
			return err
		}
	}
	return nil
}

// fig8YCSB runs workloads A–F for every scheme.
func fig8YCSB(cfg Config) error {
	w := cfg.out()
	records := cfg.scale(15000)
	ops := cfg.scale(5000)
	workloads := []ycsb.Workload{
		ycsb.WorkloadA, ycsb.WorkloadB, ycsb.WorkloadC,
		ycsb.WorkloadD, ycsb.WorkloadE, ycsb.WorkloadF,
	}
	fmt.Fprintf(w, "%-12s", "scheme")
	for _, wl := range workloads {
		fmt.Fprintf(w, " %9s", "YCSB-"+wl.Name)
	}
	fmt.Fprintln(w, "  (kops/s)")
	for _, p := range allPolicies {
		fmt.Fprintf(w, "%-12s", p)
		for _, wl := range workloads {
			opCount := ops
			if wl.Name == "E" {
				opCount = ops / 5 // scans touch ~50 records each
			}
			d, r, err := loadAndRun(cfg, "fig8-"+wl.Name, expOptions(p), cfg.phase(wl, records, opCount))
			if err != nil {
				return err
			}
			fmt.Fprintf(w, " %9s", kops(opCount, r.Dur))
			if err := d.Close(); err != nil {
				return err
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}

// fig9HitRatio sweeps persistent-cache capacity for the LSM-aware cache
// and the generic LRU baseline.
func fig9HitRatio(cfg Config) error {
	w := cfg.out()
	records := cfg.scale(20000)
	reads := cfg.scale(6000)
	sweep := []int64{2 << 20, 4 << 20, 8 << 20, 16 << 20}
	fmt.Fprintf(w, "%-12s %12s %12s %10s\n", "cache", "capacity", "hit-ratio", "kops/s")
	for _, p := range []db.Policy{db.PolicyMash, db.PolicyCloudLRU} {
		for _, capBytes := range sweep {
			opts := expOptions(p)
			opts.PCacheBytes = capBytes
			// Keep everything except the cache in cloud for a pure cache
			// comparison: give Mash no local levels.
			opts.LocalLevels = -1
			d, r, err := loadAndRun(cfg, fmt.Sprintf("fig9-%d", capBytes), opts, cfg.phase(ycsb.WorkloadC, records, reads))
			if err != nil {
				return err
			}
			phaseReport(cfg, fmt.Sprintf("fig9-%dMB", capBytes>>20), r)
			hit, _, _ := d.PCacheStats()
			name := "lsm-aware"
			if p == db.PolicyCloudLRU {
				name = "generic-lru"
			}
			fmt.Fprintf(w, "%-12s %12d %12.3f %10s\n", name, capBytes, hit, kops(reads, r.Dur))
			if err := d.Close(); err != nil {
				return err
			}
		}
	}
	return nil
}

// fig10CompactionAware measures read-while-writing with and without
// compaction inheritance.
func fig10CompactionAware(cfg Config) error {
	w := cfg.out()
	records := cfg.scale(15000)
	ops := cfg.scale(12000)
	fmt.Fprintf(w, "%-16s %10s %12s %10s %12s\n", "inheritance", "kops/s", "pcache-hit", "cloudGET", "compactions")
	for _, inherit := range []bool{true, false} {
		opts := expOptions(db.PolicyMash)
		opts.CompactionInheritance = inherit
		opts.LocalLevels = -1 // everything cloud: isolates the cache effect
		// Small memtable and L0 trigger keep compactions churning through
		// the hot key range while it is being read.
		opts.MemtableBytes = 256 << 10
		opts.L0CompactTrigger = 2
		opts.LevelBaseBytes = 1 << 20
		// Mixed read/write stream keeps compactions churning while the
		// zipfian read set stays hot.
		d, r, err := loadAndRun(cfg, fmt.Sprintf("fig10-%v", inherit), opts, cfg.phase(ycsb.WorkloadA, records, ops))
		if err != nil {
			return err
		}
		phaseReport(cfg, fmt.Sprintf("fig10-inherit=%v", inherit), r)
		m := d.Metrics()
		label := "invalidate-only"
		if inherit {
			label = "inherit+warm"
		}
		fmt.Fprintf(w, "%-16s %10s %12.3f %10d %12d\n", label, kops(ops, r.Dur), m.PCacheHit, m.CloudIO.GetOps, m.Compactions)
		if err := d.Close(); err != nil {
			return err
		}
	}
	return nil
}

// fig11Recovery measures crash-recovery time as WAL volume grows, for
// serial replay, parallel replay, and parallel+skip (full eWAL).
func fig11Recovery(cfg Config) error {
	w := cfg.out()
	volumes := []int{4 << 20, 16 << 20, 48 << 20}
	if cfg.Quick {
		volumes = []int{1 << 20, 4 << 20}
	}
	fmt.Fprintf(w, "%-10s %-22s %12s %10s %10s\n", "walMB", "mode", "recovery", "segments", "skipped")
	for _, vol := range volumes {
		type mode struct {
			name     string
			extended bool
			par      int
		}
		for _, m := range []mode{
			{"serial (stock WAL)", false, 1},
			{"parallel x4 (eWAL)", true, 4},
		} {
			dir := filepath.Join(cfg.BaseDir, fmt.Sprintf("fig11-%d-%s", vol, m.name[:6]))
			os.RemoveAll(dir)
			opts := expOptions(db.PolicyMash)
			opts.MemtableBytes = 1 << 30 // never flush: all data stays in the WAL
			opts.WALSegmentBytes = 2 << 20
			opts.ExtendedWAL = m.extended
			opts.RecoveryParallelism = m.par
			d, err := db.OpenAt(dir, opts)
			if err != nil {
				return err
			}
			val := make([]byte, 1024)
			n := vol / (1024 + 32)
			for i := 0; i < n; i++ {
				if err := d.Put(ycsb.Key(uint64(i)), val); err != nil {
					d.Close()
					return err
				}
			}
			d.Crash()

			d2, err := db.OpenAt(dir, opts)
			if err != nil {
				return err
			}
			rep := d2.RecoveryReport()
			fmt.Fprintf(w, "%-10d %-22s %12s %10d %10d\n",
				vol>>20, m.name, rep.Duration.Round(time.Millisecond), rep.WALSegments, rep.WALSkipped)
			if err := d2.Close(); err != nil {
				return err
			}
		}
	}
	return nil
}

// fig12Skew sweeps the zipfian constant.
func fig12Skew(cfg Config) error {
	w := cfg.out()
	records := cfg.scale(20000)
	reads := cfg.scale(5000)
	thetas := []float64{0.6, 0.8, 0.9, 0.99}
	fmt.Fprintf(w, "%-8s", "theta")
	schemes := []db.Policy{db.PolicyMash, db.PolicyCloudLRU, db.PolicyCloudOnly}
	for _, p := range schemes {
		fmt.Fprintf(w, " %12s", p)
	}
	fmt.Fprintln(w, "  (kops/s)")
	for _, theta := range thetas {
		fmt.Fprintf(w, "%-8.2f", theta)
		for _, p := range schemes {
			ph := cfg.phase(ycsb.WorkloadC, records, reads)
			ph.Theta = theta
			d, r, err := loadAndRun(cfg, fmt.Sprintf("fig12-%.2f", theta), expOptions(p), ph)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, " %12s", kops(reads, r.Dur))
			if err := d.Close(); err != nil {
				return err
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}

// tab2Metadata compares per-block metadata cost of the two persistent
// caches plus the pinned table metadata kept local, in total and per MiB
// of table data.
func tab2Metadata(cfg Config) error {
	w := cfg.out()
	records := cfg.scale(30000)
	reads := cfg.scale(4000)
	fmt.Fprintf(w, "%-12s %14s %12s %16s %14s %14s\n", "cache", "cachedBlocks", "metaBytes", "bytes/block", "tableMetaBytes", "tableMeta/MB")
	for _, p := range []db.Policy{db.PolicyMash, db.PolicyCloudLRU} {
		opts := expOptions(p)
		opts.LocalLevels = -1
		d, r, err := loadAndRun(cfg, "tab2", opts, cfg.phase(ycsb.WorkloadC, records, reads))
		if err != nil {
			return err
		}
		phaseReport(cfg, "tab2/"+p.String(), r)
		m := d.Metrics()
		// blocks ≈ used / blockBytes; report meta per cached block.
		blocks := m.PCacheUsed / int64(opts.BlockBytes)
		if blocks == 0 {
			blocks = 1
		}
		name := "lsm-aware"
		if p == db.PolicyCloudLRU {
			name = "generic-lru"
		}
		fmt.Fprintf(w, "%-12s %14d %12d %16.1f %14d %14.0f\n",
			name, blocks, m.PCacheMeta, float64(m.PCacheMeta)/float64(blocks), m.MetaBytes,
			float64(m.MetaBytes)/(float64(m.LocalBytes+m.CloudBytes)/(1<<20)))
		if err := d.Close(); err != nil {
			return err
		}
	}
	return nil
}

// tab3Cost prices each scheme: storage split, cloud bill, and perf/$.
func tab3Cost(cfg Config) error {
	w := cfg.out()
	records := cfg.scale(20000)
	ops := cfg.scale(5000)
	// Local SSD pricing for the comparison column (EBS gp3-like, 2021).
	const localPerGBMonth = 0.08
	fmt.Fprintf(w, "%-12s %10s %10s %12s %12s %12s %14s\n",
		"scheme", "localGB", "cloudGB", "$local/mo", "$cloud/mo", "kops/s", "kops/s per $")
	type scheme struct {
		name string
		opts db.Options
	}
	var schemes []scheme
	for _, p := range allPolicies {
		schemes = append(schemes, scheme{p.String(), expOptions(p)})
	}
	zopts := expOptions(db.PolicyMash)
	zopts.Compression = sstable.CompressionFlate
	schemes = append(schemes, scheme{"mash+flate", zopts})
	for _, sc := range schemes {
		d, r, err := loadAndRun(cfg, "tab3-"+sc.name, sc.opts, cfg.phase(ycsb.WorkloadB, records, ops))
		if err != nil {
			return err
		}
		phaseReport(cfg, "tab3/"+sc.name, r)
		m := d.Metrics()
		localGB := float64(m.LocalBytes) / (1 << 30)
		cloudGB := float64(m.CloudBytes) / (1 << 30)
		localCost := localGB * localPerGBMonth
		cloudCost := 0.0
		if rep, ok := d.CloudCost(); ok {
			cloudCost = rep.TotalMonthly
		}
		throughput := float64(ops) / r.Dur.Seconds() / 1000
		total := localCost + cloudCost
		perDollar := 0.0
		if total > 0 {
			perDollar = throughput / total
		}
		fmt.Fprintf(w, "%-12s %10.4f %10.4f %12.5f %12.5f %12.2f %14.1f\n",
			sc.name, localGB, cloudGB, localCost, cloudCost, throughput, perDollar)
		if err := d.Close(); err != nil {
			return err
		}
	}
	return nil
}

// tab4Reliability exercises the recovery and failure-detection paths.
func tab4Reliability(cfg Config) error {
	w := cfg.out()
	records := cfg.scale(3000)

	// Case 1: crash with unflushed WAL data; everything must come back.
	dir := filepath.Join(cfg.BaseDir, "tab4-crash")
	os.RemoveAll(dir)
	opts := expOptions(db.PolicyMash)
	d, err := db.OpenAt(dir, opts)
	if err != nil {
		return err
	}
	for i := 0; i < records; i++ {
		if err := d.Put(ycsb.Key(uint64(i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			return err
		}
	}
	d.Crash()
	d2, err := db.OpenAt(dir, opts)
	if err != nil {
		return err
	}
	lost := 0
	for i := 0; i < records; i++ {
		v, err := d2.Get(ycsb.Key(uint64(i)))
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			lost++
		}
	}
	rep := d2.RecoveryReport()
	fmt.Fprintf(w, "crash+recover:      %d/%d records recovered, lost=%d (%s)\n",
		records-lost, records, lost, rep)
	verdict := "PASS"
	if lost != 0 {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "  -> %s (zero data loss through eWAL)\n", verdict)
	if err := d2.Close(); err != nil {
		return err
	}

	// Case 2: silent cloud object loss must surface as an error, never as
	// a silent missing key.
	dir2 := filepath.Join(cfg.BaseDir, "tab4-loss")
	os.RemoveAll(dir2)
	opts2 := expOptions(db.PolicyCloudOnly)
	opts2.BlockCacheBytes = 0
	d3, err := db.OpenAt(dir2, opts2)
	if err != nil {
		return err
	}
	defer d3.Close()
	for i := 0; i < records; i++ {
		if err := d3.Put(ycsb.Key(uint64(i)), []byte("x")); err != nil {
			return err
		}
	}
	if err := d3.Flush(); err != nil {
		return err
	}
	cl, err := storage.NewCloud(filepath.Join(dir2, "cloud"), storage.NoLatency(), storage.DefaultCost())
	if err != nil {
		return err
	}
	names, err := cl.List("sst/")
	if err != nil || len(names) == 0 {
		return fmt.Errorf("no cloud tables to lose (err=%v)", err)
	}
	d3.LoseCloudObject(names[0])
	detected := false
	for i := 0; i < records; i++ {
		if _, err := d3.Get(ycsb.Key(uint64(i))); err != nil && err != db.ErrNotFound {
			detected = true
			break
		}
	}
	verdict2 := "PASS"
	if !detected {
		verdict2 = "FAIL"
	}
	fmt.Fprintf(w, "cloud object loss:  error surfaced=%v\n  -> %s (loss detected, not silent)\n",
		detected, verdict2)

	// Case 3: WAL cloud backup — sealed WAL segments survive local device
	// loss and recovery restores them from the cloud copies.
	dir3 := filepath.Join(cfg.BaseDir, "tab4-walbackup")
	os.RemoveAll(dir3)
	opts3 := expOptions(db.PolicyMash)
	opts3.WALCloudBackup = true
	opts3.WALSegmentBytes = 64 << 10
	opts3.MemtableBytes = 1 << 30
	d4, err := db.OpenAt(dir3, opts3)
	if err != nil {
		return err
	}
	for i := 0; i < records; i++ {
		if err := d4.Put(ycsb.Key(uint64(i)), []byte(fmt.Sprintf("w%d", i))); err != nil {
			return err
		}
	}
	d4.Crash()
	// Lose every sealed local WAL segment, keeping only the newest.
	walDir := filepath.Join(dir3, "local", "wal")
	entries, err := os.ReadDir(walDir)
	if err != nil {
		return err
	}
	var segs []string
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".log" {
			segs = append(segs, e.Name())
		}
	}
	for _, s := range segs[:max(len(segs)-1, 0)] {
		os.Remove(filepath.Join(walDir, s))
	}
	d5, err := db.OpenAt(dir3, opts3)
	if err != nil {
		return err
	}
	defer d5.Close()
	lost3 := 0
	for i := 0; i < records; i++ {
		if v, err := d5.Get(ycsb.Key(uint64(i))); err != nil || string(v) != fmt.Sprintf("w%d", i) {
			lost3++
		}
	}
	verdict3 := "PASS"
	if lost3 != 0 {
		verdict3 = "FAIL"
	}
	fmt.Fprintf(w, "local WAL loss:     %d sealed segments deleted; %d/%d records recovered from cloud backup\n  -> %s (eWAL cloud backup)\n",
		max(len(segs)-1, 0), records-lost3, records, verdict3)
	return nil
}

// fig13LocalLevels is an ablation this implementation adds: sweep the
// local/cloud split point and measure the performance/footprint tradeoff
// the placement rule buys.
func fig13LocalLevels(cfg Config) error {
	w := cfg.out()
	records := cfg.scale(20000)
	ops := cfg.scale(5000)
	fmt.Fprintf(w, "%-12s %10s %12s %12s %12s\n", "localLevels", "kops/s", "localMB", "cloudMB", "cloudGET")
	for _, ll := range []int{-1, 1, 2, 3} {
		opts := expOptions(db.PolicyMash)
		opts.LocalLevels = ll
		d, r, err := loadAndRun(cfg, fmt.Sprintf("fig13-%d", ll), opts, cfg.phase(ycsb.WorkloadB, records, ops))
		if err != nil {
			return err
		}
		phaseReport(cfg, fmt.Sprintf("fig13-L%d", ll), r)
		m := d.Metrics()
		label := fmt.Sprint(ll)
		if ll == -1 {
			label = "0 (all cloud)"
		}
		fmt.Fprintf(w, "%-12s %10s %12.2f %12.2f %12d\n", label, kops(ops, r.Dur),
			float64(m.LocalBytes)/(1<<20), float64(m.CloudBytes)/(1<<20), m.CloudIO.GetOps)
		if err := d.Close(); err != nil {
			return err
		}
	}
	return nil
}
