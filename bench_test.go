// Benchmarks: one testing.B benchmark per table/figure of the paper's
// evaluation (DESIGN.md §4). Each benchmark measures the core operation of
// its experiment; the full multi-scheme report for a figure is produced by
// the harness (`go run ./cmd/mashbench -exp figN`).
//
// Run all:  go test -bench=. -benchmem
package rocksmash_test

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rocksmash"
	"rocksmash/internal/db"
	"rocksmash/internal/pcache"
	"rocksmash/internal/storage"
	"rocksmash/internal/ycsb"
)

// benchOptions uses a fast cloud model so benchmarks finish quickly while
// preserving the local ≪ cloud gap.
func benchOptions(p rocksmash.Policy) rocksmash.Options {
	o := rocksmash.DefaultOptions()
	o.Policy = p
	o.MemtableBytes = 1 << 20
	o.LevelBaseBytes = 4 << 20
	o.TargetFileBytes = 1 << 20
	o.PCacheBytes = 16 << 20
	o.CloudLatency = rocksmash.LatencyModel{
		GetFirstByte:   500 * time.Microsecond,
		PutFirstByte:   800 * time.Microsecond,
		MetaRTT:        200 * time.Microsecond,
		ReadBandwidth:  400 << 20,
		WriteBandwidth: 400 << 20,
	}
	return o
}

func openBench(b *testing.B, p rocksmash.Policy) *rocksmash.DB {
	b.Helper()
	d, err := rocksmash.Open(b.TempDir(), ptr(benchOptions(p)))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { d.Close() })
	return d
}

func ptr(o rocksmash.Options) *rocksmash.Options { return &o }

func loadBench(b *testing.B, d *rocksmash.DB, n, valLen int) {
	b.Helper()
	val := make([]byte, valLen)
	for i := 0; i < n; i++ {
		if err := d.Put(ycsb.Key(uint64(i)), val); err != nil {
			b.Fatal(err)
		}
	}
	if err := d.CompactAll(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFig1StorageGap measures raw 64 KiB object GETs on each tier —
// the motivation gap behind hybrid placement.
func BenchmarkFig1StorageGap(b *testing.B) {
	obj := make([]byte, 64<<10)
	run := func(b *testing.B, be storage.Backend) {
		if err := storage.WriteObject(be, "obj", obj); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(obj)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := be.ReadAll("obj"); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("local", func(b *testing.B) {
		be, err := storage.NewLocal(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		run(b, be)
	})
	b.Run("cloud", func(b *testing.B) {
		be, err := storage.NewCloud(b.TempDir(), benchOptions(rocksmash.PolicyMash).CloudLatency, storage.DefaultCost())
		if err != nil {
			b.Fatal(err)
		}
		run(b, be)
	})
}

// BenchmarkFig5FillRandom measures random-write throughput per scheme.
func BenchmarkFig5FillRandom(b *testing.B) {
	for _, p := range []rocksmash.Policy{rocksmash.PolicyLocalOnly, rocksmash.PolicyMash, rocksmash.PolicyCloudLRU, rocksmash.PolicyCloudOnly} {
		b.Run(p.String(), func(b *testing.B) {
			d := openBench(b, p)
			rng := rand.New(rand.NewSource(1))
			val := make([]byte, 400)
			b.SetBytes(400)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := d.Put(ycsb.Key(uint64(rng.Intn(1<<20))), val); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig6ReadRandom measures zipfian point reads per scheme over a
// pre-loaded, compacted dataset.
func BenchmarkFig6ReadRandom(b *testing.B) {
	const records = 10000
	for _, p := range []rocksmash.Policy{rocksmash.PolicyLocalOnly, rocksmash.PolicyMash, rocksmash.PolicyCloudLRU, rocksmash.PolicyCloudOnly} {
		b.Run(p.String(), func(b *testing.B) {
			d := openBench(b, p)
			loadBench(b, d, records, 400)
			gen := ycsb.NewGenerator(ycsb.WorkloadC, records, 400, 7)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op := gen.Next()
				if _, err := d.Get(op.Key); err != nil && err != rocksmash.ErrNotFound {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig7ReadLatency is fig6's workload reporting tail latency.
func BenchmarkFig7ReadLatency(b *testing.B) {
	const records = 10000
	for _, p := range []rocksmash.Policy{rocksmash.PolicyMash, rocksmash.PolicyCloudOnly} {
		b.Run(p.String(), func(b *testing.B) {
			d := openBench(b, p)
			loadBench(b, d, records, 400)
			gen := ycsb.NewGenerator(ycsb.WorkloadC, records, 400, 7)
			var worst time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := time.Now()
				if _, err := d.Get(gen.Next().Key); err != nil && err != rocksmash.ErrNotFound {
					b.Fatal(err)
				}
				if el := time.Since(s); el > worst {
					worst = el
				}
			}
			b.ReportMetric(float64(worst.Microseconds()), "max-us")
		})
	}
}

// BenchmarkFig8YCSB runs each core workload mix against PolicyMash.
func BenchmarkFig8YCSB(b *testing.B) {
	const records = 10000
	for _, wl := range []ycsb.Workload{ycsb.WorkloadA, ycsb.WorkloadB, ycsb.WorkloadC, ycsb.WorkloadD, ycsb.WorkloadE, ycsb.WorkloadF} {
		b.Run(wl.Name, func(b *testing.B) {
			d := openBench(b, rocksmash.PolicyMash)
			loadBench(b, d, records, 400)
			gen := ycsb.NewGenerator(wl, records, 400, 7)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op := gen.Next()
				switch op.Kind {
				case ycsb.OpRead:
					if _, err := d.Get(op.Key); err != nil && err != rocksmash.ErrNotFound {
						b.Fatal(err)
					}
				case ycsb.OpUpdate, ycsb.OpInsert:
					if err := d.Put(op.Key, op.Value); err != nil {
						b.Fatal(err)
					}
				case ycsb.OpScan:
					it, err := d.NewIterator()
					if err != nil {
						b.Fatal(err)
					}
					it.Seek(op.Key)
					for j := 0; j < op.ScanLen && it.Valid(); j++ {
						it.Next()
					}
					if err := it.Close(); err != nil {
						b.Fatal(err)
					}
				case ycsb.OpReadModifyWrite:
					if _, err := d.Get(op.Key); err != nil && err != rocksmash.ErrNotFound {
						b.Fatal(err)
					}
					if err := d.Put(op.Key, op.Value); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkFig9HitRatio exercises the two persistent-cache designs on a
// zipfian block trace and reports their hit ratios and index cost.
func BenchmarkFig9HitRatio(b *testing.B) {
	const files = 16
	const blocksPerFile = 256
	mk := func(b *testing.B, c *pcache.PCache) {
		block := make([]byte, 4096)
		z := ycsb.NewZipfian(rand.New(rand.NewSource(5)), files*blocksPerFile, 0.99)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n := z.Next()
			file, off := n/blocksPerFile+1, (n%blocksPerFile)*4096
			if _, ok := c.Get(file, off); !ok {
				c.Put(file, off, block)
			}
		}
		b.StopTimer()
		b.ReportMetric(c.Stats().HitRatio(), "hit-ratio")
		blocks := c.UsedBytes() / 4096
		if blocks > 0 {
			b.ReportMetric(float64(c.MetadataBytes())/float64(blocks), "meta-B/blk")
		}
	}
	b.Run("lsm-aware", func(b *testing.B) {
		c, err := pcache.New(pcache.Options{Dir: b.TempDir(), CapacityBytes: 2 << 20, RegionBytes: 128 << 10})
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		mk(b, c)
	})
	b.Run("generic-lru", func(b *testing.B) {
		c, err := pcache.New(pcache.Options{Dir: b.TempDir(), CapacityBytes: 2 << 20, Generic: true})
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		mk(b, c)
	})
}

// BenchmarkFig10CompactionAware measures the mixed read/write stream with
// and without compaction inheritance.
func BenchmarkFig10CompactionAware(b *testing.B) {
	const records = 8000
	for _, inherit := range []bool{true, false} {
		name := "inherit"
		if !inherit {
			name = "invalidate-only"
		}
		b.Run(name, func(b *testing.B) {
			o := benchOptions(rocksmash.PolicyMash)
			o.CompactionInheritance = inherit
			o.LocalLevels = -1
			d, err := rocksmash.Open(b.TempDir(), &o)
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			loadBench(b, d, records, 400)
			gen := ycsb.NewGenerator(ycsb.WorkloadA, records, 400, 7)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op := gen.Next()
				if op.Kind == ycsb.OpRead {
					if _, err := d.Get(op.Key); err != nil && err != rocksmash.ErrNotFound {
						b.Fatal(err)
					}
				} else if err := d.Put(op.Key, op.Value); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			hit, _, _ := d.PCacheStats()
			b.ReportMetric(hit, "pcache-hit")
		})
	}
}

// BenchmarkFig11Recovery measures crash-recovery over a fixed WAL volume,
// reporting recovered records per second and (with the allocations of an
// Open) allocations per record beside the time per Open. serial and
// parallel-x2/x4 replay the whole WAL: nothing is flushed before the crash
// and every batch holds one Put, so the recovered entries are the replayed
// WAL records. partial crashes after half of the memtables were flushed but
// before their WAL segments were deleted, and requires replay to skip those
// segments by their sequence ranges. cloud loses every local WAL segment
// before each Open and rebuilds the store from the WALCloudBackup copies,
// so the segment images come from the backup tier (the active segment at
// the crash had no copy yet, and its records are lost). large writes 48 KiB
// values, each record longer than a 32 KiB WAL block: every record is
// reassembled from fragments, and none can be read in place in its
// segment's image.
func BenchmarkFig11Recovery(b *testing.B) {
	const walBytes = 8 << 20
	const records = walBytes / (1024 + 32)
	val := make([]byte, 1024)
	options := func(extended bool, par int) rocksmash.Options {
		o := benchOptions(rocksmash.PolicyMash)
		o.MemtableBytes = 1 << 30
		o.WALSegmentBytes = 1 << 20
		o.ExtendedWAL = extended
		o.RecoveryParallelism = par
		return o
	}
	put := func(d *rocksmash.DB, from, to int) {
		for i := from; i < to; i++ {
			if err := d.Put(ycsb.Key(uint64(i)), val); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, mode := range []struct {
		name     string
		extended bool
		par      int
	}{{"serial", false, 1}, {"parallel-x2", true, 2}, {"parallel-x4", true, 4}} {
		b.Run(mode.name, func(b *testing.B) {
			dir := b.TempDir()
			o := options(mode.extended, mode.par)
			d, err := rocksmash.Open(dir, &o)
			if err != nil {
				b.Fatal(err)
			}
			put(d, 0, records)
			d.Crash()
			benchRecovery(b, dir, o, walBytes, nil, nil)
		})
	}
	b.Run("partial", func(b *testing.B) {
		dir := b.TempDir()
		o := options(true, 2)
		// The crash lands between the last flush's install and its WAL
		// garbage collection: no flushed segment is deleted.
		noGC := errors.New("crashed before WAL garbage collection")
		d, local, _, err := db.OpenAtChaosLocal(dir, o, storage.FaultConfig{}, storage.FaultConfig{})
		if err != nil {
			b.Fatal(err)
		}
		local.SetHook(func(op, name string) error {
			if op == "DELETE" && strings.HasPrefix(name, "wal/") && strings.HasSuffix(name, ".log") {
				return noGC
			}
			return nil
		})
		const memtables, flushed = 8, 4
		for m := 0; m < memtables; m++ {
			put(d, m*records/memtables, (m+1)*records/memtables)
			if m < flushed {
				if err := d.Flush(); err != nil {
					b.Fatal(err)
				}
			}
		}
		d.Crash()
		benchRecovery(b, dir, o, walBytes/2, nil, func(rep rocksmash.RecoveryReport) {
			if rep.WALSkipped == 0 {
				b.Fatalf("no flushed segment skipped: %+v", rep)
			}
		})
	})
	b.Run("cloud", func(b *testing.B) {
		dir := b.TempDir()
		o := options(true, 2)
		o.WALCloudBackup = true
		d, err := rocksmash.Open(dir, &o)
		if err != nil {
			b.Fatal(err)
		}
		put(d, 0, records)
		d.Crash()
		walDir := filepath.Join(dir, "local", "wal")
		benchRecovery(b, dir, o, walBytes, func() {
			segs, err := filepath.Glob(filepath.Join(walDir, "*.log"))
			if err != nil {
				b.Fatal(err)
			}
			for _, s := range segs {
				if err := os.Remove(s); err != nil {
					b.Fatal(err)
				}
			}
		}, nil)
	})
	b.Run("large", func(b *testing.B) {
		dir := b.TempDir()
		o := options(true, 2)
		d, err := rocksmash.Open(dir, &o)
		if err != nil {
			b.Fatal(err)
		}
		big := make([]byte, 48<<10)
		for i := 0; i < walBytes/len(big); i++ {
			if err := d.Put(ycsb.Key(uint64(i)), big); err != nil {
				b.Fatal(err)
			}
		}
		d.Crash()
		benchRecovery(b, dir, o, walBytes, nil, nil)
	})
}

// benchRecovery times b.N Opens of the crashed store in dir, crashing each
// again so the next finds the same WAL. Outside the timer, prepare (when
// non-nil) runs before every Open and check (when non-nil) inspects every
// Open's report.
func benchRecovery(b *testing.B, dir string, o rocksmash.Options, walBytes int64, prepare func(), check func(rocksmash.RecoveryReport)) {
	b.Helper()
	b.SetBytes(walBytes)
	b.ReportAllocs()
	b.ResetTimer()
	var records int64
	for i := 0; i < b.N; i++ {
		if prepare != nil {
			b.StopTimer()
			prepare()
			b.StartTimer()
		}
		d, err := rocksmash.Open(dir, &o)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		rep := d.RecoveryReport()
		if rep.RecoveredKeys == 0 {
			b.Fatal("nothing recovered")
		}
		if check != nil {
			check(rep)
		}
		records += rep.RecoveredKeys
		d.Crash() // leave the WAL in place for the next iteration
		b.StartTimer()
	}
	b.ReportMetric(float64(records)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkFig12Skew reads at different zipfian skews under PolicyMash.
func BenchmarkFig12Skew(b *testing.B) {
	const records = 10000
	for _, theta := range []float64{0.6, 0.99} {
		b.Run(fmt.Sprintf("theta=%.2f", theta), func(b *testing.B) {
			d := openBench(b, rocksmash.PolicyMash)
			loadBench(b, d, records, 400)
			gen := ycsb.NewGeneratorWithTheta(ycsb.WorkloadC, records, 400, 7, theta)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.Get(gen.Next().Key); err != nil && err != rocksmash.ErrNotFound {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTab2Metadata measures the admission path of both persistent
// caches and reports their per-block index footprint.
func BenchmarkTab2Metadata(b *testing.B) {
	block := make([]byte, 4096)
	b.Run("lsm-aware-put", func(b *testing.B) {
		c, err := pcache.New(pcache.Options{Dir: b.TempDir(), CapacityBytes: 64 << 20, RegionBytes: 256 << 10})
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Put(uint64(i/1000+1), uint64(i%1000)*4096, block)
		}
		b.StopTimer()
		if n := c.CachedBlocks(); n > 0 {
			b.ReportMetric(float64(c.MetadataBytes())/float64(n), "meta-B/blk")
		}
	})
	b.Run("generic-lru-put", func(b *testing.B) {
		c, err := pcache.New(pcache.Options{Dir: b.TempDir(), CapacityBytes: 64 << 20, Generic: true})
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Put(uint64(i/1000+1), uint64(i%1000)*4096, block)
		}
		b.StopTimer()
		if n := c.CachedBlocks(); n > 0 {
			b.ReportMetric(float64(c.MetadataBytes())/float64(n), "meta-B/blk")
		}
	})
}

// BenchmarkTab3Cost runs a read-mostly mix against PolicyMash and
// PolicyCloudOnly, reporting simulated cloud dollars per million ops.
func BenchmarkTab3Cost(b *testing.B) {
	const records = 8000
	for _, p := range []rocksmash.Policy{rocksmash.PolicyMash, rocksmash.PolicyCloudOnly} {
		b.Run(p.String(), func(b *testing.B) {
			d := openBench(b, p)
			loadBench(b, d, records, 400)
			gen := ycsb.NewGenerator(ycsb.WorkloadB, records, 400, 7)
			startCost := 0.0
			if rep, ok := d.CloudCost(); ok {
				startCost = rep.RequestCost + rep.EgressCost
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op := gen.Next()
				if op.Kind == ycsb.OpRead {
					if _, err := d.Get(op.Key); err != nil && err != rocksmash.ErrNotFound {
						b.Fatal(err)
					}
				} else if err := d.Put(op.Key, op.Value); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if rep, ok := d.CloudCost(); ok {
				delta := rep.RequestCost + rep.EgressCost - startCost
				b.ReportMetric(delta/float64(b.N)*1e6, "$-per-Mop")
			}
		})
	}
}

// BenchmarkTab4Reliability measures the full crash → recover → verify
// cycle that the reliability table asserts.
func BenchmarkTab4Reliability(b *testing.B) {
	const records = 2000
	dir := b.TempDir()
	o := benchOptions(rocksmash.PolicyMash)
	o.MemtableBytes = 1 << 30
	d, err := rocksmash.Open(dir, &o)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < records; i++ {
		if err := d.Put(ycsb.Key(uint64(i)), []byte("v")); err != nil {
			b.Fatal(err)
		}
	}
	d.Crash()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d2, err := rocksmash.Open(dir, &o)
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < records; j++ {
			if _, err := d2.Get(ycsb.Key(uint64(j))); err != nil {
				b.Fatalf("record %d lost: %v", j, err)
			}
		}
		d2.Crash()
	}
}

// loadColdDir builds a directory holding several uncompacted cloud-tier L0
// tables, so a reopen can drive (and time) one large compaction or a cold
// scan.
func loadColdDir(b *testing.B, records int) string {
	b.Helper()
	dir := b.TempDir()
	o := benchOptions(rocksmash.PolicyCloudOnly)
	o.L0CompactTrigger = 100 // keep everything in L0 during the load
	o.L0StallFiles = 300
	d, err := rocksmash.Open(dir, &o)
	if err != nil {
		b.Fatal(err)
	}
	val := make([]byte, 400)
	for i := 0; i < records; i++ {
		if err := d.Put(ycsb.Key(uint64(i)), val); err != nil {
			b.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		b.Fatal(err)
	}
	if err := d.Close(); err != nil {
		b.Fatal(err)
	}
	return dir
}

// BenchmarkPipelinedCompaction times one cloud-tier compaction pass: span
// GETs over the inputs, uploads overlapped with the merge.
func BenchmarkPipelinedCompaction(b *testing.B) {
	const records = 8000
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := loadColdDir(b, records)
		o := benchOptions(rocksmash.PolicyCloudOnly)
		d, err := rocksmash.Open(dir, &o)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := d.CompactAll(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := d.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdSeek times YCSB-E's scan — a seek to a zipfian key, then 1–100
// keys — over a reopened cloud-resident tree with two levels behind sorted
// views and a block cache a twelfth of the data. A cold seek positions in
// both levels, so its cost is the cloud round trips it waits on.
func BenchmarkColdSeek(b *testing.B) {
	const records = 8000
	dir := loadColdDir(b, records)
	o := benchOptions(rocksmash.PolicyCloudOnly)
	o.L0CompactTrigger = 1     // compacting leaves L0 empty
	o.LevelBaseBytes = 1 << 20 // and two levels below it
	o.BlockCacheBytes = 256 << 10
	d, err := rocksmash.Open(dir, &o)
	if err != nil {
		b.Fatal(err)
	}
	if err := d.CompactAll(); err != nil {
		b.Fatal(err)
	}
	if lf := d.Metrics().LevelFiles; lf[0] != 0 || lf[1] == 0 || lf[2] == 0 {
		b.Fatalf("level files %v, want L0 empty and L1, L2 populated", lf)
	}
	if err := d.Close(); err != nil {
		b.Fatal(err)
	}
	if d, err = rocksmash.Open(dir, &o); err != nil { // reopen: caches start cold
		b.Fatal(err)
	}
	defer d.Close()
	rng := rand.New(rand.NewSource(7))
	z := ycsb.NewZipfian(rng, records, 0.99)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it, err := d.NewIterator()
		if err != nil {
			b.Fatal(err)
		}
		if it.Seek(ycsb.Key(z.Next())); !it.Valid() {
			b.Fatal("seek to a loaded key found nothing")
		}
		for n := 1 + rng.Intn(100); n > 1 && it.Valid(); n-- {
			it.Next()
		}
		if err := it.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdScan times a full scan of a cloud-resident tree through a
// cold block cache, along the levels' sorted views, which the scan builds.
func BenchmarkColdScan(b *testing.B) {
	const records = 8000
	dir := loadColdDir(b, records)
	o := benchOptions(rocksmash.PolicyCloudOnly)
	{
		d, err := rocksmash.Open(dir, &o)
		if err != nil {
			b.Fatal(err)
		}
		if err := d.CompactAll(); err != nil {
			b.Fatal(err)
		}
		if err := d.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d, err := rocksmash.Open(dir, &o) // reopen: caches start cold
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		it, err := d.NewIterator()
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for it.First(); it.Valid(); it.Next() {
			n++
		}
		if err := it.Close(); err != nil {
			b.Fatal(err)
		}
		if n != records {
			b.Fatalf("scanned %d records, want %d", n, records)
		}
		b.StopTimer()
		if err := d.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
