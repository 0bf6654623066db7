package harness

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"rocksmash/internal/db"
	"rocksmash/internal/retry"
	"rocksmash/internal/storage"
	"rocksmash/internal/ycsb"
)

// TestPhaseMatchesGeneratorReplay runs a phase that mixes all five YCSB
// operation kinds on one and on four clients, and checks what it did
// against a direct replay of each client's generator (seed+tid, the
// client's share of the ops): the phase's read and write histograms and the
// store's own Get and Put counters must each add up to the replayed kinds.
func TestPhaseMatchesGeneratorReplay(t *testing.T) {
	const records, ops, seed = 500, 203, 11 // 203 ops split unevenly
	mix := ycsb.Workload{Name: "mix", ReadProp: 0.2, UpdateProp: 0.2, InsertProp: 0.2, ScanProp: 0.2,
		RMWProp: 0.2, Distribution: "zipfian", MaxScanLen: 5}
	for _, threads := range []int{1, 4} {
		opts := expOptions(db.PolicyLocalOnly)
		d, err := db.OpenAt(t.TempDir(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := loadRecords(d, records); err != nil {
			t.Fatal(err)
		}
		before := d.Metrics()
		p := Phase{Workload: mix, Records: records, Ops: ops, Threads: threads, ValueLen: 16, Seed: seed}
		r, err := p.Run(d)
		if err != nil {
			t.Fatal(err)
		}
		after := d.Metrics()
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}

		var kinds [ycsb.OpReadModifyWrite + 1]int64
		for tid := 0; tid < threads; tid++ {
			n := ops / threads
			if tid == threads-1 {
				n = ops - tid*(ops/threads)
			}
			gen := ycsb.NewGenerator(mix, records, 16, seed+int64(tid))
			for i := 0; i < n; i++ {
				kinds[gen.Next().Kind]++
			}
		}
		reads, scans, rmws := kinds[ycsb.OpRead], kinds[ycsb.OpScan], kinds[ycsb.OpReadModifyWrite]
		writes := kinds[ycsb.OpUpdate] + kinds[ycsb.OpInsert] + rmws
		for _, c := range []struct {
			what      string
			got, want int64
		}{
			{"read histogram (reads + scans)", r.Reads.Count(), reads + scans},
			{"write histogram (updates + inserts + rmws)", r.Writes.Count(), writes},
			{"store Gets (reads + rmws)", after.GetLat.Count - before.GetLat.Count, reads + rmws},
			{"store Puts (updates + inserts + rmws)", after.PutLat.Count - before.PutLat.Count, writes},
		} {
			if c.got != c.want {
				t.Errorf("threads=%d: %s = %d, replay says %d", threads, c.what, c.got, c.want)
			}
		}
		if scans == 0 || r.Scanned == 0 || r.Unavailable != 0 {
			t.Errorf("threads=%d: %d scans stepped over %d keys, %d reads unavailable", threads, scans, r.Scanned, r.Unavailable)
		}
	}
}

// TestPhaseToleratesCloudOutage reads a cloud-resident data set while the
// cloud is down. The breaker trips (two failures) before a read runs out
// of attempts (three), so every read the cloud cannot serve ends in
// ErrCloudUnavailable. A tolerant phase counts those reads and completes;
// the same phase without tolerance fails with that error.
func TestPhaseToleratesCloudOutage(t *testing.T) {
	const records, ops = 2000, 200
	opts := expOptions(db.PolicyCloudOnly)
	opts.CloudLatency = storage.NoLatency()
	opts.BlockCacheBytes = 64 << 10
	opts.CloudRetry = retry.Policy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond}
	opts.CloudBreaker = retry.BreakerConfig{FailureThreshold: 2, Cooldown: time.Minute} // no probe in the test
	d, faulty, err := db.OpenAtChaos(filepath.Join(t.TempDir(), "db"), opts, storage.FaultConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := loadRecords(d, records); err != nil {
		t.Fatal(err)
	}
	faulty.StartOutage(0)

	p := Phase{Workload: ycsb.WorkloadC, Records: records, Ops: ops, Threads: 2, ValueLen: recordLen, Seed: 3, TolerateUnavailable: true}
	r, err := p.Run(d)
	if err != nil {
		t.Fatalf("tolerant phase failed: %v", err)
	}
	if r.Unavailable == 0 || r.Reads.Count()+r.Unavailable != ops || d.BreakerState() != "open" {
		t.Fatalf("tolerant phase: %d reads served + %d unavailable, breaker %s; want some unavailable, %d in all, breaker open",
			r.Reads.Count(), r.Unavailable, d.BreakerState(), ops)
	}
	p.TolerateUnavailable = false
	if _, err := p.Run(d); !errors.Is(err, db.ErrCloudUnavailable) {
		t.Fatalf("intolerant phase: err = %v, want ErrCloudUnavailable", err)
	}
}
