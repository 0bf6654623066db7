package vitals

import (
	"math"
	"runtime"
	"testing"
	"time"

	"rocksmash/internal/metrics"
	"rocksmash/internal/readprof"
	"rocksmash/internal/storage"
)

// TestDeriveRates checks the windowed differentiation arithmetic on a
// hand-built pair of samples spanning exactly two seconds.
func TestDeriveRates(t *testing.T) {
	base := time.Now().UnixNano()
	prev := Sample{UnixNano: base, Metrics: metrics.Metrics{
		Writes:          100,
		Reads:           50,
		BytesWritten:    1000,
		FlushBytes:      500,
		CompactBytesOut: 300,
		BlockCacheHits:  10, BlockCacheMisses: 10,
		ReadAmp:      metrics.ReadAmp{ProfiledGets: 10, Blocks: [readprof.NumTiers]int64{15, 5}},
		CommitGroups: 4, CommitGroupBatches: 8,
		CloudCost: storage.CostReport{RequestCost: 1.0},
	}}
	cur := Sample{UnixNano: base + 2*int64(time.Second), Metrics: metrics.Metrics{
		Writes:          300,                      // +200 over 2s -> 100/s
		Reads:           150,                      // +100 -> 50/s
		BytesWritten:    3000,                     // +2000
		FlushBytes:      1500,                     // +1000
		CompactBytesOut: 1300,                     // +1000
		BlockCacheHits:  40, BlockCacheMisses: 20, // +30 hits, +10 misses -> 0.75
		// +50 gets, +100 blocks across two tiers -> 2 blk/get
		ReadAmp:      metrics.ReadAmp{ProfiledGets: 60, Blocks: [readprof.NumTiers]int64{75, 45}},
		CommitGroups: 8, CommitGroupBatches: 24, // +4 groups, +16 batches -> 4
		// storage -> $0.01/hr; request +$0.5 over 2s -> $900/hr
		CloudCost:      storage.CostReport{StorageCost: 7.305, RequestCost: 1.5},
		BreakerState:   "open",
		CompactionDebt: 42,
		PendingTables:  3,
	}}
	w := Derive(prev, cur)

	approx := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	approx("Seconds", w.Seconds, 2)
	approx("WriteOpsPerSec", w.WriteOpsPerSec, 100)
	approx("ReadOpsPerSec", w.ReadOpsPerSec, 50)
	approx("UserBytesPerSec", w.UserBytesPerSec, 1000)
	// (flush 1000 + compact-out 1000) / user 2000 = 1.0
	approx("WriteAmp", w.WriteAmp, 1.0)
	approx("ReadAmpBlocksPerGet", w.ReadAmpBlocksPerGet, 2.0)
	approx("BlockHitRatio", w.BlockHitRatio, 0.75)
	approx("CommitGroupSize", w.CommitGroupSize, 4.0)
	approx("DollarsPerHour.Storage", w.DollarsPerHour.Storage, 0.01)
	approx("DollarsPerHour.Request", w.DollarsPerHour.Request, 900)
	approx("DollarsPerHour.Total", w.DollarsPerHour.Total, 900.01)
	approx("OpsPerDollar", w.OpsPerDollar, 150/900.01)
	if w.Breaker != "open" || w.CompactionDebt != 42 || w.PendingTables != 3 {
		t.Errorf("end gauges not carried: %+v", w)
	}
}

// TestDeriveEmptyDenominators feeds identical samples one second apart:
// every ratio must come out 0, never NaN or Inf.
func TestDeriveEmptyDenominators(t *testing.T) {
	s := Sample{UnixNano: time.Now().UnixNano()}
	cur := s
	cur.UnixNano += int64(time.Second)
	w := Derive(s, cur)
	for name, v := range map[string]float64{
		"WriteAmp":            w.WriteAmp,
		"ReadAmpBlocksPerGet": w.ReadAmpBlocksPerGet,
		"BlockHitRatio":       w.BlockHitRatio,
		"PCacheHitRatio":      w.PCacheHitRatio,
		"CommitGroupSize":     w.CommitGroupSize,
		"OpsPerDollar":        w.OpsPerDollar,
		"ShardSkew":           w.ShardSkew,
	} {
		if v != 0 {
			t.Errorf("%s = %v on an all-zero window, want 0", name, v)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v, want finite", name, v)
		}
	}
}

// TestDeriveZeroDuration: a non-positive dt yields a zero-rate window that
// still carries the end gauges.
func TestDeriveZeroDuration(t *testing.T) {
	s := Sample{UnixNano: 1000, Metrics: metrics.Metrics{Writes: 50, BreakerState: "half-open", PendingTables: 2}}
	w := Derive(s, s)
	if w.Seconds != 0 || w.WriteOpsPerSec != 0 {
		t.Errorf("zero-dt window has rates: %+v", w)
	}
	if w.Breaker != "half-open" || w.PendingTables != 2 {
		t.Errorf("zero-dt window dropped gauges: %+v", w)
	}
}

// TestDeriveShardSkew: three shards with op deltas 10/20/30 — skew is
// (30-10)/20 = 1.0. Perfectly balanced deltas give 0.
func TestDeriveShardSkew(t *testing.T) {
	base := time.Now().UnixNano()
	shards := func(ops ...int64) []metrics.ShardSummary {
		out := make([]metrics.ShardSummary, len(ops))
		for i, n := range ops {
			out[i] = metrics.ShardSummary{Shard: i, Writes: n / 2, Reads: n - n/2}
		}
		return out
	}
	prev := Sample{UnixNano: base, Metrics: metrics.Metrics{Shards: shards(100, 100, 100)}}
	cur := Sample{UnixNano: base + int64(time.Second), Metrics: metrics.Metrics{Shards: shards(110, 120, 130)}}
	if w := Derive(prev, cur); math.Abs(w.ShardSkew-1.0) > 1e-9 {
		t.Errorf("ShardSkew = %v, want 1.0", w.ShardSkew)
	}
	cur.Shards = shards(120, 120, 120)
	if w := Derive(prev, cur); w.ShardSkew != 0 {
		t.Errorf("balanced ShardSkew = %v, want 0", w.ShardSkew)
	}
}

// TestRingWrapAround pushes 3x capacity and checks the snapshot returns
// exactly the newest capacity samples, oldest first.
func TestRingWrapAround(t *testing.T) {
	const cap = 8
	r := newRing(cap)
	for i := 1; i <= 3*cap; i++ {
		r.push(&Sample{UnixNano: int64(i)})
	}
	got := r.snapshot()
	if len(got) != cap {
		t.Fatalf("snapshot len = %d, want %d", len(got), cap)
	}
	for i, s := range got {
		want := int64(2*cap + i + 1)
		if s.UnixNano != want {
			t.Errorf("snapshot[%d].UnixNano = %d, want %d", i, s.UnixNano, want)
		}
	}
}

// TestRingPartial: fewer pushes than capacity returns just those samples.
func TestRingPartial(t *testing.T) {
	r := newRing(16)
	if got := r.snapshot(); len(got) != 0 {
		t.Fatalf("empty ring snapshot len = %d", len(got))
	}
	r.push(&Sample{UnixNano: 1})
	r.push(&Sample{UnixNano: 2})
	got := r.snapshot()
	if len(got) != 2 || got[0].UnixNano != 1 || got[1].UnixNano != 2 {
		t.Fatalf("partial snapshot = %+v", got)
	}
}

// TestWindowsOf: n samples derive n-1 windows in order.
func TestWindowsOf(t *testing.T) {
	base := time.Now().UnixNano()
	var samples []Sample
	for i := 0; i < 5; i++ {
		samples = append(samples, Sample{
			UnixNano: base + int64(i)*int64(time.Second),
			Metrics:  metrics.Metrics{Writes: int64(i) * 10},
		})
	}
	wins := WindowsOf(samples)
	if len(wins) != 4 {
		t.Fatalf("WindowsOf returned %d windows, want 4", len(wins))
	}
	for i, w := range wins {
		if math.Abs(w.WriteOpsPerSec-10) > 1e-9 {
			t.Errorf("window %d WriteOpsPerSec = %v, want 10", i, w.WriteOpsPerSec)
		}
	}
	if WindowsOf(samples[:1]) != nil {
		t.Error("WindowsOf(single sample) should be nil")
	}
}

// TestSamplerLifecycle: the sampler takes an immediate synchronous sample,
// accumulates more on its ticker, stops idempotently, and leaks no
// goroutine.
func TestSamplerLifecycle(t *testing.T) {
	before := runtime.NumGoroutine()
	var n int64
	s := NewSampler(time.Millisecond, 64, func() Sample {
		n++
		return Sample{UnixNano: time.Now().UnixNano(), Metrics: metrics.Metrics{Writes: n}}
	})
	if len(s.Samples()) != 0 {
		t.Fatal("sampled before Start")
	}
	s.Start()
	if len(s.Samples()) == 0 {
		t.Fatal("no synchronous first sample")
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(s.Samples()) < 5 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := len(s.Samples()); got < 5 {
		t.Fatalf("sampler only took %d samples", got)
	}
	if _, ok := s.LatestWindow(); !ok {
		t.Fatal("no latest window with >=2 samples")
	}
	rep := s.Report()
	if rep.Latest == nil || rep.Window == nil || len(rep.Windows) != len(rep.Samples)-1 {
		t.Fatalf("bad report: latest=%v window=%v samples=%d windows=%d",
			rep.Latest != nil, rep.Window != nil, len(rep.Samples), len(rep.Windows))
	}
	s.Stop()
	s.Stop() // idempotent
	if len(s.Samples()) == 0 {
		t.Error("ring unreadable after Stop")
	}
	// The sampler goroutine must be gone; allow the runtime a moment.
	deadline = time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines grew %d -> %d after Stop", before, after)
	}
}

// TestSamplerConcurrentReaders hammers snapshot/report from multiple
// goroutines while the sampler writes at a tight interval; run with -race.
func TestSamplerConcurrentReaders(t *testing.T) {
	s := NewSampler(100*time.Microsecond, 8, func() Sample {
		return Sample{UnixNano: time.Now().UnixNano()}
	})
	s.Start()
	defer s.Stop()
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 500; j++ {
				samples := s.Samples()
				for k := 1; k < len(samples); k++ {
					if samples[k].UnixNano < samples[k-1].UnixNano {
						t.Error("snapshot out of order")
						return
					}
				}
				s.LatestWindow()
				s.Report()
			}
		}()
	}
	for i := 0; i < 4; i++ {
		<-done
	}
}
