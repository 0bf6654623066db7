package flight

import (
	"sync"
	"testing"
	"time"

	"rocksmash/internal/event"
	"rocksmash/internal/metrics"
	"rocksmash/internal/vitals"
)

// TestRingOverflowDropsOldest verifies the oldest-dropped contract: after
// writing past capacity, the snapshot is exactly the newest cap entries,
// in order, and Dropped accounts for the rest.
func TestRingOverflowDropsOldest(t *testing.T) {
	r := NewRing(16)
	const total = 100
	for i := 0; i < total; i++ {
		r.Add(event.TFlushBegin, event.FlushBegin{Reason: "memtable"})
	}
	if got := r.Recorded(); got != total {
		t.Fatalf("Recorded() = %d, want %d", got, total)
	}
	if got, want := r.Dropped(), uint64(total-r.Cap()); got != want {
		t.Fatalf("Dropped() = %d, want %d", got, want)
	}
	snap := r.Snapshot()
	if len(snap) != r.Cap() {
		t.Fatalf("snapshot has %d entries, want %d", len(snap), r.Cap())
	}
	for i, e := range snap {
		want := uint64(total - r.Cap() + i)
		if e.Seq != want {
			t.Fatalf("snapshot[%d].Seq = %d, want %d (oldest must be dropped, order kept)", i, e.Seq, want)
		}
	}
}

// TestRingSnapshotOrdered verifies a partially filled ring snapshots in
// sequence order with no gaps.
func TestRingSnapshotOrdered(t *testing.T) {
	r := NewRing(64)
	for i := 0; i < 10; i++ {
		r.Add(event.TCommitGroup, event.CommitGroup{Batches: i})
	}
	snap := r.Snapshot()
	if len(snap) != 10 {
		t.Fatalf("snapshot has %d entries, want 10", len(snap))
	}
	for i, e := range snap {
		if e.Seq != uint64(i) {
			t.Fatalf("snapshot[%d].Seq = %d, want %d", i, e.Seq, i)
		}
		if e.Data.(event.CommitGroup).Batches != i {
			t.Fatalf("snapshot[%d] payload mismatch", i)
		}
	}
}

// TestRingHammer races many writers against a slow consumer under -race:
// recording must never block, and every snapshot must be a strictly
// ordered subsequence of the recorded stream.
func TestRingHammer(t *testing.T) {
	r := NewRing(128)
	const writers, perWriter = 8, 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Slow consumer: snapshots continuously while writers overwrite.
	var consumer sync.WaitGroup
	consumer.Add(1)
	go func() {
		defer consumer.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := r.Snapshot()
			for i := 1; i < len(snap); i++ {
				if snap[i].Seq <= snap[i-1].Seq {
					t.Errorf("snapshot out of order: seq %d then %d", snap[i-1].Seq, snap[i].Seq)
					return
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()

	start := time.Now()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Add(event.TCloudRetry, event.CloudRetry{Op: "put", Attempt: i})
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	consumer.Wait()

	if got := r.Recorded(); got != writers*perWriter {
		t.Fatalf("Recorded() = %d, want %d (a writer blocked or lost a claim)", got, writers*perWriter)
	}
	// Never-blocking sanity: 40k lock-free records shouldn't take seconds
	// even with the consumer racing.
	if el := time.Since(start); el > 30*time.Second {
		t.Fatalf("hammer took %s: recording appears to block", el)
	}
}

// tick fabricates a vitals sample n ticks (100ms apart) from a base time.
func tick(n int, mut func(*vitals.Sample)) vitals.Sample {
	s := vitals.Sample{UnixNano: int64(1700000000_000_000_000) + int64(n)*int64(100*time.Millisecond)}
	if mut != nil {
		mut(&s)
	}
	return s
}

// TestDetectorBreakerEpisodeFiresOnce drives the cloud-outage rule through
// an open -> half-open -> open flap and verifies hysteresis: one incident
// for the whole episode, re-armed only after the breaker truly closes.
func TestDetectorBreakerEpisodeFiresOnce(t *testing.T) {
	d := NewDetector(DefaultRules(Thresholds{}))
	states := []string{
		"closed", "closed",
		"open", "open", "half-open", "open", "half-open", "open", // one flapping episode
		"closed", "closed", "closed", // recovery
	}
	var fired []Incident
	for i, st := range states {
		fired = append(fired, d.Observe(tick(i, func(s *vitals.Sample) { s.BreakerState = st }))...)
	}
	count := 0
	for _, inc := range fired {
		if inc.Rule == RuleCloudOutage {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("flapping episode fired %d cloud-outage incidents, want exactly 1", count)
	}
	if act := d.Active(); len(act) != 0 {
		t.Fatalf("detector still active after recovery: %v", act)
	}
}

// TestDetectorCooldownSuppresses verifies a second episode inside the
// cooldown re-opens silently (suppressed, not fired).
func TestDetectorCooldownSuppresses(t *testing.T) {
	d := NewDetector(DefaultRules(Thresholds{}))
	// Episode 1: two open ticks, then closed long enough to re-arm
	// (ClearTicks=2) but far inside the 1s cooldown (ticks are 100ms).
	seq := []string{"closed", "open", "open", "closed", "closed", "closed", "open", "open"}
	var fired, suppressedAt int
	for i, st := range seq {
		incs := d.Observe(tick(i, func(s *vitals.Sample) { s.BreakerState = st }))
		for _, inc := range incs {
			if inc.Rule == RuleCloudOutage {
				fired++
			}
		}
		if d.Suppressed() > 0 && suppressedAt == 0 {
			suppressedAt = i
		}
	}
	if fired != 1 {
		t.Fatalf("fired %d incidents, want 1 (second episode inside cooldown)", fired)
	}
	if d.Suppressed() != 1 {
		t.Fatalf("Suppressed() = %d, want 1", d.Suppressed())
	}
}

// TestDetectorLatencySpike verifies the baseline warmup and the spike
// threshold, and that the active episode freezes its own baseline.
func TestDetectorLatencySpike(t *testing.T) {
	d := NewDetector(DefaultRules(Thresholds{BaselineWarmup: 4}))
	n := 0
	obs := func(p99 time.Duration) []Incident {
		n++
		return d.Observe(tick(n, func(s *vitals.Sample) { s.GetLat.P99 = p99 }))
	}
	// Warmup at a calm 1ms baseline: no fire even though 1ms > 0 baseline.
	for i := 0; i < 6; i++ {
		if incs := obs(time.Millisecond); len(incs) != 0 {
			t.Fatalf("fired during warmup: %+v", incs)
		}
	}
	// Spike to 50ms: TriggerTicks=2, so the second spike tick fires.
	if incs := obs(50 * time.Millisecond); len(incs) != 0 {
		t.Fatalf("fired on first spike tick, want hysteresis delay")
	}
	incs := obs(50 * time.Millisecond)
	if len(incs) != 1 || incs[0].Rule != RuleLatencySpike {
		t.Fatalf("want one latency-spike incident, got %+v", incs)
	}
	// The frozen baseline must not have absorbed the spike.
	if base := d.p99Base.Value(); base > 2*float64(time.Millisecond) {
		t.Fatalf("baseline absorbed its own anomaly: %v", time.Duration(int64(base)))
	}
}

// TestDetectorShardSkew verifies the skew rule needs both the ratio and a
// minimum op mass.
func TestDetectorShardSkew(t *testing.T) {
	d := NewDetector(DefaultRules(Thresholds{SkewMinOps: 20}))
	var cum [4]int64
	n := 0
	obs := func(perShard [4]int64) []Incident {
		n++
		for i, v := range perShard {
			cum[i] += v
		}
		shards := make([]metrics.ShardSummary, len(cum))
		for i, ops := range cum {
			shards[i] = metrics.ShardSummary{Shard: i, Writes: ops}
		}
		return d.Observe(tick(n, func(s *vitals.Sample) { s.Shards = shards }))
	}
	// Balanced warmup.
	for i := 0; i < 3; i++ {
		if incs := obs([4]int64{25, 25, 25, 25}); len(incs) != 0 {
			t.Fatalf("fired on balanced load: %+v", incs)
		}
	}
	// All load on shard 0: skew = (100-0)/25 = 4 > 2. TriggerTicks=3.
	var fired []Incident
	for i := 0; i < 4; i++ {
		fired = append(fired, obs([4]int64{100, 0, 0, 0})...)
	}
	count := 0
	for _, inc := range fired {
		if inc.Rule == RuleShardSkew {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("hot-shard storm fired %d skew incidents, want 1", count)
	}
}
