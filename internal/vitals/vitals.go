// Package vitals records how a running store's health evolves over time:
// a background sampler snapshots the engine's cumulative counters into a
// fixed-size lock-free ring at a configurable interval, and consecutive
// samples are differentiated into windowed rates — ops/s, bytes/s per
// tier, windowed cache hit ratios, write amplification, cloud $/hour and
// throughput-per-dollar. Point-in-time Metrics() answers "where is the
// store now"; vitals answers "which way is it moving", which is what
// dashboards (`mashctl top`), the /vitals endpoint, and the cost/perf
// autotuner consume.
//
// The package is engine-agnostic: a Sample is a metrics.Metrics snapshot (a
// leaf type) with its time, and the DB hands NewSampler a closure that
// produces one, so vitals has no dependency on internal/db and the hot
// write/read paths never touch it (a disabled sampler is a nil pointer —
// zero goroutines, zero allocations).
package vitals

import (
	"sync"
	"sync/atomic"
	"time"

	"rocksmash/internal/metrics"
	"rocksmash/internal/readprof"
)

// HoursPerMonth converts a $/GB-month storage price into the $/hour rate
// the windowed cost split reports (365.25/12 days).
const HoursPerMonth = 730.5

// Sample is one point of the time series: a whole Metrics snapshot and the
// time it was taken. Counters only ever grow; Window differentiates
// consecutive samples into rates.
type Sample struct {
	UnixNano        int64 `json:"unix_nano"`
	metrics.Metrics `json:"metrics"`
}

// CostSplit is the windowed cloud bill rate, in dollars per hour.
type CostSplit struct {
	Storage float64 `json:"storage"`
	Request float64 `json:"request"`
	Egress  float64 `json:"egress"`
	Total   float64 `json:"total"`
}

// Window is the derivative of two consecutive samples: every rate is
// (end-start)/dt, ratios are computed over the window's own deltas, and
// gauges (breaker, debt, pending) carry the end sample's value.
type Window struct {
	StartUnixNano int64   `json:"start_unix_nano"`
	EndUnixNano   int64   `json:"end_unix_nano"`
	Seconds       float64 `json:"seconds"`

	WriteOpsPerSec  float64 `json:"write_ops_per_sec"`
	ReadOpsPerSec   float64 `json:"read_ops_per_sec"`
	UserBytesPerSec float64 `json:"user_bytes_per_sec"`
	StallsPerSec    float64 `json:"stalls_per_sec"`

	FlushBytesPerSec      float64 `json:"flush_bytes_per_sec"`
	CompactInBytesPerSec  float64 `json:"compact_in_bytes_per_sec"`
	CompactOutBytesPerSec float64 `json:"compact_out_bytes_per_sec"`
	// WriteAmp is the windowed physical-write amplification: table bytes
	// written by flushes and compactions per user byte committed in the
	// window (0 when no user bytes arrived).
	WriteAmp float64 `json:"write_amp"`
	// ReadAmpBlocksPerGet is the windowed blocks-per-profiled-Get.
	ReadAmpBlocksPerGet float64 `json:"read_amp_blocks_per_get"`
	CloudBlocksPerSec   float64 `json:"cloud_blocks_per_sec"`

	// ViewHitRatio is the windowed fraction of per-level iterator
	// constructions served by a sorted view; ScanBlocksPerKey the windowed
	// blocks fetched per live key yielded by iterators (scan read-amp).
	ViewHitRatio     float64 `json:"view_hit_ratio"`
	ScanBlocksPerKey float64 `json:"scan_blocks_per_key"`

	// Windowed cache hit ratios (NaN-free: 0 when no lookups happened).
	BlockHitRatio  float64 `json:"block_hit_ratio"`
	PCacheHitRatio float64 `json:"pcache_hit_ratio"`

	LocalReadBytesPerSec  float64 `json:"local_read_bytes_per_sec"`
	LocalWriteBytesPerSec float64 `json:"local_write_bytes_per_sec"`
	CloudReadBytesPerSec  float64 `json:"cloud_read_bytes_per_sec"`
	CloudWriteBytesPerSec float64 `json:"cloud_write_bytes_per_sec"`
	CloudGetsPerSec       float64 `json:"cloud_gets_per_sec"`
	CloudPutsPerSec       float64 `json:"cloud_puts_per_sec"`

	// CommitGroupSize is the windowed mean batches per commit group.
	CommitGroupSize float64 `json:"commit_group_size"`

	// Gauges at the window's end.
	Breaker        string  `json:"breaker,omitempty"`
	LocalBreaker   string  `json:"local_breaker,omitempty"`
	CompactionDebt int64   `json:"compaction_debt"`
	SpaceAmp       float64 `json:"space_amp"`
	PendingTables  int     `json:"pending_tables"`
	// MisplacedTables counts local-level tables currently living
	// cloud-side after local-degraded landings (end-gauge).
	MisplacedTables int `json:"misplaced_tables"`
	// CorruptionsPerSec is the windowed rate of corruption detections
	// (scrub plus read path); RepairsPerSec the matching repair rate.
	CorruptionsPerSec float64 `json:"corruptions_per_sec"`
	RepairsPerSec     float64 `json:"repairs_per_sec"`

	// ShardSkew is (max-min)/mean of the per-shard op deltas in the
	// window; 0 for perfect balance or a single shard.
	ShardSkew float64 `json:"shard_skew"`

	// GetP99Nanos carries the end sample's Get-latency p99 gauge;
	// IncidentsPerSec is the windowed detector-incident rate.
	GetP99Nanos     int64   `json:"get_p99_nanos,omitempty"`
	IncidentsPerSec float64 `json:"incidents_per_sec,omitempty"`

	// DollarsPerHour splits the windowed cloud cost rate: storage is the
	// end-capacity monthly price rescaled to an hour; request and egress
	// are the window's observed spend rescaled to an hour.
	DollarsPerHour CostSplit `json:"dollars_per_hour"`
	// OpsPerDollar is throughput-per-dollar: windowed ops/s divided by
	// the windowed $/hour rate, i.e. operations bought per dollar-hour.
	OpsPerDollar float64 `json:"ops_per_dollar"`
}

// ratio returns num/den, or 0 for an empty denominator.
func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

// Derive differentiates two samples into a Window. prev must precede cur;
// a non-positive elapsed time yields a zero-duration window with only the
// end gauges filled in.
func Derive(prev, cur Sample) Window {
	w := Window{
		StartUnixNano:  prev.UnixNano,
		EndUnixNano:    cur.UnixNano,
		Breaker:        cur.BreakerState,
		LocalBreaker:   cur.LocalBreakerState,
		CompactionDebt: cur.CompactionDebt,
		SpaceAmp:       cur.SpaceAmp,
		PendingTables:  cur.PendingTables,

		MisplacedTables: cur.MisplacedTables,
		GetP99Nanos:     cur.GetLat.P99.Nanoseconds(),
	}
	dt := float64(cur.UnixNano-prev.UnixNano) / float64(time.Second)
	if dt <= 0 {
		return w
	}
	w.Seconds = dt
	per := func(a, b int64) float64 { return float64(b-a) / dt }
	// of is a ratio of two deltas: hits over hits plus misses, blocks per key.
	of := func(numPrev, numCur, denPrev, denCur int64) float64 {
		return ratio(float64(numCur-numPrev), float64(denCur-denPrev))
	}

	w.WriteOpsPerSec = per(prev.Writes, cur.Writes)
	w.ReadOpsPerSec = per(prev.Reads, cur.Reads)
	w.UserBytesPerSec = per(prev.BytesWritten, cur.BytesWritten)
	w.StallsPerSec = per(prev.WriteStalls, cur.WriteStalls)
	w.FlushBytesPerSec = per(prev.FlushBytes, cur.FlushBytes)
	w.CompactInBytesPerSec = per(prev.CompactBytesIn, cur.CompactBytesIn)
	w.CompactOutBytesPerSec = per(prev.CompactBytesOut, cur.CompactBytesOut)
	w.WriteAmp = of(prev.FlushBytes+prev.CompactBytesOut, cur.FlushBytes+cur.CompactBytesOut,
		prev.BytesWritten, cur.BytesWritten)
	pr, cr := prev.ReadAmp, cur.ReadAmp
	w.ReadAmpBlocksPerGet = of(pr.BlocksTotal(), cr.BlocksTotal(), pr.ProfiledGets, cr.ProfiledGets)
	w.CloudBlocksPerSec = per(pr.Blocks[readprof.TierCloud], cr.Blocks[readprof.TierCloud])
	w.ViewHitRatio = of(prev.ScanViewHits, cur.ScanViewHits,
		prev.ScanViewHits+prev.ScanViewMisses, cur.ScanViewHits+cur.ScanViewMisses)
	w.ScanBlocksPerKey = of(pr.IterBlocksTotal(), cr.IterBlocksTotal(), prev.IterKeys, cur.IterKeys)

	w.BlockHitRatio = of(prev.BlockCacheHits, cur.BlockCacheHits,
		prev.BlockCacheHits+prev.BlockCacheMisses, cur.BlockCacheHits+cur.BlockCacheMisses)
	w.PCacheHitRatio = of(prev.PCacheHits, cur.PCacheHits,
		prev.PCacheHits+prev.PCacheMisses, cur.PCacheHits+cur.PCacheMisses)

	w.LocalReadBytesPerSec = per(prev.LocalIO.BytesRead, cur.LocalIO.BytesRead)
	w.LocalWriteBytesPerSec = per(prev.LocalIO.BytesWrite, cur.LocalIO.BytesWrite)
	w.CloudReadBytesPerSec = per(prev.CloudIO.BytesRead, cur.CloudIO.BytesRead)
	w.CloudWriteBytesPerSec = per(prev.CloudIO.BytesWrite, cur.CloudIO.BytesWrite)
	w.CloudGetsPerSec = per(prev.CloudIO.GetOps, cur.CloudIO.GetOps)
	w.CloudPutsPerSec = per(prev.CloudIO.PutOps, cur.CloudIO.PutOps)

	w.CorruptionsPerSec = per(prev.CorruptionsDetected, cur.CorruptionsDetected)
	w.RepairsPerSec = per(prev.CorruptionsRepaired, cur.CorruptionsRepaired)
	w.IncidentsPerSec = per(prev.IncidentsTriggered, cur.IncidentsTriggered)

	w.CommitGroupSize = of(prev.CommitGroupBatches, cur.CommitGroupBatches, prev.CommitGroups, cur.CommitGroups)

	if n := len(cur.Shards); n > 1 && len(prev.Shards) == n {
		lo, hi, sum := int64(1<<62), int64(-1), int64(0)
		for i := range cur.Shards {
			d := cur.Shards[i].Ops() - prev.Shards[i].Ops()
			lo, hi, sum = min(lo, d), max(hi, d), sum+d
		}
		if sum > 0 {
			mean := float64(sum) / float64(n)
			w.ShardSkew = float64(hi-lo) / mean
		}
	}

	// $/hour: storage is the capacity gauge rescaled from a month; the
	// request/egress components are the window's incremental spend
	// extrapolated to an hour.
	w.DollarsPerHour = CostSplit{
		Storage: cur.CloudCost.StorageCost / HoursPerMonth,
		Request: (cur.CloudCost.RequestCost - prev.CloudCost.RequestCost) / dt * 3600,
		Egress:  (cur.CloudCost.EgressCost - prev.CloudCost.EgressCost) / dt * 3600,
	}
	w.DollarsPerHour.Total = w.DollarsPerHour.Storage +
		w.DollarsPerHour.Request + w.DollarsPerHour.Egress
	w.OpsPerDollar = ratio(w.WriteOpsPerSec+w.ReadOpsPerSec, w.DollarsPerHour.Total)
	return w
}

// ring is the fixed-size lock-free sample history: a single writer (the
// sampler goroutine) publishes each sample through an atomic pointer slot
// and then advances the head; readers copy out pointers without blocking
// the writer. Samples are immutable once published.
type ring struct {
	slots []atomic.Pointer[Sample]
	head  atomic.Uint64 // total samples ever published
}

func newRing(n int) *ring {
	if n < 2 {
		n = 2
	}
	return &ring{slots: make([]atomic.Pointer[Sample], n)}
}

func (r *ring) push(s *Sample) {
	h := r.head.Load()
	r.slots[h%uint64(len(r.slots))].Store(s)
	r.head.Store(h + 1)
}

// snapshot returns the retained samples, oldest first. Racing pushes may
// tear at most the boundary: a slot observed both before and after an
// overwrite is dropped rather than misordered.
func (r *ring) snapshot() []Sample { return r.newest(len(r.slots)) }

// newest is snapshot limited to the max newest samples: a sample is a whole
// Metrics, and a /metrics scrape that wants one window should not copy the
// ring.
func (r *ring) newest(max int) []Sample {
	h := r.head.Load()
	n := uint64(len(r.slots))
	lo := uint64(0)
	if h > uint64(max) {
		lo = h - uint64(max)
	}
	out := make([]Sample, 0, h-lo)
	var lastNano int64
	for i := lo; i < h; i++ {
		p := r.slots[i%n].Load()
		if p == nil || p.UnixNano < lastNano {
			// The writer lapped us into this slot; skip the torn entry.
			continue
		}
		lastNano = p.UnixNano
		out = append(out, *p)
	}
	return out
}

// DefaultHistory is the ring capacity when the caller does not choose one:
// at a 1s interval it retains 12 minutes of history.
const DefaultHistory = 720

// Sampler drives the ring: one background goroutine calls snap every
// interval and publishes the result. Stop (idempotent) halts the goroutine
// and waits for it to exit, so Close-time teardown leaks nothing.
type Sampler struct {
	interval time.Duration
	snap     func() Sample
	ring     *ring
	quit     chan struct{}
	done     chan struct{}
	stop     sync.Once
}

// NewSampler starts sampling snap every interval into a ring of history
// samples (DefaultHistory when history <= 0). One sample is taken
// synchronously so the ring never comes up empty on a just-opened store.
func NewSampler(interval time.Duration, history int, snap func() Sample) *Sampler {
	if history <= 0 {
		history = DefaultHistory
	}
	s := &Sampler{
		interval: interval,
		snap:     snap,
		ring:     newRing(history),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	s.observe()
	go s.loop()
	return s
}

func (s *Sampler) loop() {
	defer close(s.done)
	t := time.NewTicker(s.interval)
	defer t.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-t.C:
			s.observe()
		}
	}
}

// observe takes one sample now and publishes it.
func (s *Sampler) observe() {
	smp := s.snap()
	if smp.UnixNano == 0 {
		smp.UnixNano = time.Now().UnixNano()
	}
	s.ring.push(&smp)
}

// Stop halts the sampling goroutine and waits for it to exit. Safe to call
// more than once; the ring remains readable after Stop.
func (s *Sampler) Stop() {
	s.stop.Do(func() { close(s.quit) })
	<-s.done
}

// Samples returns the retained history, oldest first.
func (s *Sampler) Samples() []Sample { return s.ring.snapshot() }

// WindowsOf differentiates an already-captured sample series.
func WindowsOf(samples []Sample) []Window {
	if len(samples) < 2 {
		return nil
	}
	out := make([]Window, 0, len(samples)-1)
	for i := 1; i < len(samples); i++ {
		out = append(out, Derive(samples[i-1], samples[i]))
	}
	return out
}

// LatestWindow derives the rate window over the two newest samples.
func (s *Sampler) LatestWindow() (Window, bool) {
	all := s.ring.newest(2)
	if len(all) < 2 {
		return Window{}, false
	}
	return Derive(all[len(all)-2], all[len(all)-1]), true
}

// Report is the /vitals endpoint (and vitals.json artifact) payload: the
// full retained ring plus the latest derived window.
type Report struct {
	Enabled         bool     `json:"enabled"`
	IntervalSeconds float64  `json:"interval_seconds"`
	Latest          *Sample  `json:"latest,omitempty"`
	Window          *Window  `json:"window,omitempty"`
	Samples         []Sample `json:"samples,omitempty"`
	Windows         []Window `json:"windows,omitempty"`
}

// Report assembles the endpoint payload from the current ring contents.
func (s *Sampler) Report() Report {
	r := Report{Enabled: true, IntervalSeconds: s.interval.Seconds()}
	r.Samples = s.ring.snapshot()
	if len(r.Samples) > 0 {
		last := r.Samples[len(r.Samples)-1]
		r.Latest = &last
	}
	r.Windows = WindowsOf(r.Samples)
	if len(r.Windows) > 0 {
		w := r.Windows[len(r.Windows)-1]
		r.Window = &w
	}
	return r
}
