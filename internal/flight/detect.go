package flight

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"rocksmash/internal/vitals"
)

// Detector rule identifiers.
const (
	RuleLatencySpike   = "latency-spike"
	RuleWriteStall     = "write-stall"
	RuleCloudOutage    = "cloud-outage"
	RuleLocalDegraded  = "local-degraded"
	RuleCompactionDebt = "compaction-debt"
	RuleCacheCollapse  = "cache-collapse"
	RuleShardSkew      = "shard-skew"
	RuleCostSpike      = "cost-spike"
)

// Severities.
const (
	SevWarn     = "warn"
	SevCritical = "critical"
)

// Baseline is an exponentially weighted moving average of a vitals signal,
// used as the "normal" a spike rule compares against. It is Warm once it
// has absorbed enough ticks to be trustworthy, and the detector freezes it
// while its rule is active so an anomaly can't drag its own baseline up.
type Baseline struct {
	val float64
	n   int
}

const baselineAlpha = 0.1

func (b *Baseline) update(x float64) {
	if b.n == 0 {
		b.val = x
	} else {
		b.val += baselineAlpha * (x - b.val)
	}
	b.n++
}

// Value returns the current moving average.
func (b *Baseline) Value() float64 { return b.val }

// Warm reports whether at least minTicks observations have been absorbed.
func (b *Baseline) Warm(minTicks int) bool { return b.n >= minTicks }

// Obs is one detector evaluation input: the newest vitals sample, the
// window differentiated from the previous tick (HasWindow false on the
// very first tick), and the rolling baselines.
type Obs struct {
	Sample    vitals.Sample
	Prev      vitals.Sample
	Window    vitals.Window
	HasWindow bool

	// Rolling baselines, warmed and frozen by the detector.
	P99       *Baseline // Get p99 latency, nanoseconds
	BlockHit  *Baseline // windowed block-cache hit ratio
	PCacheHit *Baseline // windowed pcache hit ratio
	Cost      *Baseline // windowed $/hour total
}

// Reading is what a rule condition reports when it evaluates true: the
// observed value, the threshold it crossed, and a human-readable reason.
type Reading struct {
	Value     float64
	Threshold float64
	Reason    string
}

// Rule is one detector: Check evaluates the condition on a tick; the
// detector wraps it in hysteresis (TriggerTicks consecutive true ticks to
// fire, ClearTicks consecutive false ticks to re-arm) and a per-rule
// Cooldown (minimum spacing between fires; a re-trigger inside the
// cooldown is counted as suppressed, not fired).
type Rule struct {
	ID           string
	Severity     string
	TriggerTicks int
	ClearTicks   int
	Cooldown     time.Duration
	Check        func(ob *Obs) (bool, Reading)
}

// Thresholds parameterize DefaultRules. The zero value is filled with the
// documented defaults (DESIGN.md §5j).
type Thresholds struct {
	LatencyFactor   float64       // p99 > factor×baseline fires (default 4)
	LatencyFloor    time.Duration // ...but never below this absolute p99 (default 2ms)
	BaselineWarmup  int           // ticks before spike baselines count (default 8)
	DebtMinBytes    int64         // debt growth only matters above this (default 64MB)
	SkewThreshold   float64       // (max-min)/mean shard skew (default 2.0)
	SkewMinOps      int64         // window ops below this can't fire skew (default 20)
	CacheFactor     float64       // hit ratio < factor×baseline fires (default 0.5)
	CacheMinLookups int64         // window lookups below this can't fire (default 64)
	CacheMinBase    float64       // baselines below this never "collapse" (default 0.4)
	CostFactor      float64       // $/hr > factor×baseline fires (default 3)
	CostFloorPerHr  float64       // ...but never below this absolute $/hr (default 1e-4)
}

func (t Thresholds) withDefaults() Thresholds {
	def := func(v *float64, d float64) {
		if *v == 0 {
			*v = d
		}
	}
	def(&t.LatencyFactor, 4)
	def(&t.SkewThreshold, 2.0)
	def(&t.CacheFactor, 0.5)
	def(&t.CacheMinBase, 0.4)
	def(&t.CostFactor, 3)
	def(&t.CostFloorPerHr, 1e-4)
	if t.LatencyFloor == 0 {
		t.LatencyFloor = 2 * time.Millisecond
	}
	if t.BaselineWarmup == 0 {
		t.BaselineWarmup = 8
	}
	if t.DebtMinBytes == 0 {
		t.DebtMinBytes = 64 << 20
	}
	if t.SkewMinOps == 0 {
		t.SkewMinOps = 20
	}
	if t.CacheMinLookups == 0 {
		t.CacheMinLookups = 64
	}
	return t
}

// breakerOpen reports a breaker gauge in any non-closed state. The state
// oscillates open↔half-open for the whole of an outage episode and only
// reads "closed" after a probe genuinely succeeds, so a breaker rule stays
// active across flapping and fires exactly once per episode.
func breakerOpen(state string) bool { return state != "" && state != "closed" }

// DefaultRules builds the standard detector set with the given thresholds
// (zero value = defaults).
func DefaultRules(t Thresholds) []Rule {
	t = t.withDefaults()
	return []Rule{
		{
			ID: RuleCloudOutage, Severity: SevCritical,
			TriggerTicks: 1, ClearTicks: 2, Cooldown: time.Second,
			Check: func(ob *Obs) (bool, Reading) {
				if !breakerOpen(ob.Sample.BreakerState) {
					return false, Reading{}
				}
				return true, Reading{Value: 1, Threshold: 0.5,
					Reason: fmt.Sprintf("cloud breaker %s: cloud tier unreachable, flushes landing degraded", ob.Sample.BreakerState)}
			},
		},
		{
			ID: RuleLocalDegraded, Severity: SevCritical,
			TriggerTicks: 1, ClearTicks: 2, Cooldown: time.Second,
			Check: func(ob *Obs) (bool, Reading) {
				if !breakerOpen(ob.Sample.LocalBreakerState) {
					return false, Reading{}
				}
				return true, Reading{Value: 1, Threshold: 0.5,
					Reason: fmt.Sprintf("local breaker %s: local media failing (ENOSPC/EIO), tables landing cloud-direct", ob.Sample.LocalBreakerState)}
			},
		},
		{
			ID: RuleWriteStall, Severity: SevWarn,
			TriggerTicks: 1, ClearTicks: 3, Cooldown: 30 * time.Second,
			// Keyed on L0 stalls alone. A memtable stall is a writer waiting
			// for the one flush ahead of it, which any store ingesting at full
			// speed does; a writer held at the L0 file limit means compaction
			// has fallen behind.
			Check: func(ob *Obs) (bool, Reading) {
				stalls := ob.Sample.WriteStallsL0 - ob.Prev.WriteStallsL0
				if !ob.HasWindow || stalls <= 0 {
					return false, Reading{}
				}
				rate := float64(stalls) / ob.Window.Seconds
				return true, Reading{Value: rate, Threshold: 0,
					Reason: fmt.Sprintf("writes stalling on L0 at %.1f/s: compaction cannot keep up", rate)}
			},
		},
		{
			ID: RuleLatencySpike, Severity: SevWarn,
			TriggerTicks: 2, ClearTicks: 4, Cooldown: 30 * time.Second,
			Check: func(ob *Obs) (bool, Reading) {
				p99 := float64(ob.Sample.GetLat.P99)
				if !ob.P99.Warm(t.BaselineWarmup) || p99 <= 0 {
					return false, Reading{}
				}
				thr := ob.P99.Value() * t.LatencyFactor
				if floor := float64(t.LatencyFloor.Nanoseconds()); thr < floor {
					thr = floor
				}
				if p99 <= thr {
					return false, Reading{}
				}
				return true, Reading{Value: p99, Threshold: thr,
					Reason: fmt.Sprintf("get p99 %s vs baseline %s (%.0fx spike threshold)",
						time.Duration(int64(p99)), time.Duration(int64(ob.P99.Value())), t.LatencyFactor)}
			},
		},
		{
			ID: RuleCompactionDebt, Severity: SevWarn,
			TriggerTicks: 5, ClearTicks: 5, Cooldown: 2 * time.Minute,
			Check: func(ob *Obs) (bool, Reading) {
				debt := ob.Sample.CompactionDebt
				if !ob.HasWindow || debt < t.DebtMinBytes || debt <= ob.Prev.CompactionDebt {
					return false, Reading{}
				}
				return true, Reading{Value: float64(debt), Threshold: float64(t.DebtMinBytes),
					Reason: fmt.Sprintf("compaction debt %d MB and growing: compactions losing to ingest", debt>>20)}
			},
		},
		{
			ID: RuleCacheCollapse, Severity: SevWarn,
			TriggerTicks: 3, ClearTicks: 5, Cooldown: time.Minute,
			Check: func(ob *Obs) (bool, Reading) {
				if !ob.HasWindow || !ob.BlockHit.Warm(t.BaselineWarmup) {
					return false, Reading{}
				}
				lookups := ob.Sample.BlockCacheHits + ob.Sample.BlockCacheMisses -
					ob.Prev.BlockCacheHits - ob.Prev.BlockCacheMisses
				base := ob.BlockHit.Value()
				if lookups < t.CacheMinLookups || base < t.CacheMinBase {
					return false, Reading{}
				}
				thr := base * t.CacheFactor
				if ob.Window.BlockHitRatio >= thr {
					return false, Reading{}
				}
				return true, Reading{Value: ob.Window.BlockHitRatio, Threshold: thr,
					Reason: fmt.Sprintf("block-cache hit ratio collapsed to %.2f (baseline %.2f): working set shifted or cache squeezed",
						ob.Window.BlockHitRatio, base)}
			},
		},
		{
			ID: RuleShardSkew, Severity: SevWarn,
			TriggerTicks: 3, ClearTicks: 3, Cooldown: 10 * time.Second,
			Check: func(ob *Obs) (bool, Reading) {
				if !ob.HasWindow || ob.Window.ShardSkew <= t.SkewThreshold {
					return false, Reading{}
				}
				var ops int64
				for i, sh := range ob.Sample.Shards {
					ops += sh.Ops()
					if i < len(ob.Prev.Shards) {
						ops -= ob.Prev.Shards[i].Ops()
					}
				}
				if ops < t.SkewMinOps {
					return false, Reading{}
				}
				return true, Reading{Value: ob.Window.ShardSkew, Threshold: t.SkewThreshold,
					Reason: fmt.Sprintf("shard skew %.2f over %d ops: hot keyspace concentrating on one shard", ob.Window.ShardSkew, ops)}
			},
		},
		{
			ID: RuleCostSpike, Severity: SevWarn,
			TriggerTicks: 3, ClearTicks: 5, Cooldown: 2 * time.Minute,
			Check: func(ob *Obs) (bool, Reading) {
				if !ob.HasWindow || !ob.Cost.Warm(t.BaselineWarmup) {
					return false, Reading{}
				}
				rate := ob.Window.DollarsPerHour.Total
				thr := ob.Cost.Value() * t.CostFactor
				if thr < t.CostFloorPerHr {
					thr = t.CostFloorPerHr
				}
				if rate <= thr {
					return false, Reading{}
				}
				return true, Reading{Value: rate, Threshold: thr,
					Reason: fmt.Sprintf("cloud spend $%.4f/hr vs baseline $%.4f/hr: request or egress traffic surging",
						rate, ob.Cost.Value())}
			},
		},
	}
}

// Incident is one fired detector rule.
type Incident struct {
	Rule      string  `json:"rule"`
	Severity  string  `json:"severity"`
	Reason    string  `json:"reason"`
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	UnixNano  int64   `json:"unix_nano"`
	// Bundle is the postmortem directory, filled in by the bundle writer
	// ("" when bundling was rate-limited or disabled).
	Bundle string `json:"bundle,omitempty"`
}

// Time returns the incident's trigger time.
func (i Incident) Time() time.Time { return time.Unix(0, i.UnixNano) }

type ruleState struct {
	trueTicks  int
	falseTicks int
	active     bool
	lastFire   time.Time
}

// Detector runs the rule set over the vitals tick stream. Observe is
// called from a single goroutine (the vitals sampler); the read accessors
// (Active, Counts, Suppressed) are safe from any goroutine.
type Detector struct {
	mu    sync.Mutex
	rules []Rule
	state []ruleState
	prev  vitals.Sample
	ticks int64

	p99Base, blockBase, pcacheBase, costBase Baseline

	fired      map[string]int64
	suppressed int64
}

// NewDetector builds a detector over the given rules.
func NewDetector(rules []Rule) *Detector {
	return &Detector{
		rules: rules,
		state: make([]ruleState, len(rules)),
		fired: make(map[string]int64),
	}
}

// Observe evaluates every rule against the new sample and returns the
// incidents fired on this tick (usually none).
func (d *Detector) Observe(s vitals.Sample) []Incident {
	d.mu.Lock()
	defer d.mu.Unlock()

	now := time.Unix(0, s.UnixNano)
	ob := &Obs{
		Sample:    s,
		P99:       &d.p99Base,
		BlockHit:  &d.blockBase,
		PCacheHit: &d.pcacheBase,
		Cost:      &d.costBase,
	}
	if d.ticks > 0 {
		ob.Prev = d.prev
		ob.Window = vitals.Derive(d.prev, s)
		ob.HasWindow = ob.Window.Seconds > 0
	}

	var out []Incident
	for i := range d.rules {
		r := &d.rules[i]
		st := &d.state[i]
		firing, reading := r.Check(ob)
		if firing {
			st.trueTicks++
			st.falseTicks = 0
			if !st.active && st.trueTicks >= r.TriggerTicks {
				st.active = true
				if !st.lastFire.IsZero() && now.Sub(st.lastFire) < r.Cooldown {
					// Within the cooldown the episode re-opens silently:
					// hysteresis without spam.
					d.suppressed++
				} else {
					st.lastFire = now
					d.fired[r.ID]++
					out = append(out, Incident{
						Rule:      r.ID,
						Severity:  r.Severity,
						Reason:    reading.Reason,
						Value:     reading.Value,
						Threshold: reading.Threshold,
						UnixNano:  s.UnixNano,
					})
				}
			}
		} else {
			st.falseTicks++
			st.trueTicks = 0
			if st.active && st.falseTicks >= r.ClearTicks {
				st.active = false
			}
		}
	}

	d.updateBaselines(ob)
	d.prev = s
	d.ticks++
	return out
}

// updateBaselines absorbs the tick into the rolling baselines, skipping
// any baseline whose rule is hot — active, or with its condition firing
// while hysteresis counts up toward the trigger — so an anomaly never
// normalizes itself, not even during its own pre-fire ticks. Called with
// mu held, after the rule loop has updated trueTicks for this tick.
func (d *Detector) updateBaselines(ob *Obs) {
	hot := make(map[string]bool, 2)
	for i := range d.rules {
		if d.state[i].active || d.state[i].trueTicks > 0 {
			hot[d.rules[i].ID] = true
		}
	}
	if !hot[RuleLatencySpike] && ob.Sample.GetLat.P99 > 0 {
		d.p99Base.update(float64(ob.Sample.GetLat.P99))
	}
	if ob.HasWindow && !hot[RuleCacheCollapse] {
		if ob.Sample.BlockCacheHits+ob.Sample.BlockCacheMisses > ob.Prev.BlockCacheHits+ob.Prev.BlockCacheMisses {
			d.blockBase.update(ob.Window.BlockHitRatio)
		}
		if ob.Sample.PCacheHits+ob.Sample.PCacheMisses > ob.Prev.PCacheHits+ob.Prev.PCacheMisses {
			d.pcacheBase.update(ob.Window.PCacheHitRatio)
		}
	}
	if ob.HasWindow && !hot[RuleCostSpike] {
		d.costBase.update(ob.Window.DollarsPerHour.Total)
	}
}

// Active returns the IDs of currently active (fired, not yet cleared)
// rules, sorted.
func (d *Detector) Active() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []string
	for i := range d.rules {
		if d.state[i].active {
			out = append(out, d.rules[i].ID)
		}
	}
	sort.Strings(out)
	return out
}

// Counts returns fires per rule ID.
func (d *Detector) Counts() map[string]int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[string]int64, len(d.fired))
	for k, v := range d.fired {
		out[k] = v
	}
	return out
}

// Suppressed returns how many re-triggers the per-rule cooldowns absorbed.
func (d *Detector) Suppressed() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.suppressed
}
