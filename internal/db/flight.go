package db

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rocksmash/internal/event"
	"rocksmash/internal/flight"
	"rocksmash/internal/metrics"
	"rocksmash/internal/vitals"
)

// Flight recorder wiring: the engine-agnostic pieces live in
// internal/flight (event ring, detector rules, bundle format, offline
// doctor); this file connects them to the DB. The detector rides the vitals
// sampler's tick in every store. With Options.FlightDir set, the event ring
// also taps the listener chain (so the ring sees exactly the event stream a
// trace would) and bundle dumps run on the sampler goroutine — so a firing
// rule serializes its own postmortem and never blocks a foreground
// operation.

// The recorder's fixed sizing: the in-memory incident log behind
// DB.Incidents, the event-ring capacity (entries), how many bundle
// directories are retained (oldest pruned), and the least time between two
// bundles of one rule. The detector runs flight's default rules and
// thresholds.
const (
	flightRecentCap  = 64
	flightHistory    = 1024
	flightMaxBundles = 8
	flightBundleGap  = 30 * time.Second
)

type flightState struct {
	det *flight.Detector
	// ring is the event ring; nil, like cfg.Dir, without a FlightDir.
	ring *flight.Ring
	cfg  flight.BundleConfig

	// Detector fires and postmortem bundle outcomes (the detector counts
	// the re-triggers its per-rule cooldowns absorb).
	triggered    atomic.Int64
	bundles      atomic.Int64
	bundleErrors atomic.Int64

	// mu guards recent (the capped incident log) and lastBundle (each
	// rule's rate-limit clock).
	mu         sync.Mutex
	recent     []flight.Incident
	lastBundle map[string]time.Time
}

// initFlight builds the detector, and the event ring when bundles have a
// directory to go to.
func (d *DB) initFlight() {
	fs := &d.flight
	fs.det = flight.NewDetector(flight.DefaultRules(flight.Thresholds{}))
	if dir := d.opts.FlightDir; dir != "" {
		fs.ring = flight.NewRing(flightHistory)
		fs.cfg = flight.BundleConfig{Dir: dir, MaxBundles: flightMaxBundles, MaxEventBytes: 1 << 20}
		fs.lastBundle = map[string]time.Time{}
	}
}

// flightObserve feeds one vitals sample to the detector and handles any
// incidents it fires: counters, bundle dump, the incident log, and the
// IncidentTriggered event. Runs on the vitals sampler goroutine.
func (d *DB) flightObserve(s vitals.Sample) {
	fs := &d.flight
	incs := fs.det.Observe(s)
	for i := range incs {
		inc := &incs[i]
		fs.triggered.Add(1)
		fs.maybeWriteBundle(d, inc)
		fs.mu.Lock()
		fs.recent = append(fs.recent, *inc)
		if len(fs.recent) > flightRecentCap {
			fs.recent = fs.recent[len(fs.recent)-flightRecentCap:]
		}
		fs.mu.Unlock()
		d.evIncidentTriggered(*inc)
	}
}

// maybeWriteBundle dumps a postmortem for inc unless there is no FlightDir
// or inc's rule wrote one less than flightBundleGap ago: one rule's storm
// cannot starve another rule's bundle. On success inc.Bundle is filled with
// the committed directory. The stats report is rendered against the
// Open-time baseline, so a bundle never moves the interval an operator's
// DumpStats calls measure.
func (fs *flightState) maybeWriteBundle(d *DB, inc *flight.Incident) {
	if fs.ring == nil {
		return
	}
	now := time.Unix(0, inc.UnixNano)
	fs.mu.Lock()
	last, seen := fs.lastBundle[inc.Rule]
	if seen && now.Sub(last) < flightBundleGap {
		fs.mu.Unlock()
		return
	}
	fs.lastBundle[inc.Rule] = now
	fs.mu.Unlock()

	m := d.Metrics()
	metricsJSON, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		metricsJSON = []byte("{}")
	}
	path, werr := flight.WriteBundle(fs.cfg, flight.BundleInputs{
		Incident:     *inc,
		Active:       fs.det.Active(),
		Counts:       fs.det.Counts(),
		Events:       fs.ring.Snapshot(),
		Vitals:       d.vit.Samples(),
		MetricsJSON:  metricsJSON,
		StatsText:    d.renderStats(m, Metrics{}, d.openedAt, time.Now()),
		ManifestText: d.levelShape(&m, &Metrics{}),
	})
	if werr != nil {
		fs.bundleErrors.Add(1)
		return
	}
	inc.Bundle = path
	fs.bundles.Add(1)
}

func (d *DB) evIncidentTriggered(inc flight.Incident) {
	if l := d.listener; l != nil {
		l.OnIncidentTriggered(event.IncidentTriggered{
			Rule:      inc.Rule,
			Severity:  inc.Severity,
			Reason:    inc.Reason,
			Value:     inc.Value,
			Threshold: inc.Threshold,
			Bundle:    inc.Bundle,
		})
	}
}

// Health status values.
const (
	HealthHealthy   = "healthy"
	HealthDegraded  = "degraded"
	HealthUnhealthy = "unhealthy"
)

// Health is the store's coarse liveness summary: healthy (serving
// normally), degraded (serving, but a tier is impaired or debt is
// accumulating), or unhealthy (data-path failure).
type Health struct {
	Status  string   `json:"status"`
	Reasons []string `json:"reasons,omitempty"`
	// ActiveRules lists the detector rules currently active.
	ActiveRules        []string `json:"active_rules,omitempty"`
	IncidentsTriggered int64    `json:"incidents_triggered"`
	BundlesWritten     int64    `json:"bundles_written"`
}

// backgroundErr returns the first engine's wedging background error, if
// any.
func (d *DB) backgroundErr() error {
	for _, e := range d.engines {
		if err := e.backgroundErr(); err != nil {
			return err
		}
	}
	return nil
}

// Health computes the store's health from the metrics snapshot and the
// detector's active-rule set.
func (d *DB) Health() Health {
	m := d.Metrics()
	h := Health{
		Status:             HealthHealthy,
		IncidentsTriggered: m.IncidentsTriggered,
		BundlesWritten:     m.BundlesWritten,
		ActiveRules:        m.ActiveIncidents,
	}
	degraded := func(reason string) {
		if h.Status == HealthHealthy {
			h.Status = HealthDegraded
		}
		h.Reasons = append(h.Reasons, reason)
	}
	unhealthy := func(reason string) {
		h.Status = HealthUnhealthy
		h.Reasons = append(h.Reasons, reason)
	}

	cloudOpen := m.BreakerState != "" && m.BreakerState != "closed"
	localOpen := m.LocalBreakerState != "" && m.LocalBreakerState != "closed"
	if err := d.backgroundErr(); err != nil {
		unhealthy("background error: " + err.Error())
	}
	if cloudOpen && localOpen {
		unhealthy("both storage tiers unavailable (cloud and local breakers open)")
	} else {
		if cloudOpen {
			degraded("cloud breaker " + m.BreakerState + ": flushes landing degraded")
		}
		if localOpen {
			degraded("local breaker " + m.LocalBreakerState + ": tables landing cloud-direct")
		}
	}
	if m.PendingTables > 0 {
		degraded(fmt.Sprintf("%d tables pending cloud upload (%s)", m.PendingTables, metrics.HumanBytes(m.PendingBytes)))
	}
	if m.MisplacedTables > 0 {
		degraded(fmt.Sprintf("%d misplaced tables awaiting drain-back", m.MisplacedTables))
	}
	if m.QuarantinedTables > 0 {
		degraded(fmt.Sprintf("%d quarantined tables (unrepairable corruption)", m.QuarantinedTables))
	}
	for _, rule := range m.ActiveIncidents {
		switch rule {
		case flight.RuleCloudOutage, flight.RuleLocalDegraded:
			// Already surfaced via the breaker gauges above.
		default:
			degraded("active incident: " + rule)
		}
	}
	return h
}

// Incidents returns the most recent fired incidents, oldest first (capped
// at flightRecentCap).
func (d *DB) Incidents() []flight.Incident {
	fs := &d.flight
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return append([]flight.Incident(nil), fs.recent...)
}

// FlightBundles lists the committed postmortem bundles on disk, oldest
// first (nil without a FlightDir).
func (d *DB) FlightBundles() ([]flight.BundleMeta, error) {
	if d.flight.cfg.Dir == "" {
		return nil, nil
	}
	return flight.ListBundles(d.flight.cfg.Dir)
}

// FlightBundleDir returns where incident bundles are written ("" without a
// FlightDir).
func (d *DB) FlightBundleDir() string { return d.flight.cfg.Dir }
