package db

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rocksmash/internal/event"
	"rocksmash/internal/flight"
	"rocksmash/internal/storage"
	"rocksmash/internal/vitals"
)

// Flight recorder wiring: the engine-agnostic pieces live in
// internal/flight (event ring, detector rules, bundle format, offline
// doctor); this file connects them to the DB. The recorder taps the
// listener chain (so the ring sees exactly the event stream a trace
// would), the detector rides the vitals sampler's tick, and bundle dumps
// run on the sampler goroutine — so a firing rule serializes its own
// postmortem and never blocks a foreground operation.

// flightRecentCap bounds the in-memory incident log behind DB.Incidents.
const flightRecentCap = 64

type flightState struct {
	rec *flight.Recorder
	det *flight.Detector
	cfg flight.BundleConfig

	// Detector fires, re-triggers absorbed by per-rule cooldowns, and
	// postmortem bundle outcomes.
	triggered    atomic.Int64
	suppressed   atomic.Int64
	bundles      atomic.Int64
	bundleErrors atomic.Int64

	// mu guards recent (the capped incident log) and lastBundle (the
	// rate-limit clock).
	mu         sync.Mutex
	recent     []flight.Incident
	lastBundle time.Time
}

// The recorder's fixed sizing: event-ring capacity (entries) and how many
// bundle directories are retained (oldest pruned). The detector runs
// flight's default rules and thresholds.
const (
	flightHistory    = 1024
	flightMaxBundles = 8
)

// initFlight builds the recorder/detector pair. The bundle directory is
// derived from the local backend when FlightDir is unset.
func (d *DB) initFlight() {
	o := d.opts
	dir := o.FlightDir
	if dir == "" {
		if l, ok := storage.BaseBackend(d.local).(*storage.Local); ok {
			dir = filepath.Join(l.Root(), "..", "flight")
		}
	}
	minInterval := o.FlightBundleInterval
	if minInterval <= 0 {
		minInterval = 30 * time.Second
	}
	d.flight = &flightState{
		rec: flight.NewRecorder(flightHistory),
		det: flight.NewDetector(flight.DefaultRules(flight.Thresholds{})),
		cfg: flight.BundleConfig{
			Dir:           dir,
			MaxBundles:    flightMaxBundles,
			MinInterval:   minInterval,
			MaxEventBytes: 1 << 20,
		},
	}
}

// flightObserve feeds one vitals sample to the detector and handles any
// incidents it fires: counters, bundle dump, the incident log, and the
// IncidentTriggered event. Runs on the vitals sampler goroutine.
func (d *DB) flightObserve(s vitals.Sample) {
	fs := d.flight
	if fs == nil {
		return
	}
	incs := fs.det.Observe(s)
	fs.suppressed.Store(fs.det.Suppressed())
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

// maybeWriteBundle dumps a postmortem for inc unless rate-limited or
// bundling is unconfigured. On success inc.Bundle is filled with the
// committed directory. Note the DumpStats call resets the interval-delta
// baseline a concurrent stats consumer sees — an accepted cost of a
// self-contained postmortem.
func (fs *flightState) maybeWriteBundle(d *DB, inc *flight.Incident) {
	if fs.cfg.Dir == "" {
		return
	}
	now := time.Unix(0, inc.UnixNano)
	fs.mu.Lock()
	if !fs.lastBundle.IsZero() && now.Sub(fs.lastBundle) < fs.cfg.MinInterval {
		fs.mu.Unlock()
		return
	}
	fs.lastBundle = now
	fs.mu.Unlock()

	m := d.Metrics()
	metricsJSON, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		metricsJSON = []byte("{}")
	}
	in := flight.BundleInputs{
		Incident:     *inc,
		Active:       fs.det.Active(),
		Counts:       fs.det.Counts(),
		Events:       fs.rec.Snapshot(),
		MetricsJSON:  metricsJSON,
		StatsText:    d.DumpStats(),
		ManifestText: levelSummary(m),
	}
	// Nil during the sampler's synchronous first sample (d.vit is assigned
	// only after NewSampler returns); the events ring still captures that
	// window.
	if vit := d.vit; vit != nil {
		in.Vitals = vit.Samples()
	}
	path, werr := flight.WriteBundle(fs.cfg, in)
	if werr != nil {
		fs.bundleErrors.Add(1)
		return
	}
	inc.Bundle = path
	fs.bundles.Add(1)
}

// levelSummary renders the manifest shape for the bundle's manifest.txt.
func levelSummary(m Metrics) string {
	var b strings.Builder
	fmt.Fprintf(&b, "policy=%s lastSeq=%d local=%s cloud=%s debt=%s spaceAmp=%.2f\n",
		m.Policy, m.LastSeq, humanBytes(m.LocalBytes), humanBytes(m.CloudBytes),
		humanBytes(m.CompactionDebt), m.SpaceAmp)
	for l := range m.LevelFiles {
		if m.LevelFiles[l] == 0 {
			continue
		}
		fmt.Fprintf(&b, "L%d: %d files, %s\n", l, m.LevelFiles[l], humanBytes(int64(m.LevelBytes[l])))
	}
	if m.PendingTables > 0 {
		fmt.Fprintf(&b, "pending-cloud: %d tables, %s\n", m.PendingTables, humanBytes(m.PendingBytes))
	}
	if m.MisplacedTables > 0 {
		fmt.Fprintf(&b, "misplaced: %d tables\n", m.MisplacedTables)
	}
	return b.String()
}

// fillFlightMetrics copies the flight counters and active-rule set into a
// Metrics snapshot; a no-op (all zero) when the recorder is off.
func (d *DB) fillFlightMetrics(m *Metrics) {
	fs := d.flight
	if fs == nil {
		return
	}
	m.IncidentsTriggered = fs.triggered.Load()
	m.IncidentsSuppressed = fs.suppressed.Load()
	m.BundlesWritten = fs.bundles.Load()
	m.BundleErrors = fs.bundleErrors.Load()
	m.ActiveIncidents = fs.det.Active()
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
	// ActiveRules lists the detector rules currently active (empty when the
	// flight recorder is off).
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

// Health computes the store's health from the metrics snapshot and (when
// the flight recorder is on) the detector's active-rule set. It works with
// the recorder off — breaker and backlog degradation is visible either way.
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
		degraded(fmt.Sprintf("%d tables pending cloud upload (%s)", m.PendingTables, humanBytes(m.PendingBytes)))
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
// at flightRecentCap; nil when the flight recorder is off).
func (d *DB) Incidents() []flight.Incident {
	fs := d.flight
	if fs == nil {
		return nil
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return append([]flight.Incident(nil), fs.recent...)
}

// FlightBundles lists the committed postmortem bundles on disk, oldest
// first (nil when the recorder is off or bundling is unconfigured).
func (d *DB) FlightBundles() ([]flight.BundleMeta, error) {
	fs := d.flight
	if fs == nil || fs.cfg.Dir == "" {
		return nil, nil
	}
	return flight.ListBundles(fs.cfg.Dir)
}

// FlightEnabled reports whether this store runs a flight recorder.
func (d *DB) FlightEnabled() bool { return d.flight != nil }

// FlightBundleDir returns where incident bundles are written ("" when
// disabled).
func (d *DB) FlightBundleDir() string {
	if d.flight == nil {
		return ""
	}
	return d.flight.cfg.Dir
}
