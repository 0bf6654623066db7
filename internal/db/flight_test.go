package db

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rocksmash/internal/flight"
	"rocksmash/internal/storage"
)

// TestFlightOffPath verifies the FlightRecorder-off contract: no flight
// state exists, the health surface still works off the plain metrics, and
// the Put path allocates exactly what a store without the feature does.
func TestFlightOffPath(t *testing.T) {
	d, _ := openTest(t, PolicyLocalOnly)
	defer d.Close()

	if d.flight != nil {
		t.Fatal("flight state allocated with FlightRecorder off")
	}
	if incs := d.Incidents(); incs != nil {
		t.Fatalf("Incidents() = %v with recorder off, want nil", incs)
	}
	if bundles, err := d.FlightBundles(); err != nil || bundles != nil {
		t.Fatalf("FlightBundles() = %v, %v with recorder off, want nil, nil", bundles, err)
	}
	h := d.Health()
	if h.Status != HealthHealthy {
		t.Fatalf("fresh store Health = %+v, want healthy", h)
	}
	m := d.Metrics()
	if m.IncidentsTriggered != 0 || m.BundlesWritten != 0 || len(m.ActiveIncidents) != 0 {
		t.Fatalf("flight metrics nonzero with recorder off: %+v", m)
	}
	if !strings.Contains(d.DumpStats(), "DB Stats") || strings.Contains(d.DumpStats(), "Flight Recorder") {
		t.Fatal("DumpStats printed a Flight Recorder section with the recorder off")
	}
}

// putAllocs is the allocations per Put (key formatting included): the count
// measured before DB became a facade over engines, less the second copy of
// the internal key that memtable.Add no longer makes.
const putAllocs = 10.0

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// TestFlightOffPathAllocParity pins the off path to the no-feature
// baseline: a store opened with FlightRecorder false must allocate exactly
// as many objects per Put as one that never heard of the flight recorder.
// The baseline itself is pinned to the count measured before DB became a
// facade over engines: routing a Put to its engine allocates nothing.
func TestFlightOffPathAllocParity(t *testing.T) {
	open := func(mutate func(*Options)) *DB {
		o := testOptions(PolicyLocalOnly)
		o.MemtableBytes = 256 << 20 // never flush: isolate the commit path
		if mutate != nil {
			mutate(&o)
		}
		d, err := OpenAt(t.TempDir(), o)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		return d
	}
	val := make([]byte, 100)
	measure := func(d *DB) float64 {
		i := 0
		return testing.AllocsPerRun(200, func() {
			if err := d.Put([]byte(fmt.Sprintf("alloc-%06d", i)), val); err != nil {
				t.Fatal(err)
			}
			i++
		})
	}
	baseline := measure(open(nil))
	offPath := measure(open(func(o *Options) { o.FlightRecorder = false }))
	if offPath != baseline {
		t.Fatalf("FlightRecorder-off Put allocates %.1f objects/op, baseline %.1f", offPath, baseline)
	}
	if baseline != putAllocs && !raceEnabled {
		t.Fatalf("Put allocates %.1f objects/op, want %.0f", baseline, putAllocs)
	}
}

// TestFlightCloudOutageIncident drives a real outage through a recorder-on
// store: the detector must fire cloud-outage exactly once for the episode,
// dump a bundle whose ring demonstrably holds pre-trigger events, and flip
// Health to degraded.
func TestFlightCloudOutageIncident(t *testing.T) {
	dir := t.TempDir()
	o := testOptions(PolicyCloudOnly)
	o.FlightRecorder = true
	o.VitalsInterval = 5 * time.Millisecond
	o.FlightDir = filepath.Join(dir, "flight")
	local, err := storage.NewLocal(filepath.Join(dir, "local"))
	if err != nil {
		t.Fatal(err)
	}
	cloud, err := storage.NewCloud(filepath.Join(dir, "cloud"), o.CloudLatency, o.CloudCost)
	if err != nil {
		t.Fatal(err)
	}
	faulty := storage.NewFaulty(cloud, storage.FaultConfig{})
	o.pcacheDir = filepath.Join(dir, "pcache")
	d, err := Open(o, local, faulty)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// Pre-outage traffic gives the ring a healthy window to capture.
	for i := 0; i < 50; i++ {
		mustPut(t, d, fmt.Sprintf("pre-%04d", i), pipelineValue(i))
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}

	faulty.StartOutage(0)
	for i := 0; i < 50; i++ {
		mustPut(t, d, fmt.Sprintf("out-%04d", i), pipelineValue(i))
	}
	if err := d.Flush(); err != nil {
		t.Fatalf("flush during outage must degrade, not fail: %v", err)
	}

	// The detector fires on the next vitals tick after the breaker opens.
	var inc flight.Incident
	deadline := time.Now().Add(5 * time.Second)
	for {
		found := false
		for _, i := range d.Incidents() {
			if i.Rule == flight.RuleCloudOutage {
				inc, found = i, true
			}
		}
		if found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no cloud-outage incident within deadline; incidents: %+v", d.Incidents())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The whole flapping episode (open <-> half-open probes under the 5ms
	// cooldown) must stay one incident.
	time.Sleep(100 * time.Millisecond)
	count := 0
	for _, i := range d.Incidents() {
		if i.Rule == flight.RuleCloudOutage {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("outage episode fired %d cloud-outage incidents, want exactly 1", count)
	}

	h := d.Health()
	if h.Status == HealthHealthy {
		t.Fatalf("Health still healthy mid-outage: %+v", h)
	}
	m := d.Metrics()
	if m.IncidentsTriggered < 1 {
		t.Fatalf("Metrics.IncidentsTriggered = %d, want >= 1", m.IncidentsTriggered)
	}
	if !strings.Contains(d.DumpStats(), "Flight Recorder") {
		t.Fatal("DumpStats missing the Flight Recorder section")
	}

	if inc.Bundle == "" {
		t.Fatalf("incident carried no bundle path: %+v", inc)
	}
	bundles, err := d.FlightBundles()
	if err != nil || len(bundles) != 1 {
		t.Fatalf("FlightBundles = %v, %v, want exactly one", bundles, err)
	}
	man := bundles[0].Manifest
	if man.Incident.Rule != flight.RuleCloudOutage {
		t.Fatalf("bundle manifest rule = %q", man.Incident.Rule)
	}
	// The captured ring must demonstrably precede the trigger.
	if man.EventCount == 0 || man.EventsFrom >= man.Incident.UnixNano {
		t.Fatalf("bundle does not capture the pre-trigger window: %+v", man)
	}
	if diag, err := flight.Analyze(bundles[0].Dir); err != nil || len(diag.Findings) == 0 {
		t.Fatalf("doctor failed on a live bundle: %v (%+v)", err, diag)
	}

	faulty.EndOutage()
}

// TestFlightShardedFacade verifies the sharded wiring: the facade's one
// recorder sees every engine's events and its metrics carry the counters.
func TestFlightShardedFacade(t *testing.T) {
	o := testOptions(PolicyLocalOnly)
	o.Shards = 4
	o.FlightRecorder = true
	o.VitalsInterval = 10 * time.Millisecond
	d, err := OpenAt(t.TempDir(), o)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	if d.flight == nil {
		t.Fatal("facade has no flight state")
	}
	for i := 0; i < 100; i++ {
		mustPut(t, d, fmt.Sprintf("sh-%04d", i), pipelineValue(i))
	}
	// Shard events reach the facade ring through the merged listener.
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if rec := d.flight.rec.Ring().Recorded(); rec == 0 {
		t.Fatal("facade ring captured no shard events")
	}
	if h := d.Health(); h.Status != HealthHealthy {
		t.Fatalf("sharded store unexpectedly unhealthy: %+v", h)
	}
}
