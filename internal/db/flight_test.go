package db

import (
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"rocksmash/internal/flight"
	"rocksmash/internal/storage"
)

// openOutageStore opens a cloud-only store over a fault-injectable cloud,
// sampling every 5ms, with bundles under flightDir ("" for none), and gives
// its event ring (if any) a healthy window of traffic to capture.
func openOutageStore(t *testing.T, flightDir string) (*DB, *storage.Faulty) {
	t.Helper()
	o := testOptions(PolicyCloudOnly)
	o.VitalsInterval = 5 * time.Millisecond
	o.FlightDir = flightDir
	d, faulty, err := OpenAtChaos(t.TempDir(), o, storage.FaultConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	for i := 0; i < 50; i++ {
		mustPut(t, d, fmt.Sprintf("pre-%04d", i), pipelineValue(i))
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	return d, faulty
}

// startOutage takes the cloud down under 50 writes and a flush, which trips
// the breaker, and returns the cloud-outage incident the detector fires on
// its next tick.
func startOutage(t *testing.T, d *DB, faulty *storage.Faulty) flight.Incident {
	t.Helper()
	faulty.StartOutage(0)
	for i := 0; i < 50; i++ {
		mustPut(t, d, fmt.Sprintf("out-%04d", i), pipelineValue(i))
	}
	if err := d.Flush(); err != nil {
		t.Fatalf("flush during outage must degrade, not fail: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, inc := range d.Incidents() {
			if inc.Rule == flight.RuleCloudOutage {
				return inc
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no cloud-outage incident within deadline; incidents: %+v", d.Incidents())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFlightOffPath verifies a store without a FlightDir: it keeps no event
// ring and writes no bundle, yet its detector runs — a cloud outage fires
// cloud-outage into Incidents, Metrics, Health and DumpStats.
func TestFlightOffPath(t *testing.T) {
	d, faulty := openOutageStore(t, "")
	if d.flight.rec != nil {
		t.Fatal("event ring allocated without a FlightDir")
	}
	if h := d.Health(); h.Status != HealthHealthy {
		t.Fatalf("fresh store Health = %+v, want healthy", h)
	}
	if incs := d.Incidents(); len(incs) != 0 {
		t.Fatalf("healthy store fired incidents: %+v", incs)
	}

	inc := startOutage(t, d, faulty)
	defer faulty.EndOutage()
	if inc.Bundle != "" {
		t.Fatalf("incident carried a bundle without a FlightDir: %+v", inc)
	}
	if bundles, err := d.FlightBundles(); err != nil || bundles != nil || d.FlightBundleDir() != "" {
		t.Fatalf("FlightBundles() = %v, %v (dir %q) without a FlightDir, want nil, nil", bundles, err, d.FlightBundleDir())
	}
	m := d.Metrics()
	if m.IncidentsTriggered < 1 || m.BundlesWritten != 0 || m.BundleErrors != 0 {
		t.Fatalf("flight metrics: triggered %d, bundles %d, errors %d; want >= 1, 0, 0",
			m.IncidentsTriggered, m.BundlesWritten, m.BundleErrors)
	}
	if h := d.Health(); h.Status == HealthHealthy || !slices.Contains(h.ActiveRules, flight.RuleCloudOutage) {
		t.Fatalf("Health mid-outage = %+v, want degraded with cloud-outage active", h)
	}
	if dump := d.DumpStats(); !strings.Contains(dump, "Incidents: ") || strings.Contains(dump, "Event ring") {
		t.Fatalf("DumpStats flight section: want incidents and no event ring:\n%s", dump)
	}
}

// putAllocs is the allocations per Put: the skiplist node, tower included.
// The batch is pooled, the WAL encodes into a buffer it keeps, and the
// internal key is built on the stack. The 1.6 % of nodes taller than three
// levels allocate their tower apart, which AllocsPerRun's integer average
// rounds away.
const putAllocs = 1.0

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// TestFlightOffPathAllocParity pins Put on a store without a FlightDir —
// the sampler and detector running, no event ring — to putAllocs, and shows
// what the ring a FlightDir installs costs on top: a Put fires a commit-group
// event, which the ring records in new objects. Keys are formatted before the
// measured closure so only the Put is counted.
func TestFlightOffPathAllocParity(t *testing.T) {
	open := func(flightDir string) *DB {
		o := testOptions(PolicyLocalOnly)
		o.MemtableBytes = 256 << 20 // never flush: isolate the commit path
		o.FlightDir = flightDir
		d, err := OpenAt(t.TempDir(), o)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		return d
	}
	const runs = 200
	val := make([]byte, 100)
	keys := make([][]byte, runs+1) // AllocsPerRun adds one warm-up call
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("alloc-%06d", i))
	}
	measure := func(d *DB) float64 {
		i := 0
		return testing.AllocsPerRun(runs, func() {
			if err := d.Put(keys[i], val); err != nil {
				t.Fatal(err)
			}
			i++
		})
	}
	offPath := measure(open(""))
	if offPath != putAllocs && !raceEnabled {
		t.Fatalf("Put without a FlightDir allocates %.1f objects/op, want %.0f", offPath, putAllocs)
	}
	if ring := measure(open(filepath.Join(t.TempDir(), "flight"))); ring <= offPath {
		t.Fatalf("Put with the event ring allocates %.1f objects/op, no more than %.1f without it", ring, offPath)
	}
}

// TestFlightCloudOutageIncident drives a real outage through a store with a
// FlightDir: the detector must fire cloud-outage exactly once for the
// episode, dump a bundle whose ring demonstrably holds pre-trigger events,
// and flip Health to degraded.
func TestFlightCloudOutageIncident(t *testing.T) {
	d, faulty := openOutageStore(t, filepath.Join(t.TempDir(), "flight"))
	inc := startOutage(t, d, faulty)
	defer faulty.EndOutage()
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
	if !strings.Contains(d.DumpStats(), "Event ring") {
		t.Fatal("DumpStats missing the event ring line")
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
}

// TestFlightBundleKeepsDumpStatsInterval: a bundle renders its stats.txt
// against the Open-time baseline and leaves the operator's DumpStats
// interval alone — the interval after a bundle still counts from the
// previous DumpStats call.
func TestFlightBundleKeepsDumpStatsInterval(t *testing.T) {
	d, faulty := openOutageStore(t, filepath.Join(t.TempDir(), "flight"))
	before := d.Metrics().Writes
	d.DumpStats()
	if inc := startOutage(t, d, faulty); inc.Bundle == "" {
		t.Fatalf("incident carried no bundle path: %+v", inc)
	}
	defer faulty.EndOutage()
	after := d.Metrics().Writes
	if after-before != 50 {
		t.Fatalf("outage wrote %d batches, want 50", after-before)
	}
	if want := fmt.Sprintf("Interval writes:   %d ops", after-before); !strings.Contains(d.DumpStats(), want) {
		t.Fatalf("DumpStats after a bundle lacks %q:\n%s", want, d.DumpStats())
	}
}

// TestFlightShardedFacade verifies the sharded wiring: the facade's one
// event ring sees every engine's events and its metrics carry the counters.
func TestFlightShardedFacade(t *testing.T) {
	o := testOptions(PolicyLocalOnly)
	o.Shards = 4
	o.VitalsInterval = 10 * time.Millisecond
	o.FlightDir = filepath.Join(t.TempDir(), "flight")
	d, err := OpenAt(t.TempDir(), o)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	if d.flight.rec == nil {
		t.Fatal("facade has no event ring")
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
