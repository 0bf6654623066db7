package main

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rocksmash/internal/db"
	"rocksmash/internal/flight"
	"rocksmash/internal/obs"
	"rocksmash/internal/retry"
	"rocksmash/internal/storage"
	"rocksmash/internal/vitals"
)

// smallOptions is a store that flushes after a few hundred keys, over a
// cloud simulator that does not sleep, sampling every 5ms.
func smallOptions() db.Options {
	o := db.DefaultOptions()
	o.MemtableBytes = 64 << 10
	o.CloudLatency = storage.NoLatency()
	o.VitalsInterval = 5 * time.Millisecond
	return o
}

// servedStore opens a small store, writes n keys, flushes them, reads each
// back, and serves the store's observability endpoints.
func servedStore(t *testing.T, n int) (*db.DB, *httptest.Server) {
	t.Helper()
	d, err := db.OpenAt(t.TempDir(), smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%05d", i)) }
	for i := 0; i < n; i++ {
		if err := d.Put(key(i), bytes.Repeat([]byte("v"), 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := d.Get(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(obs.NewMux(d))
	t.Cleanup(srv.Close)
	return d, srv
}

// wantLines fails unless out holds every one of want.
func wantLines(t *testing.T, out string, want ...string) {
	t.Helper()
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Errorf("output lacks %q:\n%s", w, out)
		}
	}
}

// TestProfileLive reads a live store's read path through /debug/vars and
// prints the same report DumpStats' Read Path section does.
func TestProfileLive(t *testing.T) {
	const n = 500
	_, srv := servedStore(t, n)
	var out bytes.Buffer
	if err := cmdProfile(&out, srv.URL, "", 10); err != nil {
		t.Fatal(err)
	}
	wantLines(t, out.String(),
		fmt.Sprintf("reads: %d total\n", n),
		fmt.Sprintf("Profiled gets: %d (", n),
		"Read amp: ", "Bloom: ",
		"level      serves     probes",
		"tier             blocks        bytes         time",
		"block-cache ")
	if err := cmdProfile(&out, "", "", 10); err == nil {
		t.Error("profile without -addr or -f did not fail")
	}
}

// TestRenderTop renders one dashboard frame from a live store's /vitals.
func TestRenderTop(t *testing.T) {
	d, srv := servedStore(t, 200)
	deadline := time.Now().Add(2 * time.Second)
	for len(d.Vitals().Samples()) < 3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	var rep vitals.Report
	if err := getJSON(endpoint(srv.URL, "/vitals"), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Latest == nil || rep.Window == nil {
		t.Fatalf("/vitals holds no window: %+v", rep)
	}
	wantLines(t, renderTop("test", rep),
		"rocksmash top — test — ",
		"sampled every 5ms, ",
		"  writes  ", "  reads   ", "  caches  block ", "  cloud   GET ", "  $/hr    ", "  health  debt ",
		"  level   files      bytes     cmp-in    cmp-out    wamp   serves\n",
		"  placement: local ")
}

// TestDoctor diagnoses the bundle a store with a FlightDir writes when the
// cloud goes dark under it.
func TestDoctor(t *testing.T) {
	dir := t.TempDir()
	o := smallOptions()
	o.Policy = db.PolicyCloudOnly
	o.FlightDir = filepath.Join(dir, "flight")
	o.CloudRetry = retry.Policy{MaxAttempts: 4, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond}
	o.CloudBreaker = retry.BreakerConfig{Cooldown: 5 * time.Millisecond}
	d, faulty, err := db.OpenAtChaos(filepath.Join(dir, "db"), o, storage.FaultConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	faulty.StartOutage(0)
	defer faulty.EndOutage()
	for i := 0; i < 50; i++ {
		if err := d.Put([]byte(fmt.Sprintf("out-%04d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatalf("flush during outage must degrade, not fail: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if bundles, _ := d.FlightBundles(); len(bundles) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no bundle within deadline; incidents: %+v", d.Incidents())
		}
		time.Sleep(5 * time.Millisecond)
	}
	var out bytes.Buffer
	if err := cmdDoctor(&out, o.FlightDir); err != nil {
		t.Fatal(err)
	}
	wantLines(t, out.String(), "diagnosing newest of 1 bundles: ", "trigger: "+flight.RuleCloudOutage)
	if err := cmdDoctor(&out, dir); err == nil {
		t.Error("doctor over a directory holding no bundle did not fail")
	}
}
