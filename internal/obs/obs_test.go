package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rocksmash/internal/db"
	"rocksmash/internal/vitals"
)

func openDB(t *testing.T) *db.DB {
	t.Helper()
	d, err := db.OpenAt(t.TempDir(), db.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestMuxScopedPerDB is the regression test for the old process-global
// expvar registration: two DBs in one process must each report their own
// counters, not whichever DB published first.
func TestMuxScopedPerDB(t *testing.T) {
	d1, d2 := openDB(t), openDB(t)
	if err := d1.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := d1.Get([]byte("k")); err != nil {
			t.Fatal(err)
		}
	}
	s1 := httptest.NewServer(NewMux(d1))
	s2 := httptest.NewServer(NewMux(d2))
	defer s1.Close()
	defer s2.Close()

	for _, path := range []string{"/debug/vars", "/metrics"} {
		b1, b2 := get(t, s1.URL+path), get(t, s2.URL+path)
		if b1 == b2 {
			t.Fatalf("%s identical for two different DBs (global state leak)", path)
		}
	}
	m1 := get(t, s1.URL+"/metrics")
	if !strings.Contains(m1, "rocksmash_reads_total 10") {
		t.Fatalf("d1 /metrics missing its own read count:\n%s", firstLines(m1, 5))
	}
	m2 := get(t, s2.URL+"/metrics")
	if !strings.Contains(m2, "rocksmash_reads_total 0") {
		t.Fatalf("d2 /metrics should report zero reads:\n%s", firstLines(m2, 5))
	}
	if !strings.Contains(get(t, s1.URL+"/debug/vars"), `"rocksmash"`) {
		t.Fatal("/debug/vars missing the rocksmash var")
	}
	if !strings.Contains(get(t, s1.URL+"/stats"), "** DB Stats") {
		t.Fatal("/stats missing the DumpStats report")
	}
}

// TestPromExposition sanity-checks the exposition format: every sample line
// belongs to a family announced by a preceding HELP/TYPE pair, and the
// profiler families the CI smoke greps for are present.
func TestPromExposition(t *testing.T) {
	d := openDB(t)
	if err := d.Put([]byte("a"), []byte("b")); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Get([]byte("a")); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	WriteProm(&sb, d.Metrics())
	text := sb.String()

	announced := map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# ") {
			parts := strings.Fields(line)
			if len(parts) < 3 || (parts[1] != "HELP" && parts[1] != "TYPE") {
				t.Fatalf("malformed comment line %q", line)
			}
			announced[parts[2]] = true
			continue
		}
		name := line
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		} else if i := strings.IndexByte(name, ' '); i >= 0 {
			name = name[:i]
		}
		// Summaries emit name_count/name_sum under the summary family.
		base := strings.TrimSuffix(strings.TrimSuffix(name, "_count"), "_sum")
		if !announced[name] && !announced[base] {
			t.Errorf("sample %q has no HELP/TYPE header", line)
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Errorf("sample line %q is not `name value`", line)
		}
	}
	for _, fam := range []string{
		"rocksmash_reads_total",
		"rocksmash_read_profiled_total",
		"rocksmash_read_blocks_total",
		"rocksmash_read_level_serves_total",
		"rocksmash_read_bloom_checked_total",
		"rocksmash_pcache_level_hits_total",
	} {
		if !announced[fam] {
			t.Errorf("family %s missing from exposition", fam)
		}
	}
	// One profiled memtable-or-L0 Get must be visible.
	if !strings.Contains(text, "rocksmash_read_profiled_total 1") {
		t.Errorf("expected exactly one profiled get:\n%s", firstLines(text, 30))
	}
}

// TestServeBindsAndShutsDown exercises the real listener path: ":0" picks a
// free port, Addr reports it, and Close releases it.
func TestServeBindsAndShutsDown(t *testing.T) {
	d := openDB(t)
	srv, err := Serve("127.0.0.1:0", d)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(get(t, fmt.Sprintf("http://%s/metrics", srv.Addr)), "rocksmash_reads_total") {
		t.Fatal("live /metrics missing rocksmash_reads_total")
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get(fmt.Sprintf("http://%s/metrics", srv.Addr)); err == nil {
		t.Fatal("server still serving after Close")
	}
	// A second Serve on a fresh port must work (no process-global state).
	srv2, err := Serve("127.0.0.1:0", d)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	get(t, fmt.Sprintf("http://%s/stats", srv2.Addr))
}

func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}

// TestVitalsEndpoint covers both sampler states: disabled reports
// {"enabled": false}; enabled returns the ring with a latest sample and at
// least one derived window, plus rocksmash_vitals_* gauges on /metrics.
func TestVitalsEndpoint(t *testing.T) {
	// Disabled: default options.
	d := openDB(t)
	s := httptest.NewServer(NewMux(d))
	defer s.Close()
	var off vitals.Report
	if err := json.Unmarshal([]byte(get(t, s.URL+"/vitals")), &off); err != nil {
		t.Fatal(err)
	}
	if off.Enabled || off.Latest != nil {
		t.Fatalf("disabled /vitals = %+v, want enabled=false", off)
	}
	if strings.Contains(get(t, s.URL+"/metrics"), "rocksmash_vitals_") {
		t.Error("disabled sampler leaked rocksmash_vitals_* families")
	}

	// Enabled: fast interval, some traffic, wait for >= 2 samples.
	o := db.DefaultOptions()
	o.VitalsInterval = time.Millisecond
	dv, err := db.OpenAt(t.TempDir(), o)
	if err != nil {
		t.Fatal(err)
	}
	defer dv.Close()
	if err := dv.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(dv.Vitals().Samples()) < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	sv := httptest.NewServer(NewMux(dv))
	defer sv.Close()
	var on vitals.Report
	if err := json.Unmarshal([]byte(get(t, sv.URL+"/vitals")), &on); err != nil {
		t.Fatal(err)
	}
	if !on.Enabled || on.Latest == nil || on.Window == nil || len(on.Samples) < 2 {
		t.Fatalf("enabled /vitals incomplete: enabled=%v latest=%v window=%v samples=%d",
			on.Enabled, on.Latest != nil, on.Window != nil, len(on.Samples))
	}
	if on.Latest.Writes == 0 {
		t.Errorf("latest sample missed the write: %+v", on.Latest)
	}
	metrics := get(t, sv.URL+"/metrics")
	for _, fam := range []string{
		"rocksmash_vitals_window_seconds",
		"rocksmash_vitals_write_ops_per_second",
		"rocksmash_vitals_dollars_per_hour",
		"rocksmash_vitals_ops_per_dollar",
	} {
		if !strings.Contains(metrics, fam) {
			t.Errorf("/metrics missing %s with vitals enabled", fam)
		}
	}
}
