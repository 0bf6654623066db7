package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"rocksmash/internal/db"
	"rocksmash/internal/flight"
)

// Prometheus text-format grammar (version 0.0.4), strict form: metric and
// label names, one HELP immediately followed by one TYPE per family, every
// sample attributable to the family announced above it.
var (
	promNameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLabelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\["\\n])*"$`)
)

// checkPromConformance parses text as strict Prometheus exposition and
// fails the test on any violation. It returns the set of announced family
// names so callers can assert coverage.
func checkPromConformance(t *testing.T, text string) map[string]string {
	t.Helper()
	if !strings.HasSuffix(text, "\n") {
		t.Error("exposition must end in a newline")
	}
	families := map[string]string{} // name -> type
	var cur, curType string         // family currently open for samples
	var pendingHelp string          // HELP seen, TYPE not yet
	for ln, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		fail := func(format string, args ...any) {
			t.Helper()
			t.Errorf("line %d %q: "+format, append([]any{ln + 1, line}, args...)...)
		}
		if line == "" {
			fail("blank line in exposition")
			continue
		}
		if strings.HasPrefix(line, "#") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 4 || parts[0] != "#" {
				fail("malformed comment")
				continue
			}
			switch parts[1] {
			case "HELP":
				if pendingHelp != "" {
					fail("HELP for %s while HELP for %s awaits its TYPE", parts[2], pendingHelp)
				}
				if _, dup := families[parts[2]]; dup {
					fail("family %s announced twice", parts[2])
				}
				if !promNameRe.MatchString(parts[2]) {
					fail("invalid metric name %q", parts[2])
				}
				if strings.TrimSpace(parts[3]) == "" {
					fail("empty HELP text")
				}
				pendingHelp = parts[2]
			case "TYPE":
				if parts[2] != pendingHelp {
					fail("TYPE for %s does not follow its HELP (pending %q)", parts[2], pendingHelp)
				}
				switch parts[3] {
				case "counter", "gauge", "summary", "histogram", "untyped":
				default:
					fail("invalid TYPE %q", parts[3])
				}
				families[parts[2]] = parts[3]
				cur, curType = parts[2], parts[3]
				pendingHelp = ""
			default:
				fail("comment is neither HELP nor TYPE")
			}
			continue
		}
		if pendingHelp != "" {
			fail("sample between HELP and TYPE of %s", pendingHelp)
		}
		// Sample: name[{labels}] value
		rest := line
		name := rest
		labels := ""
		if i := strings.IndexByte(rest, '{'); i >= 0 {
			name = rest[:i]
			j := strings.IndexByte(rest, '}')
			if j < i {
				fail("unterminated label set")
				continue
			}
			labels = rest[i+1 : j]
			rest = rest[j+1:]
		} else if i := strings.IndexByte(rest, ' '); i >= 0 {
			name = rest[:i]
			rest = rest[i:]
		}
		if !promNameRe.MatchString(name) {
			fail("invalid sample name %q", name)
		}
		val := strings.TrimSpace(rest)
		if strings.ContainsAny(val, " \t") {
			fail("sample has trailing fields after the value (timestamps not expected)")
		}
		if _, err := strconv.ParseFloat(val, 64); err != nil {
			fail("unparseable value %q: %v", val, err)
		}
		hasQuantile := false
		if labels != "" {
			for _, pair := range strings.Split(labels, ",") {
				if !promLabelRe.MatchString(pair) {
					fail("malformed label pair %q", pair)
				}
				if strings.HasPrefix(pair, `quantile="`) {
					hasQuantile = true
				}
			}
		}
		// Grouping: the sample must belong to the family whose headers are
		// open right now — interleaving families is a conformance error.
		switch {
		case name == cur:
			if curType == "summary" && !hasQuantile {
				fail("summary base sample without a quantile label")
			}
		case curType == "summary" && (name == cur+"_count" || name == cur+"_sum"):
		default:
			fail("sample outside its family's block (open family %q type %q)", cur, curType)
		}
	}
	if pendingHelp != "" {
		t.Errorf("HELP for %s never got its TYPE", pendingHelp)
	}
	return families
}

// TestPromConformanceFull runs the strict parser over a live /metrics
// scrape with every emitter active: sharded store, vitals windows, and the
// flight recorder's health and incident families.
func TestPromConformanceFull(t *testing.T) {
	dir := t.TempDir()
	o := db.DefaultOptions()
	o.Shards = 2
	o.VitalsInterval = time.Millisecond
	o.FlightDir = filepath.Join(dir, "flight")
	d, err := db.OpenAt(filepath.Join(dir, "db"), o)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Get([]byte("k")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(d.Vitals().Samples()) < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	srv := httptest.NewServer(NewMux(d))
	defer srv.Close()

	text := get(t, srv.URL+"/metrics")
	families := checkPromConformance(t, text)
	for _, fam := range []string{
		"rocksmash_reads_total",
		"rocksmash_incidents_triggered_total",
		"rocksmash_incidents_suppressed_total",
		"rocksmash_flight_bundles_written_total",
		"rocksmash_flight_bundle_errors_total",
		"rocksmash_health_status",
		"rocksmash_vitals_incidents_per_second",
		"rocksmash_vitals_get_p99_seconds",
		"rocksmash_shard_writes_total",
		"rocksmash_get_latency_seconds",
	} {
		if _, ok := families[fam]; !ok {
			t.Errorf("/metrics missing family %s", fam)
		}
	}
	if typ := families["rocksmash_get_latency_seconds"]; typ != "summary" {
		t.Errorf("latency family type = %q, want summary", typ)
	}
	if typ := families["rocksmash_health_status"]; typ != "gauge" {
		t.Errorf("health family type = %q, want gauge", typ)
	}
}

// TestHealthEndpoint covers the probe contract: a healthy store answers
// 200 with status "healthy"; the body is DB.Health() verbatim.
func TestHealthEndpoint(t *testing.T) {
	d := openDB(t)
	srv := httptest.NewServer(NewMux(d))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy store /health = %s, want 200", resp.Status)
	}
	var h db.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != db.HealthHealthy {
		t.Fatalf("health body = %+v, want healthy", h)
	}
}

// TestIncidentsEndpoint checks both bundle states: without a FlightDir the
// log and bundle list are empty and no directory is named; with one it is
// reported.
func TestIncidentsEndpoint(t *testing.T) {
	d := openDB(t)
	srv := httptest.NewServer(NewMux(d))
	defer srv.Close()
	var off struct {
		BundleDir string              `json:"bundle_dir"`
		Incidents []flight.Incident   `json:"incidents"`
		Bundles   []flight.BundleMeta `json:"bundles"`
	}
	if err := json.Unmarshal([]byte(get(t, srv.URL+"/incidents")), &off); err != nil {
		t.Fatal(err)
	}
	if off.BundleDir != "" || len(off.Incidents) != 0 || len(off.Bundles) != 0 {
		t.Fatalf("/incidents without a FlightDir = %+v, want empty", off)
	}

	dir := t.TempDir()
	o := db.DefaultOptions()
	o.FlightDir = filepath.Join(dir, "flight")
	o.VitalsInterval = 5 * time.Millisecond
	dv, err := db.OpenAt(filepath.Join(dir, "db"), o)
	if err != nil {
		t.Fatal(err)
	}
	defer dv.Close()
	srv2 := httptest.NewServer(NewMux(dv))
	defer srv2.Close()
	var on struct {
		BundleDir string `json:"bundle_dir"`
	}
	if err := json.Unmarshal([]byte(get(t, srv2.URL+"/incidents")), &on); err != nil {
		t.Fatal(err)
	}
	if on.BundleDir != o.FlightDir {
		t.Fatalf("/incidents = %+v, want bundle dir %s", on, o.FlightDir)
	}
}
