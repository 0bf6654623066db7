// Package obs exposes a running DB's metrics over HTTP for the command-line
// tools: Metrics() as JSON under /debug/vars (expvar wire format), the
// DumpStats() text report under /stats, Prometheus text exposition under
// /metrics, the vitals time-series (sample ring + latest derived window)
// as JSON under /vitals, and net/http/pprof profiling under /debug/pprof/.
//
// Every handler is scoped to the DB passed to Serve/NewMux — two DBs in one
// process (tests, multi-DB tools) each serve their own numbers, and Serve
// returns the *http.Server so callers can shut the listener down.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"rocksmash/internal/db"
	"rocksmash/internal/flight"
	"rocksmash/internal/pcache"
	"rocksmash/internal/readprof"
	"rocksmash/internal/vitals"
)

// Serve starts an HTTP listener on addr (e.g. ":8080"; ":0" picks a free
// port) serving the DB's observability endpoints:
//
//	/debug/vars   expvar-format JSON with a "rocksmash" Metrics() snapshot
//	/stats        the DumpStats() multi-line text report
//	/metrics      Prometheus text exposition
//	/vitals       vitals time-series JSON (ring dump + latest window);
//	              {"enabled": false} when Options.VitalsInterval is 0
//	/health       DB.Health() as JSON; HTTP 503 only when unhealthy, so
//	              load-balancer probes eject a dead store but keep a
//	              degraded one serving
//	/incidents    flight-recorder incident log and on-disk bundle list
//	/debug/pprof  runtime profiling (net/http/pprof)
//
// The returned server's Addr field holds the bound address (useful with
// ":0"); shut it down with srv.Close or srv.Shutdown. A listen failure is
// returned rather than killing the process: metrics are an observer, never
// a reason to fail a run.
func Serve(addr string, d *db.DB) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Addr: ln.Addr().String(), Handler: NewMux(d)}
	go func() {
		// Serve returns ErrServerClosed on Shutdown/Close; nothing to report.
		_ = srv.Serve(ln)
	}()
	return srv, nil
}

// NewMux returns the observability handler tree for one DB, so tools and
// tests can mount it on their own listeners.
func NewMux(d *db.DB) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		// expvar's wire format, but scoped to this DB instead of the
		// process-global registry (which can only ever hold one "rocksmash"
		// var — the bug this replaces).
		enc, err := json.Marshal(d.Metrics())
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		fmt.Fprintf(w, "{\n\"rocksmash\": %s\n}\n", enc)
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, d.DumpStats())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WriteProm(w, d.Metrics())
		if s := d.Vitals(); s != nil {
			if win, ok := s.LatestWindow(); ok {
				WritePromVitals(w, win)
			}
		}
		WritePromHealth(w, d.Health())
	})
	mux.HandleFunc("/health", func(w http.ResponseWriter, r *http.Request) {
		h := d.Health()
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		// 503 only for unhealthy: a degraded store is still serving reads
		// and writes, and a probe that ejects it would turn an impaired
		// tier into an outage.
		if h.Status == db.HealthUnhealthy {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(h); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/incidents", func(w http.ResponseWriter, r *http.Request) {
		bundles, err := d.FlightBundles()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		resp := struct {
			Enabled   bool                `json:"enabled"`
			BundleDir string              `json:"bundle_dir,omitempty"`
			Incidents []flight.Incident   `json:"incidents"`
			Bundles   []flight.BundleMeta `json:"bundles"`
		}{
			Enabled:   d.FlightEnabled(),
			BundleDir: d.FlightBundleDir(),
			Incidents: d.Incidents(),
			Bundles:   bundles,
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(resp); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/vitals", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		var rep vitals.Report
		if s := d.Vitals(); s != nil {
			rep = s.Report()
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// promWriter emits Prometheus text exposition: one HELP/TYPE header per
// family, then samples.
type promWriter struct {
	w io.Writer
}

func (p promWriter) family(name, typ, help string) {
	fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (p promWriter) sample(name, labels string, v float64) {
	if labels != "" {
		name = name + "{" + labels + "}"
	}
	// %g keeps integers integral and avoids exponent noise for counters.
	fmt.Fprintf(p.w, "%s %g\n", name, v)
}

// labeled prints one family of n samples; at gives sample i's label set and
// value.
func (p promWriter) labeled(name, typ, help string, n int, at func(i int) (labels string, v float64)) {
	p.family(name, typ, help)
	for i := 0; i < n; i++ {
		labels, v := at(i)
		p.sample(name, labels, v)
	}
}

// shardFamilies are the per-shard families of a sharded store: shard
// imbalance must be scrapeable, not just visible in DumpStats.
var shardFamilies = []struct {
	name, typ, help string
	value           func(db.ShardSummary) float64
}{
	{"rocksmash_shard_writes_total", "counter", "Write operations committed per keyspace shard.", func(s db.ShardSummary) float64 { return float64(s.Writes) }},
	{"rocksmash_shard_reads_total", "counter", "Point lookups served per keyspace shard.", func(s db.ShardSummary) float64 { return float64(s.Reads) }},
	{"rocksmash_shard_flushes_total", "counter", "Memtable flushes per keyspace shard.", func(s db.ShardSummary) float64 { return float64(s.Flushes) }},
	{"rocksmash_shard_compactions_total", "counter", "Compactions per keyspace shard.", func(s db.ShardSummary) float64 { return float64(s.Compactions) }},
	{"rocksmash_shard_write_stalls_total", "counter", "Write stalls per keyspace shard.", func(s db.ShardSummary) float64 { return float64(s.WriteStalls) }},
	{"rocksmash_shard_bytes", "gauge", "Live table bytes per keyspace shard.", func(s db.ShardSummary) float64 { return float64(s.Bytes) }},
	{"rocksmash_shard_files", "gauge", "Live table files per keyspace shard.", func(s db.ShardSummary) float64 { return float64(s.Files) }},
	{"rocksmash_shard_pending_tables", "gauge", "Degraded-mode tables awaiting cloud upload per keyspace shard.", func(s db.ShardSummary) float64 { return float64(s.PendingTables) }},
}

// WriteProm renders a Metrics snapshot as Prometheus text exposition. The
// scalar families are the rows of db.Signals, printed in table order; the
// labeled families (per level, tier, shard, quantile) are written out here,
// at the places between the scalars where /metrics has always had them.
func WriteProm(w io.Writer, m db.Metrics) {
	p := promWriter{w: w}
	// scalars prints the rows of db.Signals not printed yet, through the one
	// named last; with "", all that remain.
	rows := db.Signals
	scalars := func(last string) {
		for len(rows) > 0 {
			s := rows[0]
			rows = rows[1:]
			p.family(s.Name, s.Type, s.Help)
			p.sample(s.Name, "", s.Value(&m))
			if s.Name == last {
				return
			}
		}
	}
	perLevel := func(name, typ, help string, n int, v func(l int) float64) {
		p.labeled(name, typ, help, n, func(l int) (string, float64) { return promLevel(l), v(l) })
	}
	perTier := func(name, help string, v func(t readprof.Tier) float64) {
		p.labeled(name, "counter", help, readprof.NumTiers, func(t int) (string, float64) {
			return fmt.Sprintf("tier=%q", readprof.Tier(t)), v(readprof.Tier(t))
		})
	}
	ra := m.ReadAmp

	scalars("rocksmash_read_timed_total")
	p.family("rocksmash_read_level_serves_total", "counter",
		"Profiled Gets resolved at each level (mem = memtable, none = not found).")
	p.sample("rocksmash_read_level_serves_total", `level="mem"`, float64(ra.MemServes))
	for l, n := range ra.LevelServes {
		p.sample("rocksmash_read_level_serves_total", promLevel(l), float64(n))
	}
	p.sample("rocksmash_read_level_serves_total", `level="none"`, float64(ra.NotFound))
	perLevel("rocksmash_read_level_probes_total", "counter", "Profiled Gets that consulted tables at each level.",
		len(ra.LevelProbes), func(l int) float64 { return float64(ra.LevelProbes[l]) })

	scalars("rocksmash_read_bloom_negative_total")
	perTier("rocksmash_read_blocks_total", "Data blocks read by profiled Gets, by source tier.",
		func(t readprof.Tier) float64 { return float64(ra.Blocks[t]) })
	perTier("rocksmash_read_bytes_total", "Data-block bytes read by profiled Gets, by source tier.",
		func(t readprof.Tier) float64 { return float64(ra.Bytes[t]) })
	perTier("rocksmash_read_fetch_seconds_total", "Block-fetch time of timed Gets, by source tier.",
		func(t readprof.Tier) float64 { return time.Duration(ra.FetchNanos[t]).Seconds() })

	scalars("rocksmash_iter_seeks_total")
	perTier("rocksmash_iter_blocks_total", "Data blocks read by profiled iterators, by source tier.",
		func(t readprof.Tier) float64 { return float64(ra.IterBlocks[t]) })
	perTier("rocksmash_iter_bytes_total", "Data-block bytes read by profiled iterators, by source tier.",
		func(t readprof.Tier) float64 { return float64(ra.IterBytes[t]) })
	p.labeled("rocksmash_pcache_level_hits_total", "counter",
		"Persistent-cache hits by LSM level (unknown = level not registered).", pcache.LevelBuckets,
		func(b int) (string, float64) { return promLevelBucket(b), float64(ra.PCacheLevelHits[b]) })
	p.labeled("rocksmash_pcache_level_misses_total", "counter",
		"Persistent-cache misses by LSM level (unknown = level not registered).", pcache.LevelBuckets,
		func(b int) (string, float64) { return promLevelBucket(b), float64(ra.PCacheLevelMisses[b]) })

	scalars("rocksmash_pcache_used_bytes")
	perLevel("rocksmash_level_files", "gauge", "Live files per LSM level.",
		len(m.LevelFiles), func(l int) float64 { return float64(m.LevelFiles[l]) })
	perLevel("rocksmash_level_bytes", "gauge", "Live bytes per LSM level.",
		len(m.LevelBytes), func(l int) float64 { return float64(m.LevelBytes[l]) })

	scalars("rocksmash_cloud_bytes")
	// Per-level compaction attribution and the derived health gauges.
	if lw := m.LevelWriteAmp; len(lw) > 0 {
		perLevel("rocksmash_level_compactions_total", "counter", "Compactions picked at each source level.",
			len(lw), func(l int) float64 { return float64(lw[l].Count) })
		perLevel("rocksmash_level_compact_bytes_in_total", "counter",
			"Bytes read by compactions at each source level (source inputs + target overlap).",
			len(lw), func(l int) float64 { return float64(lw[l].BytesInSource + lw[l].BytesInTarget) })
		perLevel("rocksmash_level_compact_bytes_out_total", "counter", "Bytes written by compactions at each source level.",
			len(lw), func(l int) float64 { return float64(lw[l].BytesOut) })
		perLevel("rocksmash_level_write_amp", "gauge", "Per-source-level write amplification (bytes out per source byte).",
			len(lw), func(l int) float64 { return lw[l].WriteAmp() })
	}
	p.family("rocksmash_write_amp", "gauge",
		"Cumulative write amplification: physical table bytes per user byte.")
	p.sample("rocksmash_write_amp", "", m.WriteAmp())

	scalars("rocksmash_space_amp")
	if len(m.Shards) > 0 {
		for _, f := range shardFamilies {
			p.labeled(f.name, f.typ, f.help, len(m.Shards), func(i int) (string, float64) {
				return fmt.Sprintf("shard=%q", fmt.Sprint(m.Shards[i].Shard)), f.value(m.Shards[i])
			})
		}
	}

	scalars("rocksmash_flight_bundle_errors_total")
	for _, l := range m.Latencies() {
		name := "rocksmash_" + strings.ReplaceAll(l.Op, ".", "_") + "_latency_seconds"
		p.family(name, "summary", l.Help)
		s := l.Summary
		p.sample(name, `quantile="0.5"`, s.P50.Seconds())
		p.sample(name, `quantile="0.9"`, s.P90.Seconds())
		p.sample(name, `quantile="0.99"`, s.P99.Seconds())
		p.sample(name+"_count", "", float64(s.Count))
		p.sample(name+"_sum", "", s.Mean.Seconds()*float64(s.Count))
	}

	// Every signal the table has gained since that order was fixed.
	scalars("")
}

// WritePromVitals renders the latest vitals window as Prometheus gauges —
// the sampler's derived rates, so dashboards get windowed figures without
// running their own rate() over raw counters.
func WritePromVitals(w io.Writer, win vitals.Window) {
	p := promWriter{w: w}
	gauge := func(name, help string, v float64) {
		p.family(name, "gauge", help)
		p.sample(name, "", v)
	}
	gauge("rocksmash_vitals_window_seconds", "Width of the vitals rate window.", win.Seconds)
	gauge("rocksmash_vitals_write_ops_per_second", "Windowed write throughput.", win.WriteOpsPerSec)
	gauge("rocksmash_vitals_read_ops_per_second", "Windowed read throughput.", win.ReadOpsPerSec)
	gauge("rocksmash_vitals_write_amp", "Windowed write amplification.", win.WriteAmp)
	gauge("rocksmash_vitals_read_amp_blocks_per_get", "Windowed blocks per profiled Get.", win.ReadAmpBlocksPerGet)
	gauge("rocksmash_vitals_block_cache_hit_ratio", "Block cache hit ratio over the window.", win.BlockHitRatio)
	gauge("rocksmash_vitals_pcache_hit_ratio", "Persistent cache hit ratio over the window.", win.PCacheHitRatio)
	gauge("rocksmash_vitals_commit_group_size", "Windowed mean batches per commit group.", win.CommitGroupSize)
	gauge("rocksmash_vitals_shard_skew", "Windowed shard balance skew: (max-min)/mean of per-shard op deltas.", win.ShardSkew)
	gauge("rocksmash_vitals_cloud_read_bytes_per_second", "Windowed cloud read bandwidth.", win.CloudReadBytesPerSec)
	gauge("rocksmash_vitals_cloud_write_bytes_per_second", "Windowed cloud write bandwidth.", win.CloudWriteBytesPerSec)
	p.family("rocksmash_vitals_dollars_per_hour", "gauge", "Windowed cloud cost rate by component.")
	p.sample("rocksmash_vitals_dollars_per_hour", `component="storage"`, win.DollarsPerHour.Storage)
	p.sample("rocksmash_vitals_dollars_per_hour", `component="request"`, win.DollarsPerHour.Request)
	p.sample("rocksmash_vitals_dollars_per_hour", `component="egress"`, win.DollarsPerHour.Egress)
	p.sample("rocksmash_vitals_dollars_per_hour", `component="total"`, win.DollarsPerHour.Total)
	gauge("rocksmash_vitals_ops_per_dollar", "Windowed throughput per dollar: ops/s over $/hour.", win.OpsPerDollar)
	gauge("rocksmash_vitals_get_p99_seconds", "Get-latency p99 gauge at the window's end sample.", time.Duration(win.GetP99Nanos).Seconds())
	gauge("rocksmash_vitals_incidents_per_second", "Windowed flight-recorder incident rate.", win.IncidentsPerSec)
}

// WritePromHealth renders the health surface as Prometheus gauges: a
// numeric status (alertable with a plain threshold) and a one-hot series
// per active detector rule.
func WritePromHealth(w io.Writer, h db.Health) {
	p := promWriter{w: w}
	var status float64
	switch h.Status {
	case db.HealthDegraded:
		status = 1
	case db.HealthUnhealthy:
		status = 2
	}
	p.family("rocksmash_health_status", "gauge",
		"Store health: 0 healthy, 1 degraded, 2 unhealthy.")
	p.sample("rocksmash_health_status", "", status)
	if len(h.ActiveRules) > 0 {
		p.family("rocksmash_incident_active", "gauge",
			"Detector rules currently in the active (fired, not yet cleared) state.")
		for _, rule := range h.ActiveRules {
			p.sample("rocksmash_incident_active", fmt.Sprintf("rule=%q", rule), 1)
		}
	}
}

// promLevel renders a level="N" label.
func promLevel(l int) string { return fmt.Sprintf("level=%q", fmt.Sprint(l)) }

func promLevelBucket(b int) string {
	if b == pcache.LevelUnknown {
		return `level="unknown"`
	}
	return fmt.Sprintf("level=%q", fmt.Sprint(b))
}
