// Package harness regenerates every table and figure of the paper's
// evaluation (as reconstructed in DESIGN.md §4). Each experiment loads a
// workload against one or more placement policies on the same engine and
// prints the rows/series the paper reports: throughput, latency
// percentiles, cache hit ratios, metadata footprints, recovery times, and
// monthly cost.
package harness

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"rocksmash/internal/db"
	"rocksmash/internal/histogram"
	"rocksmash/internal/storage"
	"rocksmash/internal/ycsb"
)

// Config controls experiment scale and placement of scratch data.
type Config struct {
	// BaseDir is scratch space; each experiment uses a subdirectory.
	BaseDir string
	// Quick shrinks datasets ~10x for smoke runs.
	Quick bool
	// Out receives the report (default os.Stdout).
	Out io.Writer
	// Seed fixes workload randomness.
	Seed int64
}

func (c Config) out() io.Writer {
	if c.Out == nil {
		return os.Stdout
	}
	return c.Out
}

func (c Config) scale(full int) int {
	if c.Quick {
		if q := full / 10; q > 0 {
			return q
		}
		return 1
	}
	return full
}

func (c Config) seed() int64 {
	if c.Seed == 0 {
		return 20210701 // CLUSTER 2021 vintage
	}
	return c.Seed
}

// Experiment is a runnable table/figure reproduction.
type Experiment struct {
	Name  string
	Title string
	Run   func(cfg Config) error
}

var registry []Experiment

func register(name, title string, run func(Config) error) {
	registry = append(registry, Experiment{Name: name, Title: title, Run: run})
}

// List returns all experiments in registration (figure/table) order.
func List() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// Run executes the named experiment ("fig5", "tab2", ... or "all").
func Run(name string, cfg Config) error {
	if cfg.BaseDir == "" {
		dir, err := os.MkdirTemp("", "rocksmash-exp-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		cfg.BaseDir = dir
	}
	if name == "all" {
		for _, e := range registry {
			if err := Run(e.Name, cfg); err != nil {
				return fmt.Errorf("%s: %w", e.Name, err)
			}
		}
		return nil
	}
	for _, e := range registry {
		if e.Name == name {
			fmt.Fprintf(cfg.out(), "\n=== %s: %s ===\n", e.Name, e.Title)
			start := time.Now()
			if err := e.Run(cfg); err != nil {
				return err
			}
			fmt.Fprintf(cfg.out(), "--- %s done in %s ---\n", e.Name, time.Since(start).Round(time.Millisecond))
			return nil
		}
	}
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.Name
	}
	sort.Strings(names)
	return fmt.Errorf("harness: unknown experiment %q (have %v)", name, names)
}

// allPolicies is the comparison set used across figures.
var allPolicies = []db.Policy{db.PolicyLocalOnly, db.PolicyMash, db.PolicyCloudLRU, db.PolicyCloudOnly}

// expOptions returns the standard experiment geometry: small enough that
// compactions and tier transitions happen at harness scale, with the
// scaled-down cloud latency model.
func expOptions(p db.Policy) db.Options {
	o := db.DefaultOptions()
	o.Policy = p
	o.MemtableBytes = 1 << 20
	o.BlockBytes = 4 << 10
	o.BlockCacheBytes = 2 << 20
	o.PCacheBytes = 16 << 20
	o.PCacheRegionBytes = 128 << 10
	o.L0CompactTrigger = 4
	o.LevelBaseBytes = 4 << 20
	o.LevelMultiplier = 8
	o.TargetFileBytes = 1 << 20
	o.CloudLatency = storage.LatencyModel{
		GetFirstByte:   2 * time.Millisecond,
		PutFirstByte:   3 * time.Millisecond,
		MetaRTT:        time.Millisecond,
		ReadBandwidth:  400 << 20,
		WriteBandwidth: 400 << 20,
	}
	return o
}

// openExp opens a DB for an experiment under cfg.BaseDir/<tag>/<policy>.
func openExp(cfg Config, tag string, opts db.Options) (*db.DB, error) {
	dir := filepath.Join(cfg.BaseDir, tag, opts.Policy.String())
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	return db.OpenAt(dir, opts)
}

// loadAndRun opens a DB for an experiment under tag, loads p.Records
// records and runs p against it. The caller closes the DB.
func loadAndRun(cfg Config, tag string, opts db.Options, p Phase) (*db.DB, PhaseResult, error) {
	d, err := openExp(cfg, tag, opts)
	if err != nil {
		return nil, PhaseResult{}, err
	}
	if err := loadRecords(d, p.Records); err != nil {
		d.Close()
		return nil, PhaseResult{}, err
	}
	r, err := p.Run(d)
	if err != nil {
		d.Close()
		return nil, PhaseResult{}, err
	}
	return d, r, nil
}

// recordLen is the value size of the experiments' YCSB records.
const recordLen = 400

// loadRecords inserts n YCSB records and settles the tree.
func loadRecords(d *db.DB, n int) error {
	for i := 0; i < n; i++ {
		if err := d.Put(ycsb.Key(uint64(i)), recordValue(i)); err != nil {
			return err
		}
	}
	return d.CompactAll()
}

// recordValue is record i's payload, regenerated so readback phases can
// assert byte-correctness rather than mere availability.
func recordValue(i int) []byte {
	val := make([]byte, recordLen)
	for j := range val {
		val[j] = byte(i + j)
	}
	return val
}

// phase is the experiments' standard YCSB phase: one client, the
// experiment seed.
func (c Config) phase(wl ycsb.Workload, records, ops int) Phase {
	return Phase{Workload: wl, Records: records, Ops: ops, ValueLen: recordLen, Seed: c.seed()}
}

// runPhase runs p against d and prints its report.
func runPhase(cfg Config, name string, d *db.DB, p Phase) (PhaseResult, error) {
	r, err := p.Run(d)
	if err != nil {
		return r, fmt.Errorf("%s phase: %w", name, err)
	}
	phaseReport(cfg, name, r)
	return r, nil
}

// phaseReport prints per-phase latency percentile lines, so every
// experiment shows the distribution shape behind its throughput number, and
// the reads a tolerant phase counted unavailable.
func phaseReport(cfg Config, name string, r PhaseResult) {
	w := cfg.out()
	line := func(kind string, h *histogram.H) {
		if h.Count() > 0 {
			fmt.Fprintf(w, "    [%s %s] %s kops/s  p50=%s p90=%s p99=%s max=%s\n",
				name, kind, kops(int(h.Count()), r.Dur),
				h.Percentile(50), h.Percentile(90), h.Percentile(99), h.Max())
		}
	}
	line("read", r.Reads)
	line("write", r.Writes)
	if r.Unavailable > 0 {
		fmt.Fprintf(w, "    [%s] reads the cloud could not serve: %d\n", name, r.Unavailable)
	}
}

// kops formats an ops/sec figure.
func kops(ops int, dur time.Duration) string {
	if dur <= 0 {
		return "inf"
	}
	return fmt.Sprintf("%8.2f", float64(ops)/dur.Seconds()/1000)
}
