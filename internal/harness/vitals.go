package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"rocksmash/internal/db"
	"rocksmash/internal/storage"
	"rocksmash/internal/vitals"
	"rocksmash/internal/ycsb"
)

func init() {
	register("fig-vitals", "Vitals (ours): time-series telemetry across a shifting workload", vitalsExperiment)
}

// vitalsPhase is one workload phase in the vitals.json artifact: its exact
// boundary samples differentiated into one window, so each phase's rates
// are measured over precisely its own duration regardless of the sampler
// cadence.
type vitalsPhase struct {
	Name   string        `json:"name"`
	Window vitals.Window `json:"window"`
}

// vitalsArtifact is the vitals.json shape: the fine-grained sampler ring
// (samples + derived windows) plus exact per-phase summary windows. This
// is the time-series a future fig-autotune replays its policy decisions
// against.
type vitalsArtifact struct {
	IntervalSeconds float64         `json:"interval_seconds"`
	Phases          []vitalsPhase   `json:"phases"`
	Samples         []vitals.Sample `json:"samples"`
	Windows         []vitals.Window `json:"windows"`
}

// vitalsExperiment replays a shifting workload — fill, zipfian read, scan,
// cloud outage — against one store with the vitals sampler on, and emits
// the recorded time-series as vitals.json. The per-phase windows must
// visibly distinguish the phases: write rate peaks in fill, read rate in
// the zipfian phase, device read bandwidth in the scan phase, and the
// outage phase ends with the breaker open and a degraded-upload backlog.
func vitalsExperiment(cfg Config) error {
	w := cfg.out()
	records := cfg.scale(30000)
	readOps := cfg.scale(12000)
	scanOps := cfg.scale(1500)
	outageOps := cfg.scale(8000)

	opts := expOptions(db.PolicyMash)
	// Every level in the cloud: the tree is cloud-resident (so the storage
	// component of $/hour is nonzero in every window) and flushes target
	// the cloud tier, which makes the outage phase's degraded landings —
	// and its pending-upload backlog gauge — deterministic. The caches are
	// squeezed so the read phases generate device traffic instead of
	// being absorbed entirely in memory.
	opts.LocalLevels = -1
	opts.BlockCacheBytes = 256 << 10
	opts.PCacheBytes = 1 << 20
	opts.MemtableBytes = 128 << 10 // several flushes per write phase
	opts.CloudBreaker.Cooldown = 250 * time.Millisecond
	// With every level cloud-resident, L0->L1 compactions need cloud reads
	// and defer during the outage — writers must not stall against a
	// compaction that cannot run until the outage ends, so give L0 enough
	// headroom for the whole outage phase's degraded flush backlog.
	opts.L0StallFiles = 64
	// Fine sampler cadence: the ring keeps the run's newest
	// vitals.DefaultHistory samples.
	opts.VitalsInterval = 20 * time.Millisecond

	dir := filepath.Join(cfg.BaseDir, "fig-vitals", "mash")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	d, faulty, err := db.OpenAtChaos(dir, opts, storage.FaultConfig{Seed: cfg.seed()})
	if err != nil {
		return err
	}
	defer d.Close()
	fmt.Fprintf(w, "  records=%d sampler=%s\n", records, opts.VitalsInterval)

	var phases []vitalsPhase
	mark := d.VitalsSample()
	endPhase := func(name string) vitals.Window {
		cur := d.VitalsSample()
		win := vitals.Derive(mark, cur)
		mark = cur
		phases = append(phases, vitalsPhase{Name: name, Window: win})
		fmt.Fprintf(w, "    [%s] %.1fs: write %.0f op/s, read %.0f op/s, wamp %.2fx, ramp %.2f blk/get, $%.4f/hr, breaker=%s\n",
			name, win.Seconds, win.WriteOpsPerSec, win.ReadOpsPerSec,
			win.WriteAmp, win.ReadAmpBlocksPerGet, win.DollarsPerHour.Total, win.Breaker)
		return win
	}

	// Phase 1: fill — sequential load then settle the tree into the cloud.
	if err := loadRecords(d, records); err != nil {
		return err
	}
	fill := endPhase("fill")

	// Phase 2: zipfian point reads (YCSB C, read-only).
	if _, err := runPhase(cfg, "zipf-read", d, cfg.phase(ycsb.WorkloadC, records, readOps)); err != nil {
		return err
	}
	read := endPhase("zipf-read")

	// Phase 3: range scans (YCSB E's scan shape, scans only).
	scans := ycsb.WorkloadE
	scans.ScanProp, scans.InsertProp = 1, 0
	sr, err := cfg.phase(scans, records, scanOps).Run(d)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "    [scan] %d scans, %d keys\n", scanOps, sr.Scanned)
	scan := endPhase("scan")

	// Phase 4: full cloud outage under an update-heavy workload. Flushes
	// land locally as pending-upload tables; the boundary sample must
	// catch the breaker open.
	faulty.StartOutage(0)
	ph := cfg.phase(ycsb.WorkloadA, records, outageOps)
	ph.TolerateUnavailable = true
	if _, err := runPhase(cfg, "outage", d, ph); err != nil {
		return err
	}
	if err := d.Flush(); err != nil {
		return fmt.Errorf("fig-vitals: flush during outage: %w", err)
	}
	outage := endPhase("outage")
	faulty.EndOutage()

	// The four phases must be distinguishable from the windows alone:
	// that is the property fig-autotune's policy will rely on.
	if fill.WriteOpsPerSec <= read.WriteOpsPerSec || fill.WriteOpsPerSec <= fill.ReadOpsPerSec {
		return fmt.Errorf("fig-vitals: fill phase not write-dominant (fill write %.0f op/s, read-phase write %.0f op/s)",
			fill.WriteOpsPerSec, read.WriteOpsPerSec)
	}
	if read.ReadOpsPerSec <= read.WriteOpsPerSec || read.ReadOpsPerSec <= fill.ReadOpsPerSec {
		return fmt.Errorf("fig-vitals: read phase not read-dominant (read %.0f op/s, write %.0f op/s)",
			read.ReadOpsPerSec, read.WriteOpsPerSec)
	}
	if read.ReadAmpBlocksPerGet <= 0 {
		return errors.New("fig-vitals: read phase recorded no read amplification")
	}
	if devRead := scan.LocalReadBytesPerSec + scan.CloudReadBytesPerSec; devRead <= 0 {
		return errors.New("fig-vitals: scan phase drove no device reads")
	}
	if outage.Breaker == "" || outage.Breaker == "closed" {
		return fmt.Errorf("fig-vitals: outage window breaker = %q, want open", outage.Breaker)
	}
	if outage.PendingTables == 0 {
		return errors.New("fig-vitals: outage phase left no degraded-upload backlog")
	}
	for _, ph := range phases {
		if ph.Window.DollarsPerHour.Total <= 0 {
			return fmt.Errorf("fig-vitals: %s window reports zero $/hr", ph.Name)
		}
	}

	rep := d.Vitals().Report()
	art := vitalsArtifact{
		IntervalSeconds: rep.IntervalSeconds,
		Phases:          phases,
		Samples:         rep.Samples,
		Windows:         rep.Windows,
	}
	enc, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	out := filepath.Join(cfg.BaseDir, "vitals.json")
	if err := os.WriteFile(out, enc, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "  sampler ring: %d samples, %d windows\n", len(rep.Samples), len(rep.Windows))
	fmt.Fprintf(w, "  artifact: %s\n", out)
	return nil
}
