package harness

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"rocksmash/internal/db"
	"rocksmash/internal/flight"
	"rocksmash/internal/storage"
	"rocksmash/internal/ycsb"
)

func init() {
	register("fig-incident", "Flight recorder (ours): anomaly detection and postmortem bundles across three injected-fault episodes", incidentExperiment)
}

// incidentExperiment drives one sharded store with a bundle directory through a
// healthy fill followed by three injected-fault episodes, each of which must
// fire its matching detector rule exactly once and leave behind a postmortem
// bundle whose event ring demonstrably predates the trigger:
//
//  1. fill: a plain dataset load that must fire nothing — the false-positive
//     baseline;
//  2. hot-key storm: every op hammers one key, concentrating the whole
//     workload on one of four shards — shard-skew;
//  3. cloud outage: the cloud tier goes dark mid-workload and the breaker
//     opens — cloud-outage (one incident for the whole flapping episode);
//  4. disk full: the local write budget runs out and tables land
//     cloud-direct behind the open local breaker — local-degraded.
func incidentExperiment(cfg Config) error {
	w := cfg.out()
	records := cfg.scale(12000)
	phaseOps := cfg.scale(6000)

	opts := expOptions(db.PolicyMash)
	opts.Shards = 4
	opts.MemtableBytes = 128 << 10
	opts.MirrorLocalLevels = true
	opts.WALCloudBackup = true
	opts.LocalBreaker.Cooldown = 250 * time.Millisecond
	opts.CloudBreaker.Cooldown = 250 * time.Millisecond
	// The flight recorder under test: 20ms detection ticks, and a bundle
	// directory, so each rule's first incident leaves a bundle.
	opts.VitalsInterval = 20 * time.Millisecond
	opts.FlightDir = filepath.Join(cfg.BaseDir, "incident", "flight")

	dir := filepath.Join(cfg.BaseDir, "incident", "db")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.RemoveAll(opts.FlightDir); err != nil {
		return err
	}
	// Metadata headroom mirrors the ext4 reserved-blocks model: manifest
	// appends survive the full data disk in the disk-full episode.
	d, localFaulty, cloudFaulty, err := db.OpenAtChaosLocal(dir, opts,
		storage.FaultConfig{
			Seed:                 cfg.seed(),
			BudgetExemptPrefixes: []string{"MANIFEST", "CURRENT"},
		},
		storage.FaultConfig{Seed: cfg.seed() + 1})
	if err != nil {
		return err
	}
	defer d.Close()

	// ruleCount tallies fired incidents for one rule.
	ruleCount := func(rule string) int {
		n := 0
		for _, inc := range d.Incidents() {
			if inc.Rule == rule {
				n++
			}
		}
		return n
	}
	// waitIncident polls until rule has fired, returning the incident.
	waitIncident := func(phase, rule string, deadline time.Duration) (flight.Incident, error) {
		end := time.Now().Add(deadline)
		for {
			for _, inc := range d.Incidents() {
				if inc.Rule == rule {
					return inc, nil
				}
			}
			if time.Now().After(end) {
				return flight.Incident{}, fmt.Errorf("incident: %s phase fired no %s incident within %s (have %+v)",
					phase, rule, deadline, d.Incidents())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	// report verifies the episode's incident and its postmortem bundle:
	// fired, bundled, and the captured event window starts before the
	// trigger instant.
	report := func(phase string, inc flight.Incident) error {
		if inc.Bundle == "" {
			return fmt.Errorf("incident: %s fired without a bundle", inc.Rule)
		}
		man, err := flight.ReadBundleManifest(inc.Bundle)
		if err != nil {
			return fmt.Errorf("incident: reading %s bundle: %w", inc.Rule, err)
		}
		if man.EventCount == 0 || man.EventsFrom >= man.Incident.UnixNano {
			return fmt.Errorf("incident: %s bundle does not capture the pre-trigger window: %d events, from=%d trigger=%d",
				inc.Rule, man.EventCount, man.EventsFrom, man.Incident.UnixNano)
		}
		pre := time.Duration(man.Incident.UnixNano - man.EventsFrom)
		fmt.Fprintf(w, "    [%s] incident %s: fired=%d severity=%s bundle=%s (%d events, %s pre-trigger)\n",
			phase, inc.Rule, ruleCount(inc.Rule), inc.Severity, filepath.Base(inc.Bundle), man.EventCount, pre.Round(time.Millisecond))
		fmt.Fprintf(w, "        %s\n", inc.Reason)
		return nil
	}

	// Phase 1 — fill. The healthy baseline: load the dataset, let the
	// detector's rolling baselines warm up, and assert the detectors stay
	// quiet — a recorder that cries wolf during a plain fill is useless.
	fmt.Fprintf(w, "  shards=4 records=%d ops/phase=%d value=%dB vitals=%s\n",
		records, phaseOps, recordLen, opts.VitalsInterval)
	start := time.Now()
	if err := loadRecords(d, records); err != nil {
		return err
	}
	// A few quiet ticks warm the spike baselines before any fault lands.
	time.Sleep(10 * opts.VitalsInterval)
	if incs := d.Incidents(); len(incs) != 0 {
		return fmt.Errorf("incident: healthy fill fired %d false positives: %+v", len(incs), incs)
	}
	fmt.Fprintf(w, "    [fill] %d records in %s, zero false positives\n",
		records, time.Since(start).Round(time.Millisecond))

	// Phase 2 — hot-key storm: one key takes the whole op stream, so one
	// shard carries 4x its fair share and the skew window trips after three
	// consecutive ticks.
	hot := ycsb.Key(0)
	stormEnd := time.Now().Add(5 * time.Second)
	storm := 0
	for ruleCount(flight.RuleShardSkew) == 0 {
		if time.Now().After(stormEnd) {
			return fmt.Errorf("incident: hot-key storm fired no shard-skew incident after %d ops", storm)
		}
		for i := 0; i < 200; i++ {
			if err := d.Put(hot, recordValue(i)); err != nil {
				return err
			}
			if _, gerr := d.Get(hot); gerr != nil {
				return gerr
			}
			storm += 2
		}
	}
	inc, err := waitIncident("hot-key storm", flight.RuleShardSkew, time.Second)
	if err != nil {
		return err
	}
	if err := report("hot-key storm", inc); err != nil {
		return err
	}

	// Phase 3 — cloud outage: writes keep succeeding (degraded mode), the
	// breaker flaps open<->half-open, and the whole episode is one incident.
	cloudFaulty.StartOutage(0)
	ph := cfg.phase(ycsb.WorkloadA, records, phaseOps)
	ph.TolerateUnavailable = true
	if _, err := runPhase(cfg, "cloud-outage", d, ph); err != nil {
		return err
	}
	// The flush seals a WAL segment whose cloud backup fails against the
	// dark tier — the very failure that trips the breaker and the detector.
	if err := d.Flush(); err != nil && !errors.Is(err, db.ErrCloudUnavailable) {
		return fmt.Errorf("incident: flush during outage must degrade, not fail: %w", err)
	}
	inc, err = waitIncident("cloud-outage", flight.RuleCloudOutage, 10*time.Second)
	if err != nil {
		return err
	}
	if err := report("cloud-outage", inc); err != nil {
		return err
	}
	cloudFaulty.EndOutage()
	// Let the breaker's next probe close it so the disk-full episode can
	// land its tables cloud-direct.
	closeDeadline := time.Now().Add(10 * time.Second)
	for d.BreakerState() != "closed" {
		if time.Now().After(closeDeadline) {
			return fmt.Errorf("incident: cloud breaker stuck %s after outage end", d.BreakerState())
		}
		if _, err := d.Get(ycsb.Key(1)); err != nil && err != db.ErrNotFound {
			return err
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Phase 4 — disk full: local writes fail with ENOSPC (metadata still
	// fits), the local breaker opens, flushes land cloud-direct.
	localFaulty.SetWriteBudget(localFaulty.WrittenBytes() + 32<<10)
	ph.Seed++ // a fresh stream, not a replay of the cloud-outage phase
	if _, err := runPhase(cfg, "disk-full", d, ph); err != nil {
		return fmt.Errorf("incident: %w", err)
	}
	if err := d.Flush(); err != nil {
		return fmt.Errorf("incident: flush during disk-full phase: %w", err)
	}
	inc, err = waitIncident("disk-full", flight.RuleLocalDegraded, 10*time.Second)
	if err != nil {
		return err
	}
	if err := report("disk-full", inc); err != nil {
		return err
	}
	localFaulty.SetWriteBudget(0)

	// Exactly-once audit: every episode fired its rule once — breaker
	// flapping, repeated stalled windows, and sustained skew all collapse
	// into single incidents via hysteresis and cooldowns.
	for _, rule := range []string{
		flight.RuleShardSkew, flight.RuleCloudOutage, flight.RuleLocalDegraded,
	} {
		if n := ruleCount(rule); n != 1 {
			return fmt.Errorf("incident: rule %s fired %d times, want exactly 1 per episode", rule, n)
		}
	}
	m := d.Metrics()
	bundles, err := d.FlightBundles()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "    [audit] %d incidents (%d suppressed by cooldowns), %d bundles on disk, health=%s\n",
		m.IncidentsTriggered, m.IncidentsSuppressed, len(bundles), d.Health().Status)

	// The offline doctor must rank the trigger first on a live bundle.
	if last := bundles[len(bundles)-1]; true {
		diag, err := flight.Analyze(last.Dir)
		if err != nil {
			return fmt.Errorf("incident: doctor failed on %s: %w", last.Dir, err)
		}
		if len(diag.Findings) == 0 {
			return fmt.Errorf("incident: doctor found nothing in %s", last.Dir)
		}
		fmt.Fprintf(w, "    [doctor] %s: %d findings, top: %s\n",
			filepath.Base(last.Dir), len(diag.Findings), diag.Findings[0].Title)
	}
	return nil
}
