package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"rocksmash/internal/db"
	"rocksmash/internal/storage"
	"rocksmash/internal/ycsb"
)

func init() {
	register("outage", "Robustness (ours): availability across a scripted cloud outage", outageExperiment)
}

// outageExperiment measures write availability and read degradation across
// a full cloud outage spanning several flushes, for the all-cloud worst
// case and the paper's hybrid placement. Healthy -> outage -> recovery
// phases run the same update-heavy workload; the outage phase must complete
// with zero write errors, and afterwards the pending-upload backlog must
// drain completely.
func outageExperiment(cfg Config) error {
	w := cfg.out()
	records := cfg.scale(30000)
	phaseOps := cfg.scale(12000)

	for _, p := range []db.Policy{db.PolicyCloudOnly, db.PolicyMash} {
		opts := expOptions(p)
		// Recovery must be observable at harness scale, and the memtable
		// small enough that the outage window spans several flushes.
		opts.MemtableBytes = 128 << 10
		opts.CloudBreaker.Cooldown = 250 * time.Millisecond

		dir := filepath.Join(cfg.BaseDir, "outage", p.String())
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		d, faulty, err := db.OpenAtChaos(dir, opts, storage.FaultConfig{Seed: cfg.seed()})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  policy=%s records=%d ops/phase=%d\n", p, records, phaseOps)
		if err := loadRecords(d, records); err != nil {
			d.Close()
			return err
		}

		// Cold cloud reads answer ErrCloudUnavailable while the breaker is
		// open: counted, not fatal. Each phase draws a fresh stream.
		ph := cfg.phase(ycsb.WorkloadA, records, phaseOps)
		ph.TolerateUnavailable = true
		if _, err := runPhase(cfg, "healthy", d, ph); err != nil {
			d.Close()
			return err
		}

		faulty.StartOutage(0)
		ph.Seed++
		if _, err := runPhase(cfg, "outage", d, ph); err != nil {
			d.Close()
			return err
		}
		// A flush while the cloud is still down must land locally, not fail.
		if err := d.Flush(); err != nil {
			d.Close()
			return fmt.Errorf("policy %s: flush during outage: %w", p, err)
		}
		pending, pendingBytes := d.PendingCloudTables()
		fmt.Fprintf(w, "    [outage] breaker=%s pending=%d tables (%.2fMB) flushes degraded, zero write errors\n",
			d.BreakerState(), pending, float64(pendingBytes)/(1<<20))

		faulty.EndOutage()
		ph.Seed++
		if _, err := runPhase(cfg, "recovery", d, ph); err != nil {
			d.Close()
			return err
		}
		drainStart := time.Now()
		deadline := drainStart.Add(30 * time.Second)
		for {
			if n, _ := d.PendingCloudTables(); n == 0 {
				break
			}
			if time.Now().After(deadline) {
				d.Close()
				return fmt.Errorf("policy %s: pending backlog did not drain", p)
			}
			time.Sleep(10 * time.Millisecond)
		}
		m := d.Metrics()
		fmt.Fprintf(w, "    [recovery] backlog drained in %s: degraded=%d drained=%d breaker=%s trips=%d degraded-time=%s\n",
			time.Since(drainStart).Round(time.Millisecond), m.DegradedTables, m.DrainedTables,
			m.BreakerState, m.BreakerTrips, m.DegradedDur.Round(time.Millisecond))
		if err := d.Close(); err != nil {
			return err
		}
	}
	return nil
}
