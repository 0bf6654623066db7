package harness

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"rocksmash/internal/db"
	"rocksmash/internal/histogram"
	"rocksmash/internal/storage"
	"rocksmash/internal/ycsb"
)

func init() {
	register("outage", "Robustness (ours): availability across a scripted cloud outage", outageExperiment)
}

// runOutagePhase drives count YCSB ops tolerating the typed degraded-mode
// read error: a Get answered with ErrCloudUnavailable is counted, not
// fatal, because that is the documented contract for cold cloud reads
// while the breaker is open. Any write error fails the experiment — the
// whole point of degraded mode is that writes never see the outage.
func runOutagePhase(cfg Config, phase string, d *db.DB, gen *ycsb.Generator, count int) (int, error) {
	reads, writes := histogram.New(), histogram.New()
	unavailable := 0
	start := time.Now()
	for i := 0; i < count; i++ {
		op := gen.Next()
		s := time.Now()
		switch op.Kind {
		case ycsb.OpRead, ycsb.OpScan:
			_, gerr := d.Get(op.Key)
			switch {
			case gerr == nil || gerr == db.ErrNotFound:
				reads.Record(time.Since(s))
			case errors.Is(gerr, db.ErrCloudUnavailable):
				unavailable++
			default:
				return 0, gerr
			}
		default:
			if err := d.Put(op.Key, op.Value); err != nil {
				return 0, fmt.Errorf("write failed during %s phase: %w", phase, err)
			}
			writes.Record(time.Since(s))
		}
	}
	dur := time.Since(start)
	phaseReport(cfg, phase, reads, writes, dur)
	if unavailable > 0 {
		fmt.Fprintf(cfg.out(), "    [%s] reads answered ErrCloudUnavailable: %d\n", phase, unavailable)
	}
	return unavailable, nil
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
		if err := loadRecords(d, records, 400); err != nil {
			d.Close()
			return err
		}

		gen := ycsb.NewGenerator(ycsb.WorkloadA, uint64(records), 400, cfg.seed())
		if _, err := runOutagePhase(cfg, "healthy", d, gen, phaseOps); err != nil {
			d.Close()
			return err
		}

		faulty.StartOutage(0)
		if _, err := runOutagePhase(cfg, "outage", d, gen, phaseOps); err != nil {
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
		if _, err := runOutagePhase(cfg, "recovery", d, gen, phaseOps); err != nil {
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
