package harness

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"rocksmash/internal/db"
	"rocksmash/internal/storage"
	"rocksmash/internal/ycsb"
)

func init() {
	register("fig-localfault", "Self-healing (ours): bit-flip scrub/repair and disk-full degradation", localFaultExperiment)
}

// waitStable polls fn until its value is nonzero and unchanged for several
// consecutive samples (the lazy mirrorer works in background-drain ticks),
// or the deadline passes.
func waitStable(fn func() int64, interval time.Duration, deadline time.Time) int64 {
	var last int64
	stable := 0
	for time.Now().Before(deadline) {
		cur := fn()
		if cur > 0 && cur == last {
			stable++
			if stable >= 5 {
				return cur
			}
		} else {
			stable = 0
		}
		last = cur
		time.Sleep(interval)
	}
	return last
}

// localFaultExperiment exercises the self-healing local tier end to end in
// four phases on one store:
//
//  1. fill: load under PolicyMash with MirrorLocalLevels, wait for the lazy
//     mirrorer to give every local table a cloud copy;
//  2. bit-flip storm: a 1% read-corruption rate on the local device while
//     the full keyspace is read back — every value must come back
//     byte-correct with zero corruption errors surfaced to the client;
//  3. disk full: the local write budget is exhausted mid-workload — writes
//     must continue (flushes land cloud-direct behind the open local
//     breaker) with zero errors;
//  4. recovery: the budget lifts, the breaker closes, and the misplaced
//     tables drain back to the local tier.
func localFaultExperiment(cfg Config) error {
	w := cfg.out()
	records := cfg.scale(20000)
	phaseOps := cfg.scale(8000)

	opts := expOptions(db.PolicyMash)
	opts.MemtableBytes = 128 << 10
	opts.MirrorLocalLevels = true
	opts.WALCloudBackup = true
	opts.LocalBreaker.Cooldown = 250 * time.Millisecond
	opts.CloudBreaker.Cooldown = 250 * time.Millisecond

	dir := filepath.Join(cfg.BaseDir, "localfault")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	// The manifest draws from reserved metadata headroom (the ext4
	// reserved-blocks model): version edits survive the full data disk.
	d, localFaulty, _, err := db.OpenAtChaosLocal(dir, opts,
		storage.FaultConfig{
			Seed:                 cfg.seed(),
			BudgetExemptPrefixes: []string{"MANIFEST", "CURRENT"},
		},
		storage.FaultConfig{Seed: cfg.seed() + 1})
	if err != nil {
		return err
	}
	defer d.Close()

	// Phase 1: fill, then wait until the lazy mirrorer has stabilized —
	// every local-level table repairable from its cloud copy.
	fmt.Fprintf(w, "  records=%d ops/phase=%d value=%dB\n", records, phaseOps, recordLen)
	start := time.Now()
	if err := loadRecords(d, records); err != nil {
		return err
	}
	mirrored := waitStable(func() int64 { return d.Metrics().MirroredTables },
		50*time.Millisecond, time.Now().Add(30*time.Second))
	if mirrored == 0 {
		return fmt.Errorf("localfault: no tables mirrored after fill")
	}
	fmt.Fprintf(w, "    [fill] %d records in %s, %d local tables mirrored to cloud\n",
		records, time.Since(start).Round(time.Millisecond), mirrored)

	// Phase 2: bit-flip storm. Full-keyspace readback under a 1% local
	// read-corruption rate: every damaged block must be detected, repaired
	// from its mirror, and the read served byte-correct.
	localFaulty.SetCorruptRate(0.01)
	start = time.Now()
	for i := 0; i < records; i++ {
		got, gerr := d.Get(ycsb.Key(uint64(i)))
		if gerr != nil {
			return fmt.Errorf("localfault: Get(%d) surfaced %w during bit-flip storm", i, gerr)
		}
		if !bytes.Equal(got, recordValue(i)) {
			return fmt.Errorf("localfault: Get(%d) returned wrong bytes during bit-flip storm", i)
		}
	}
	localFaulty.SetCorruptRate(0)
	m := d.Metrics()
	fmt.Fprintf(w, "    [bit-flip storm] %d reads byte-correct in %s: injected=%d detected=%d repaired=%d unrepaired=%d\n",
		records, time.Since(start).Round(time.Millisecond), localFaulty.CorruptedReads(),
		m.CorruptionsDetected, m.CorruptionsRepaired, m.CorruptionsUnrepaired)
	if m.CorruptionsDetected == 0 && localFaulty.CorruptedReads() > 0 {
		return fmt.Errorf("localfault: %d reads corrupted but none detected", localFaulty.CorruptedReads())
	}
	if m.CorruptionsDetected != m.CorruptionsRepaired+m.CorruptionsUnrepaired {
		return fmt.Errorf("localfault: corruption counters do not reconcile: %d != %d + %d",
			m.CorruptionsDetected, m.CorruptionsRepaired, m.CorruptionsUnrepaired)
	}

	// Phase 3: the local disk fills, leaving a sliver of headroom — table
	// and WAL-segment writes fail with ENOSPC while tiny manifest appends
	// still fit, the way a real device fills. Writes must keep succeeding:
	// flushes land cloud-direct behind the open local breaker, the WAL
	// spills its segments to the cloud backup.
	localFaulty.SetWriteBudget(localFaulty.WrittenBytes() + 32<<10)
	ph := cfg.phase(ycsb.WorkloadA, records, phaseOps)
	if _, err := runPhase(cfg, "disk-full", d, ph); err != nil {
		return fmt.Errorf("localfault: %w", err)
	}
	if err := d.Flush(); err != nil {
		return fmt.Errorf("localfault: flush during disk-full phase: %w", err)
	}
	m = d.Metrics()
	fmt.Fprintf(w, "    [disk-full] breaker=%s trips=%d cloud-direct tables=%d misplaced=%d wal-spills=%d, zero write errors\n",
		m.LocalBreakerState, m.LocalBreakerTrips, m.LocalDegradedTables, m.MisplacedTables, m.WALSpills)
	if m.LocalDegradedTables == 0 {
		return fmt.Errorf("localfault: disk-full phase landed no tables cloud-direct")
	}

	// Phase 4: space returns; the breaker's next probe closes it and the
	// drainer migrates the misplaced tables back to the local tier.
	localFaulty.SetWriteBudget(0)
	ph.Seed++ // a fresh stream, not a replay of the disk-full phase
	if _, err := runPhase(cfg, "recovery", d, ph); err != nil {
		return err
	}
	drainStart := time.Now()
	deadline := drainStart.Add(30 * time.Second)
	for d.MisplacedTables() > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("localfault: %d misplaced tables did not drain back", d.MisplacedTables())
		}
		time.Sleep(10 * time.Millisecond)
	}
	m = d.Metrics()
	fmt.Fprintf(w, "    [recovery] misplaced tables drained back in %s: drained=%d breaker=%s degraded-time=%s\n",
		time.Since(drainStart).Round(time.Millisecond), m.LocalDrainedBack,
		m.LocalBreakerState, m.LocalDegradedDur.Round(time.Millisecond))
	return nil
}
