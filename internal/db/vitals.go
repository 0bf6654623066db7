package db

import (
	"time"

	"rocksmash/internal/readprof"
	"rocksmash/internal/vitals"
)

// Vitals bridges the store to the internal/vitals time-series sampler:
// when Options.VitalsInterval > 0, the DB runs one background sampler
// whose snapshot closure condenses Metrics() into a vitals.Sample. With
// the interval at 0 (the default) nothing starts: d.vit stays nil,
// Vitals() returns nil, and the write and read hot paths never see a
// vitals instruction.

// Vitals returns the time-series sampler, or nil when
// Options.VitalsInterval is 0. The sampler remains readable (but frozen)
// after Close.
func (d *DB) Vitals() *vitals.Sampler { return d.vit }

// startVitals launches the sampler; the caller has fully initialized d.
// With the flight recorder on, the sampler's snapshot closure also feeds
// each sample to the anomaly detector, so detection ticks at exactly the
// vitals cadence with no goroutine of its own.
func (d *DB) startVitals() {
	if d.opts.VitalsInterval <= 0 {
		return
	}
	snap := d.VitalsSample
	if d.flight != nil {
		snap = func() vitals.Sample {
			s := d.VitalsSample()
			d.flightObserve(s)
			return s
		}
	}
	d.vit = vitals.NewSampler(d.opts.VitalsInterval, d.opts.VitalsHistory, snap)
}

// stopVitals halts the sampler goroutine; safe when vitals never started.
func (d *DB) stopVitals() {
	if d.vit != nil {
		d.vit.Stop()
	}
}

// VitalsSample condenses the current Metrics into one time-series point —
// the same snapshot the background sampler records. Exported so harnesses
// and tuners can pin samples to their own boundaries (phase edges) and
// vitals.Derive exact windows between them, independent of the sampler's
// cadence (or with sampling off entirely).
func (d *DB) VitalsSample() vitals.Sample {
	m := d.Metrics()
	s := vitals.Sample{
		UnixNano: time.Now().UnixNano(),

		Reads:              m.Reads,
		Writes:             m.Writes,
		BytesWritten:       m.BytesWritten,
		WriteStalls:        m.WriteStalls,
		Flushes:            m.Flushes,
		FlushBytes:         m.FlushBytes,
		Compactions:        m.Compactions,
		CompactBytesIn:     m.CompactBytesIn,
		CompactBytesOut:    m.CompactBytesOut,
		CommitGroups:       m.CommitGroups,
		CommitGroupBatches: m.CommitGroupBatches,

		BlockHits:    m.BlockCacheHits,
		BlockMisses:  m.BlockCacheMisses,
		PCacheHits:   m.PCacheHits,
		PCacheMisses: m.PCacheMisses,

		LocalGetOps:     m.LocalIO.GetOps,
		LocalPutOps:     m.LocalIO.PutOps,
		LocalReadBytes:  m.LocalIO.BytesRead,
		LocalWriteBytes: m.LocalIO.BytesWrite,
		CloudGetOps:     m.CloudIO.GetOps,
		CloudPutOps:     m.CloudIO.PutOps,
		CloudReadBytes:  m.CloudIO.BytesRead,
		CloudWriteBytes: m.CloudIO.BytesWrite,

		ProfiledGets:    m.ReadAmp.ProfiledGets,
		ReadBlocks:      m.ReadAmp.BlocksTotal(),
		ReadBlocksCloud: m.ReadAmp.Blocks[readprof.TierCloud],

		ScanViewHits:   m.ScanViewHits,
		ScanViewMisses: m.ScanViewMisses,
		ViewBuilds:     m.ViewBuilds,
		IterKeys:       m.IterKeys,

		LocalBytes:     m.LocalBytes,
		CloudBytes:     m.CloudBytes,
		CompactionDebt: m.CompactionDebt,
		SpaceAmp:       m.SpaceAmp,
		PendingTables:  m.PendingTables,
		PendingBytes:   m.PendingBytes,
		Breaker:        m.BreakerState,

		LocalBreaker:        m.LocalBreakerState,
		MisplacedTables:     m.MisplacedTables,
		LocalDegradedTables: m.LocalDegradedTables,
		LocalDrainedBack:    m.LocalDrainedBack,
		CorruptionsDetected: m.CorruptionsDetected,
		CorruptionsRepaired: m.CorruptionsRepaired,

		CostStorageMonthly: m.CloudCost.StorageCost,
		CostRequest:        m.CloudCost.RequestCost,
		CostEgress:         m.CloudCost.EgressCost,

		GetP99Nanos:        m.GetLat.P99.Nanoseconds(),
		IncidentsTriggered: m.IncidentsTriggered,
	}
	s.LevelFiles = append(s.LevelFiles, m.LevelFiles...)
	for _, b := range m.LevelBytes {
		s.LevelBytes = append(s.LevelBytes, int64(b))
	}
	for _, lw := range m.LevelWriteAmp {
		s.LevelBytesIn = append(s.LevelBytesIn, lw.BytesInSource+lw.BytesInTarget)
		s.LevelBytesOut = append(s.LevelBytesOut, lw.BytesOut)
	}
	s.LevelServes = append(s.LevelServes, m.ReadAmp.LevelServes[:]...)
	s.LevelProbes = append(s.LevelProbes, m.ReadAmp.LevelProbes[:]...)
	for _, b := range m.ReadAmp.IterBlocks {
		s.IterBlocks += b
	}
	if len(m.Shards) > 1 {
		s.ShardOps = make([]int64, len(m.Shards))
		for i, sh := range m.Shards {
			s.ShardOps[i] = sh.Writes + sh.Reads
		}
	}
	return s
}
