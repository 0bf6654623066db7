package db

import (
	"fmt"
	"strings"
	"time"

	"rocksmash/internal/metrics"
	"rocksmash/internal/pcache"
)

// hasLevelCompactions reports whether any level has compacted yet.
func hasLevelCompactions(lws []LevelWriteAmp) bool {
	for _, lw := range lws {
		if lw.Count > 0 {
			return true
		}
	}
	return false
}

// DumpStats renders a multi-line, human-readable statistics report in the
// spirit of RocksDB's GetProperty("rocksdb.stats"): cumulative counters,
// interval deltas since the previous DumpStats call, the level shape, the
// engine latency distributions, cache state and cloud I/O with its bill.
func (d *DB) DumpStats() string {
	m := d.Metrics()
	now := time.Now()

	// The previous call's snapshot is the baseline of the interval
	// (since-last-dump) deltas shown next to the cumulative totals, RocksDB's
	// "cumulative / interval" convention; before any call it is zero, taken
	// at Open, so the first interval spans the DB's whole lifetime.
	d.dumpMu.Lock()
	prev, prevAt := d.lastDump, d.lastDumpAt
	d.lastDump, d.lastDumpAt = m, now
	d.dumpMu.Unlock()
	if prevAt.IsZero() {
		prevAt = d.openedAt
	}
	return d.renderStats(m, prev, prevAt, now)
}

// renderStats is DumpStats' report of m, taken at now, with its interval
// deltas against prev, taken at prevAt. It stores nothing.
func (d *DB) renderStats(m, prev Metrics, prevAt, now time.Time) string {
	interval := now.Sub(prevAt)
	uptime := now.Sub(d.openedAt)

	var b strings.Builder
	fmt.Fprintf(&b, "** DB Stats (policy=%s, uptime=%s, interval=%s) **\n",
		m.Policy, uptime.Round(time.Millisecond), interval.Round(time.Millisecond))
	fmt.Fprintf(&b, "Cumulative writes: %d ops, %s user data, stalls: %d\n",
		m.Writes, metrics.HumanBytes(m.BytesWritten), m.WriteStalls)
	fmt.Fprintf(&b, "Cumulative reads:  %d ops\n", m.Reads)
	fmt.Fprintf(&b, "Interval writes:   %d ops, %s user data, stalls: %d\n",
		m.Writes-prev.Writes, metrics.HumanBytes(m.BytesWritten-prev.BytesWritten), m.WriteStalls-prev.WriteStalls)
	fmt.Fprintf(&b, "Interval reads:    %d ops\n", m.Reads-prev.Reads)
	if m.CommitGroups > 0 {
		fmt.Fprintf(&b, "Commit groups: %d, %.2f batches/group, %d WAL syncs amortized\n",
			m.CommitGroups, float64(m.CommitGroupBatches)/float64(m.CommitGroups),
			m.WALSyncsAmortized)
	}

	if len(m.Shards) > 0 {
		b.WriteString("\n** Shards **\n")
		fmt.Fprintf(&b, "%-6s %10s %10s %8s %8s %8s %8s %12s %10s %10s\n",
			"shard", "writes", "reads", "flushes", "compact", "stalls", "files", "bytes", "pc-hit", "pc-miss")
		for _, s := range m.Shards {
			fmt.Fprintf(&b, "%-6d %10d %10d %8d %8d %8d %8d %12s %10d %10d\n",
				s.Shard, s.Writes, s.Reads, s.Flushes, s.Compactions, s.WriteStalls,
				s.Files, metrics.HumanBytes(s.Bytes), s.PCacheHits, s.PCacheMisses)
		}
	}

	b.WriteString("\n** Level Shape **\n")
	fmt.Fprintf(&b, "%-6s %8s %12s %8s\n", "level", "files", "bytes", "tier")
	for l := range m.LevelFiles {
		if m.LevelFiles[l] == 0 {
			continue
		}
		fmt.Fprintf(&b, "L%-5d %8d %12s %8s\n",
			l, m.LevelFiles[l], metrics.HumanBytes(int64(m.LevelBytes[l])), d.opts.tierForLevel(l))
	}
	fmt.Fprintf(&b, "Placement: local %s, cloud %s, pinned metadata %s\n",
		metrics.HumanBytes(m.LocalBytes), metrics.HumanBytes(m.CloudBytes), metrics.HumanBytes(m.MetaBytes))
	if m.ObsoleteTables > 0 {
		fmt.Fprintf(&b, "Obsolete, held by open readers: %d tables (%s)\n",
			m.ObsoleteTables, metrics.HumanBytes(m.ObsoleteBytes))
	}

	b.WriteString("\n** Flush & Compaction **\n")
	fmt.Fprintf(&b, "Flushes:     %d cum (%d interval), %s written\n",
		m.Flushes, m.Flushes-prev.Flushes, metrics.HumanBytes(m.FlushBytes))
	fmt.Fprintf(&b, "Compactions: %d cum (%d interval), in %s, out %s, dropped keys %d\n",
		m.Compactions, m.Compactions-prev.Compactions,
		metrics.HumanBytes(m.CompactBytesIn), metrics.HumanBytes(m.CompactBytesOut), m.CompactDroppedKeys)
	fmt.Fprintf(&b, "Compactions running: %d of %d slots\n", m.CompactionsRunning, compactionSlots)
	fmt.Fprintf(&b, "Upload retries: %d cum (%d interval)\n",
		m.UploadRetries, m.UploadRetries-prev.UploadRetries)
	fmt.Fprintf(&b, "Pipeline: prefetch %d spans/%d blocks, readahead %d spans/%d blocks\n",
		m.PrefetchSpans, m.PrefetchBlocks, m.ReadaheadSpans, m.ReadaheadBlocks)
	fmt.Fprintf(&b, "Write amp: %.2fx cumulative (flush %s + compact-out %s / user %s)\n",
		m.WriteAmp(), metrics.HumanBytes(m.FlushBytes), metrics.HumanBytes(m.CompactBytesOut),
		metrics.HumanBytes(m.BytesWritten))
	fmt.Fprintf(&b, "Compaction debt: %s, space amp %.2fx\n",
		metrics.HumanBytes(m.CompactionDebt), m.SpaceAmp)
	if hasLevelCompactions(m.LevelWriteAmp) {
		fmt.Fprintf(&b, "%-8s %8s %12s %12s %12s %8s\n",
			"move", "count", "in-src", "in-tgt", "out", "w-amp")
		for _, lw := range m.LevelWriteAmp {
			if lw.Count == 0 {
				continue
			}
			fmt.Fprintf(&b, "L%d->L%-3d %8d %12s %12s %12s %7.2fx\n",
				lw.Level, lw.Target, lw.Count,
				metrics.HumanBytes(lw.BytesInSource), metrics.HumanBytes(lw.BytesInTarget),
				metrics.HumanBytes(lw.BytesOut), lw.WriteAmp())
		}
	}

	if m.BreakerState != "" {
		b.WriteString("\n** Robustness **\n")
		fmt.Fprintf(&b, "Cloud breaker: %s, trips %d, half-opens %d, degraded %s\n",
			m.BreakerState, m.BreakerTrips, m.BreakerHalfOpens, m.DegradedDur.Round(time.Millisecond))
		fmt.Fprintf(&b, "Read retries: %d cum (%d interval)\n",
			m.ReadRetries, m.ReadRetries-prev.ReadRetries)
		fmt.Fprintf(&b, "Degraded landings: %d tables, drained %d, pending %d (%s)\n",
			m.DegradedTables, m.DrainedTables, m.PendingTables, metrics.HumanBytes(m.PendingBytes))
		if m.CompactionsDeferred > 0 {
			fmt.Fprintf(&b, "Compactions deferred by outages: %d\n", m.CompactionsDeferred)
		}
		if m.DeferredDeletes > 0 {
			fmt.Fprintf(&b, "Deferred deletes: %d queued for retry\n", m.DeferredDeletes)
		}
	}
	if m.LocalBreakerState != "" {
		if m.BreakerState == "" {
			b.WriteString("\n** Robustness **\n")
		}
		fmt.Fprintf(&b, "Local breaker: %s, trips %d, half-opens %d, degraded %s\n",
			m.LocalBreakerState, m.LocalBreakerTrips, m.LocalBreakerHalfOpens,
			m.LocalDegradedDur.Round(time.Millisecond))
		fmt.Fprintf(&b, "Local-degraded landings: %d tables, drained back %d, misplaced %d\n",
			m.LocalDegradedTables, m.LocalDrainedBack, m.MisplacedTables)
		fmt.Fprintf(&b, "Corruption: detected %d, repaired %d, unrepaired %d, quarantined %d (scrub passes %d)\n",
			m.CorruptionsDetected, m.CorruptionsRepaired, m.CorruptionsUnrepaired,
			m.QuarantinedTables, m.ScrubPasses)
		if m.MirroredTables > 0 {
			fmt.Fprintf(&b, "Mirrored local tables: %d\n", m.MirroredTables)
		}
		if m.PCacheCorruptReads > 0 {
			fmt.Fprintf(&b, "PCache corrupt reads (self-healed): %d\n", m.PCacheCorruptReads)
		}
		if m.WALSpills > 0 || m.WALRestored > 0 {
			fmt.Fprintf(&b, "WAL segments: spilled %d to backup, restored %d\n", m.WALSpills, m.WALRestored)
		}
	}

	// Detection runs in every store; the section shows once it has fired
	// or when the store keeps an event ring.
	if rec := d.flight.rec; rec != nil || m.IncidentsTriggered > 0 {
		b.WriteString("\n** Flight Recorder **\n")
		fmt.Fprintf(&b, "Incidents: %d triggered, %d suppressed; bundles: %d written, %d errors\n",
			m.IncidentsTriggered, m.IncidentsSuppressed, m.BundlesWritten, m.BundleErrors)
		if len(m.ActiveIncidents) > 0 {
			fmt.Fprintf(&b, "Active rules: %s\n", strings.Join(m.ActiveIncidents, ", "))
		}
		if rec != nil {
			ring := rec.Ring()
			fmt.Fprintf(&b, "Event ring: %d recorded, %d overwritten (cap %d)\n",
				ring.Recorded(), ring.Dropped(), ring.Cap())
		}
	}

	b.WriteString("\n** Latency (cumulative) **\n")
	fmt.Fprintf(&b, "%-10s %10s %10s %10s %10s %10s %10s\n",
		"op", "count", "mean", "p50", "p90", "p99", "max")
	for _, l := range m.Latencies() {
		s := l.Summary
		fmt.Fprintf(&b, "%-10s %10d %10s %10s %10s %10s %10s\n", l.Op, s.Count, s.Mean, s.P50, s.P90, s.P99, s.Max)
	}

	b.WriteString("\n** Caches **\n")
	fmt.Fprintf(&b, "Block cache: hit %.3f\n", m.BlockHit)
	fmt.Fprintf(&b, "PCache:      hit %.3f, used %s of %s (%.2f), metadata %s, door declined %d",
		m.PCacheHit, metrics.HumanBytes(m.PCacheUsed), metrics.HumanBytes(d.opts.PCacheBytes),
		float64(m.PCacheUsed)/float64(d.opts.PCacheBytes), metrics.HumanBytes(m.PCacheMeta), m.PCacheDoorDeclined)
	if pc, ok := d.pcache.(*pcache.PCache); ok {
		// The size in effect: PCacheRegionBytes is only its ceiling.
		fmt.Fprintf(&b, ", regions of %s", metrics.HumanBytes(pc.RegionBytes()))
	}
	b.WriteString("\n")

	if m.ReadAmp.ProfiledGets > 0 {
		b.WriteString("\n** Read Path **\n")
		m.ReadAmp.Render(&b)
	}

	if m.ScanViewHits+m.ScanViewMisses > 0 {
		b.WriteString("\n** Range Scans **\n")
		fmt.Fprintf(&b, "Sorted views: %d level hits, %d built on first scan\n",
			m.ScanViewHits, m.ScanViewMisses)
		if m.IterKeys > 0 {
			fmt.Fprintf(&b, "Scanned keys: %d, %.4f blocks/scanned-key\n",
				m.IterKeys, float64(m.ReadAmp.IterBlocksTotal())/float64(m.IterKeys))
		}
	}

	b.WriteString("\n** Storage I/O **\n")
	li := m.LocalIO.Sub(prev.LocalIO)
	ci := m.CloudIO.Sub(prev.CloudIO)
	fmt.Fprintf(&b, "Local cum:      %d GET (%s), %d PUT (%s)\n",
		m.LocalIO.GetOps, metrics.HumanBytes(m.LocalIO.BytesRead), m.LocalIO.PutOps, metrics.HumanBytes(m.LocalIO.BytesWrite))
	fmt.Fprintf(&b, "Local interval: %d GET (%s), %d PUT (%s)\n",
		li.GetOps, metrics.HumanBytes(li.BytesRead), li.PutOps, metrics.HumanBytes(li.BytesWrite))
	fmt.Fprintf(&b, "Cloud cum:      %d GET (%s, %.1f B/GET), %d PUT (%s)\n",
		m.CloudIO.GetOps, metrics.HumanBytes(m.CloudIO.BytesRead), m.CloudIO.BytesPerGet(),
		m.CloudIO.PutOps, metrics.HumanBytes(m.CloudIO.BytesWrite))
	fmt.Fprintf(&b, "Cloud interval: %d GET (%s), %d PUT (%s)\n",
		ci.GetOps, metrics.HumanBytes(ci.BytesRead), ci.PutOps, metrics.HumanBytes(ci.BytesWrite))
	if m.CloudCost.TotalMonthly > 0 {
		fmt.Fprintf(&b, "Cloud bill: storage $%.4f/mo + requests $%.4f + egress $%.4f = $%.4f\n",
			m.CloudCost.StorageCost, m.CloudCost.RequestCost, m.CloudCost.EgressCost,
			m.CloudCost.TotalMonthly)
	}
	return b.String()
}
