package db

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"time"

	"rocksmash/internal/metrics"
	"rocksmash/internal/storage"
)

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
// deltas against prev, taken at prevAt. It stores nothing. Every scalar is a
// Signals row, printed by signalLines in the section its Dump column names;
// what is written here is the labeled tables and the lines that are not
// scalars.
func (d *DB) renderStats(m, prev Metrics, prevAt, now time.Time) string {
	var b strings.Builder
	section := func(name string) { fmt.Fprintf(&b, "\n** %s **\n", name) }
	rows := func(name string) (string, bool) { return signalLines(name, &m, &prev) }

	fmt.Fprintf(&b, "** DB Stats (policy=%s, uptime=%s, interval=%s) **\n", m.Policy,
		now.Sub(d.openedAt).Round(time.Millisecond), now.Sub(prevAt).Round(time.Millisecond))
	text, _ := rows("DB Stats")
	b.WriteString(text)

	if len(m.Shards) > 0 {
		section("Shards")
		fmt.Fprintf(&b, "%-6s %10s %10s %8s %8s %8s %8s %12s %10s %10s\n",
			"shard", "writes", "reads", "flushes", "compact", "stalls", "files", "bytes", "pc-hit", "pc-miss")
		for _, s := range m.Shards {
			fmt.Fprintf(&b, "%-6d %10d %10d %8d %8d %8d %8d %12s %10d %10d\n",
				s.Shard, s.Writes, s.Reads, s.Flushes, s.Compactions, s.WriteStalls,
				s.Files, metrics.HumanBytes(s.Bytes), s.PCacheHits, s.PCacheMisses)
		}
	}

	section("Level Shape")
	b.WriteString(d.levelShape(&m, &prev))

	section("Flush & Compaction")
	text, _ = rows("Flush & Compaction")
	b.WriteString(text)
	fmt.Fprintf(&b, "Write amp: %.2fx cumulative (table bytes written per user byte)\n", m.WriteAmp())
	header := true
	for _, lw := range m.LevelWriteAmp {
		if lw.Count == 0 {
			continue
		}
		if header {
			fmt.Fprintf(&b, "%-8s %8s %12s %12s %12s %8s %8s %12s\n", "move", "count", "in-src", "in-tgt", "out", "w-amp", "no-ovl", "no-ovl-in")
			header = false
		}
		fmt.Fprintf(&b, "L%d->L%-3d %8d %12s %12s %12s %7.2fx %8d %12s\n",
			lw.Level, lw.Target, lw.Count, metrics.HumanBytes(lw.BytesInSource),
			metrics.HumanBytes(lw.BytesInTarget), metrics.HumanBytes(lw.BytesOut), lw.WriteAmp(),
			lw.Disjoint, metrics.HumanBytes(lw.DisjointBytes))
	}

	// A breaker's position is a state, not a scalar; the local breaker
	// always exists, so the section always shows.
	section("Robustness")
	breakers := "local " + m.LocalBreakerState
	if m.BreakerState != "" {
		breakers = "cloud " + m.BreakerState + ", " + breakers
	}
	fmt.Fprintf(&b, "Breakers: %s\n", breakers)
	text, _ = rows("Robustness")
	b.WriteString(text)

	// Detection runs in every store; the section shows once it has fired
	// or when the store keeps an event ring.
	if text, fired := rows("Flight Recorder"); fired || d.flight.ring != nil {
		section("Flight Recorder")
		b.WriteString(text)
		if len(m.ActiveIncidents) > 0 {
			fmt.Fprintf(&b, "Active rules: %s\n", strings.Join(m.ActiveIncidents, ", "))
		}
		if ring := d.flight.ring; ring != nil {
			fmt.Fprintf(&b, "Event ring: %d recorded, %d overwritten (cap %d)\n",
				ring.Recorded(), ring.Dropped(), ring.Cap())
		}
	}

	section("Latency (cumulative)")
	fmt.Fprintf(&b, "%-10s %10s %10s %10s %10s %10s %10s\n",
		"op", "count", "mean", "p50", "p90", "p99", "max")
	for _, l := range m.Latencies() {
		s := l.Summary
		fmt.Fprintf(&b, "%-10s %10d %10s %10s %10s %10s %10s\n", l.Op, s.Count, s.Mean, s.P50, s.P90, s.P99, s.Max)
	}

	section("Caches")
	text, _ = rows("Caches")
	b.WriteString(text)
	fmt.Fprintf(&b, "PCache capacity: %s", metrics.HumanBytes(d.opts.PCacheBytes))
	if rb := d.pcache.RegionBytes(); rb > 0 {
		// The size in effect: PCacheRegionBytes is only its ceiling.
		fmt.Fprintf(&b, ", regions of %s", metrics.HumanBytes(rb))
	}
	b.WriteString("\n")

	if _, profiled := rows("Read Path"); profiled {
		section("Read Path")
		m.ReadAmp.Render(&b)
	}
	if text, scanned := rows("Range Scans"); scanned {
		section("Range Scans")
		b.WriteString(text)
	}

	section("Storage I/O")
	for _, dev := range []struct {
		tier      string
		cum, prev storage.Snapshot
	}{{"Local", m.LocalIO, prev.LocalIO}, {"Cloud", m.CloudIO, prev.CloudIO}} {
		iv := dev.cum.Sub(dev.prev)
		fmt.Fprintf(&b, "%s cum:      %d GET (%s, %.1f B/GET), %d PUT (%s)\n", dev.tier, dev.cum.GetOps,
			metrics.HumanBytes(dev.cum.BytesRead), dev.cum.BytesPerGet(), dev.cum.PutOps, metrics.HumanBytes(dev.cum.BytesWrite))
		fmt.Fprintf(&b, "%s interval: %d GET (%s), %d PUT (%s)\n", dev.tier,
			iv.GetOps, metrics.HumanBytes(iv.BytesRead), iv.PutOps, metrics.HumanBytes(iv.BytesWrite))
	}
	if m.CloudCost.TotalMonthly > 0 {
		fmt.Fprintf(&b, "Cloud bill: storage $%.4f/mo + requests $%.4f + egress $%.4f = $%.4f\n",
			m.CloudCost.StorageCost, m.CloudCost.RequestCost, m.CloudCost.EgressCost,
			m.CloudCost.TotalMonthly)
	}
	return b.String()
}

// levelShape is the Level Shape section of the report, which a flight bundle
// also keeps as its manifest.txt: files and bytes per level and the tier the
// level lives on, then the section's signal lines.
func (d *DB) levelShape(m, prev *Metrics) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %8s %12s %8s\n", "level", "files", "bytes", "tier")
	for l := range m.LevelFiles {
		if m.LevelFiles[l] > 0 {
			fmt.Fprintf(&b, "L%-5d %8d %12s %8s\n",
				l, m.LevelFiles[l], metrics.HumanBytes(int64(m.LevelBytes[l])), d.opts.tierForLevel(l))
		}
	}
	text, _ := signalLines("Level Shape", m, prev)
	return b.String() + text
}

// signalLines renders the Signals rows of one DumpStats section, one line per
// distinct Line in table order, "Line: label value, label value". It also
// reports whether any of the section's rows is non-zero, so a section of idle
// counters can stay out of the report.
func signalLines(section string, m, prev *Metrics) (string, bool) {
	var lines []string
	items := map[string][]string{}
	nonzero := false
	for _, s := range Signals {
		if s.section != section {
			continue
		}
		nonzero = nonzero || s.Value(m) != 0
		if s.line == "" {
			continue // printed by the section's own renderer
		}
		if items[s.line] == nil {
			lines = append(lines, s.line)
		}
		items[s.line] = append(items[s.line], s.label+" "+s.dumpValue(m, prev))
	}
	var b strings.Builder
	for _, l := range lines {
		fmt.Fprintf(&b, "%s: %s\n", l, strings.Join(items[l], ", "))
	}
	return b.String(), nonzero
}

// dumpValue renders the signal's value in m as DumpStats prints it: a _bytes
// family in binary units, a duration rounded to the millisecond, a ratio to
// three places. A counter is followed by its growth since prev, "(+n)".
func (s Signal) dumpValue(m, prev *Metrics) string {
	v := reflect.ValueOf(m).Elem().FieldByIndex(s.index)
	switch v.Kind() {
	case reflect.Float64:
		return strconv.FormatFloat(v.Float(), 'f', 3, 64)
	case reflect.Uint64:
		return strconv.FormatUint(v.Uint(), 10)
	}
	format := func(n int64) string {
		switch {
		case v.Type() == reflect.TypeOf(time.Duration(0)):
			return time.Duration(n).Round(time.Millisecond).String()
		case strings.Contains(s.Name, "_bytes"):
			return metrics.HumanBytes(n)
		}
		return strconv.FormatInt(n, 10)
	}
	if s.Type != counter {
		return format(v.Int())
	}
	was := reflect.ValueOf(prev).Elem().FieldByIndex(s.index).Int()
	return format(v.Int()) + " (+" + format(v.Int()-was) + ")"
}
