package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"time"

	"rocksmash/internal/metrics"
	"rocksmash/internal/vitals"
)

// cmdTop polls a live /vitals endpoint and renders a refreshing terminal
// dashboard: headline rate lines with sparkline history, cache hit
// ratios, the cloud bill rate, a breaker/degraded banner, shard balance,
// and a per-level table. once renders a single frame without clearing
// the screen (for scripts and tests); iters > 0 bounds the refresh count.
// jsonOut emits one raw vitals.Report as indented JSON and exits —
// machine-readable for scripts that would otherwise scrape the frame.
func cmdTop(addr string, interval time.Duration, iters int, once, jsonOut bool) error {
	if addr == "" {
		return errors.New("top: -addr is required (a live obs endpoint, e.g. 127.0.0.1:8080)")
	}
	if interval <= 0 {
		interval = time.Second
	}
	url := endpoint(addr, "/vitals")
	for i := 0; ; i++ {
		var rep vitals.Report
		if err := getJSON(url, &rep); err != nil {
			return fmt.Errorf("top: %w", err)
		}
		switch {
		case jsonOut:
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(rep)
		case rep.Latest == nil:
			return fmt.Errorf("top: %s holds no sample", url)
		case once:
			fmt.Print(renderTop(addr, rep))
			return nil
		}
		// Home + clear-to-end redraws in place without scrollback spam.
		fmt.Print("\x1b[H\x1b[2J" + renderTop(addr, rep))
		if iters > 0 && i+1 >= iters {
			return nil
		}
		time.Sleep(interval)
	}
}

// sparkRunes map a normalized series onto eight bar heights.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// sparkline renders the last width values of series as a unicode bar
// strip, scaled to the visible maximum.
func sparkline(series []float64, width int) string {
	if len(series) > width {
		series = series[len(series)-width:]
	}
	var max float64
	for _, v := range series {
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for _, v := range series {
		idx := 0
		if max > 0 && v > 0 {
			idx = int(v / max * float64(len(sparkRunes)-1))
			if idx >= len(sparkRunes) {
				idx = len(sparkRunes) - 1
			}
		}
		b.WriteRune(sparkRunes[idx])
	}
	return b.String()
}

// humanRate renders an ops/s or bytes/s figure compactly.
func humanRate(v float64, unit string) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.1fG %s", v/1e9, unit)
	case v >= 1e6:
		return fmt.Sprintf("%.1fM %s", v/1e6, unit)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk %s", v/1e3, unit)
	default:
		return fmt.Sprintf("%.1f %s", v, unit)
	}
}

// renderTop builds one dashboard frame from a report holding a sample.
func renderTop(addr string, rep vitals.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "rocksmash top — %s — %s\n", addr, time.Now().Format("15:04:05"))
	s := *rep.Latest
	var w vitals.Window
	if rep.Window != nil {
		w = *rep.Window
	}
	fmt.Fprintf(&b, "sampled every %s, %d samples retained\n\n",
		time.Duration(rep.IntervalSeconds*float64(time.Second)), len(rep.Samples))

	// Breaker / degraded-mode banner: the one line an operator must see.
	if st := strings.ToLower(s.BreakerState); st != "" && st != "closed" {
		fmt.Fprintf(&b, "  !! CLOUD BREAKER %s — degraded mode, %d tables (%s) pending upload\n\n",
			strings.ToUpper(s.BreakerState), s.PendingTables, metrics.HumanBytes(s.PendingBytes))
	}

	// Sparkline history from the derived windows.
	const sparkWidth = 32
	writeHist := make([]float64, 0, len(rep.Windows))
	readHist := make([]float64, 0, len(rep.Windows))
	costHist := make([]float64, 0, len(rep.Windows))
	for _, win := range rep.Windows {
		writeHist = append(writeHist, win.WriteOpsPerSec)
		readHist = append(readHist, win.ReadOpsPerSec)
		costHist = append(costHist, win.DollarsPerHour.Total)
	}

	fmt.Fprintf(&b, "  writes  %14s  %s\n", humanRate(w.WriteOpsPerSec, "op/s"), sparkline(writeHist, sparkWidth))
	fmt.Fprintf(&b, "  reads   %14s  %s\n", humanRate(w.ReadOpsPerSec, "op/s"), sparkline(readHist, sparkWidth))
	fmt.Fprintf(&b, "  user    %14s  wamp %.2fx  ramp %.2f blk/get  group %.1f\n",
		humanRate(w.UserBytesPerSec, "B/s"), w.WriteAmp, w.ReadAmpBlocksPerGet, w.CommitGroupSize)
	fmt.Fprintf(&b, "  caches  block %5.1f%%   pcache %5.1f%%\n",
		w.BlockHitRatio*100, w.PCacheHitRatio*100)
	fmt.Fprintf(&b, "  cloud   GET %s (%s)  PUT %s (%s)\n",
		humanRate(w.CloudGetsPerSec, "op/s"), humanRate(w.CloudReadBytesPerSec, "B/s"),
		humanRate(w.CloudPutsPerSec, "op/s"), humanRate(w.CloudWriteBytesPerSec, "B/s"))
	fmt.Fprintf(&b, "  $/hr    %.4f total = storage %.4f + request %.4f + egress %.4f  %s\n",
		w.DollarsPerHour.Total, w.DollarsPerHour.Storage, w.DollarsPerHour.Request,
		w.DollarsPerHour.Egress, sparkline(costHist, sparkWidth))
	if w.OpsPerDollar > 0 {
		fmt.Fprintf(&b, "  value   %s per dollar-hour\n", humanRate(w.OpsPerDollar, "ops"))
	}
	fmt.Fprintf(&b, "  health  debt %s   space amp %.2fx   stalls %.1f/s",
		metrics.HumanBytes(w.CompactionDebt), w.SpaceAmp, w.StallsPerSec)
	if n := len(s.Shards); n > 1 {
		fmt.Fprintf(&b, "   shards %d (skew %.2f)", n, w.ShardSkew)
	}
	b.WriteString("\n\n")

	// Per-level table: shape, placement split, compaction attribution, and
	// the read-serve distribution — cumulative figures from the latest
	// sample.
	var servesTotal int64
	for _, n := range s.ReadAmp.LevelServes {
		servesTotal += n
	}
	fmt.Fprintf(&b, "  %-6s %6s %10s %10s %10s %7s %8s\n",
		"level", "files", "bytes", "cmp-in", "cmp-out", "wamp", "serves")
	for l := range s.LevelFiles {
		var in, out, serves int64
		if l < len(s.LevelWriteAmp) {
			lw := s.LevelWriteAmp[l]
			in, out = lw.BytesInSource+lw.BytesInTarget, lw.BytesOut
		}
		if l < len(s.ReadAmp.LevelServes) {
			serves = s.ReadAmp.LevelServes[l]
		}
		if s.LevelFiles[l] == 0 && in == 0 && serves == 0 {
			continue
		}
		wamp := "-"
		if in > 0 {
			wamp = fmt.Sprintf("%.2fx", float64(out)/float64(in))
		}
		srv := "-"
		if servesTotal > 0 {
			srv = fmt.Sprintf("%4.1f%%", float64(serves)/float64(servesTotal)*100)
		}
		fmt.Fprintf(&b, "  L%-5d %6d %10s %10s %10s %7s %8s\n",
			l, s.LevelFiles[l], metrics.HumanBytes(int64(s.LevelBytes[l])),
			metrics.HumanBytes(in), metrics.HumanBytes(out), wamp, srv)
	}
	fmt.Fprintf(&b, "\n  placement: local %s, cloud %s, pending %s (%d tables)\n",
		metrics.HumanBytes(s.LocalBytes), metrics.HumanBytes(s.CloudBytes),
		metrics.HumanBytes(s.PendingBytes), s.PendingTables)
	return b.String()
}
