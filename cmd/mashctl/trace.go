package main

import (
	"fmt"
	"sort"
	"time"

	"rocksmash/internal/event"
)

// cmdTrace summarizes a JSONL engine trace (an event.CreateTrace listener,
// as mashbench -trace attaches): event counts, flush and per-level compaction activity with stage timings,
// upload and stall totals, cache churn, and the slowest individual events.
func cmdTrace(path string, top int) {
	recs, err := event.ReadTraceFile(path)
	if err != nil {
		fatal(err)
	}
	if len(recs) == 0 {
		fmt.Println("empty trace")
		return
	}

	type levelAgg struct {
		count    int
		inBytes  int64
		outBytes int64
		dropped  int64
		read     time.Duration
		merge    time.Duration
		upload   time.Duration
		install  time.Duration
		total    time.Duration
	}
	type slowEvent struct {
		rec  event.Record
		what string
		dur  time.Duration
	}
	var (
		byType      = map[event.Type]int{}
		levels      = map[int]*levelAgg{}
		flushes     int
		flushBytes  int64
		flushDur    time.Duration
		uploads     int
		uploadBytes int64
		uploadDur   time.Duration
		retried     int
		stallDur    = map[string]time.Duration{}
		stallCount  = map[string]int{}
		admitBlocks int
		admitBytes  int64
		evictBlocks = map[string]int{}
		evictBytes  = map[string]int64{}
		groups      int
		groupBatch  int64
		groupOps    int64
		groupBytes  int64
		groupSynced int
		groupAmort  int64
		groupDur    time.Duration
		retries     int
		slowReads   int
		slowReadDur time.Duration
		retryByOp   = map[string]int{}
		pendingUps  int
		transitions = map[string]int{}
		slow        []slowEvent
	)
	for _, rec := range recs {
		byType[rec.Type]++
		e, err := rec.Decode()
		if err != nil {
			fmt.Printf("warning: %v\n", err)
			continue
		}
		switch e := e.(type) {
		case event.FlushEnd:
			flushes++
			flushBytes += e.Bytes
			flushDur += e.Duration
			slow = append(slow, slowEvent{rec, fmt.Sprintf("flush #%d (%s)", e.Table, sizeStr(e.Bytes)), e.Duration})
		case event.CompactionEnd:
			a := levels[e.Level]
			if a == nil {
				a = &levelAgg{}
				levels[e.Level] = a
			}
			a.count++
			a.inBytes += e.InputBytes
			a.outBytes += e.OutputBytes
			a.dropped += e.DroppedKeys
			a.read += e.ReadDur
			a.merge += e.MergeDur
			a.upload += e.UploadDur
			a.install += e.InstallDur
			a.total += e.Duration
			slow = append(slow, slowEvent{rec,
				fmt.Sprintf("compaction L%d->L%d (%s in)", e.Level, e.OutputLevel, sizeStr(e.InputBytes)), e.Duration})
		case event.TableUploaded:
			uploads++
			uploadBytes += e.Bytes
			uploadDur += e.Duration
			if e.Attempts > 1 {
				retried++
			}
			if e.Pending {
				pendingUps++
			}
			slow = append(slow, slowEvent{rec,
				fmt.Sprintf("upload #%d to %s (%s)", e.Table, e.Tier, sizeStr(e.Bytes)), e.Duration})
		case event.CommitGroup:
			groups++
			groupBatch += int64(e.Batches)
			groupOps += e.Ops
			groupBytes += e.Bytes
			if e.Synced {
				groupSynced++
				groupAmort += int64(e.Batches - 1)
			}
			groupDur += e.Duration
		case event.WriteStallEnd:
			stallDur[e.Reason] += e.Duration
			stallCount[e.Reason]++
			slow = append(slow, slowEvent{rec, "write stall (" + e.Reason + ")", e.Duration})
		case event.PCacheAdmit:
			admitBlocks += e.Blocks
			admitBytes += e.Bytes
		case event.PCacheEvict:
			evictBlocks[e.Reason] += e.Blocks
			evictBytes[e.Reason] += e.Bytes
		case event.CloudRetry:
			retries++
			retryByOp[e.Op]++
		case event.BreakerState:
			transitions[e.From+"->"+e.To]++
		case event.SlowRead:
			slowReads++
			slowReadDur += e.Duration
			slow = append(slow, slowEvent{rec,
				fmt.Sprintf("slow read %q via %s (%d tables)", e.Key, e.Path, e.Tables), e.Duration})
		}
	}

	first, last := recs[0].Time(), recs[len(recs)-1].Time()
	fmt.Printf("trace: %d events over %s (%s .. %s)\n",
		len(recs), last.Sub(first).Round(time.Millisecond),
		first.Format(time.TimeOnly), last.Format(time.TimeOnly))
	fmt.Println("\nevents by type:")
	types := make([]string, 0, len(byType))
	for t := range byType {
		types = append(types, string(t))
	}
	sort.Strings(types)
	for _, t := range types {
		fmt.Printf("  %-18s %6d\n", t, byType[event.Type(t)])
	}

	if flushes > 0 {
		fmt.Printf("\nflushes: %d, %s written, %s total (%s mean)\n",
			flushes, sizeStr(flushBytes), flushDur.Round(time.Millisecond),
			(flushDur / time.Duration(flushes)).Round(time.Microsecond))
	}
	if len(levels) > 0 {
		fmt.Println("\ncompactions by input level:")
		fmt.Printf("  %-6s %5s %10s %10s %9s %9s %9s %9s %9s %9s\n",
			"level", "n", "in", "out", "dropped", "read", "merge", "upload", "install", "total")
		lvls := make([]int, 0, len(levels))
		for l := range levels {
			lvls = append(lvls, l)
		}
		sort.Ints(lvls)
		for _, l := range lvls {
			a := levels[l]
			fmt.Printf("  L%-5d %5d %10s %10s %9d %9s %9s %9s %9s %9s\n",
				l, a.count, sizeStr(a.inBytes), sizeStr(a.outBytes), a.dropped,
				durStr(a.read), durStr(a.merge), durStr(a.upload), durStr(a.install), durStr(a.total))
		}
	}
	if groups > 0 {
		fmt.Printf("\ncommit groups: %d (%.2f batches/group, %d ops, %s), wal time %s (%s mean)\n",
			groups, float64(groupBatch)/float64(groups), groupOps, sizeStr(groupBytes),
			groupDur.Round(time.Millisecond), (groupDur / time.Duration(groups)).Round(time.Microsecond))
		if groupSynced > 0 {
			fmt.Printf("  synced groups: %d (%d fsyncs amortized by grouping)\n",
				groupSynced, groupAmort)
		}
	}
	if uploads > 0 {
		fmt.Printf("\nuploads: %d tables, %s, %s total; %d needed retries (%d retry events)\n",
			uploads, sizeStr(uploadBytes), uploadDur.Round(time.Millisecond), retried, retries)
	}
	if retries > 0 || pendingUps > 0 || len(transitions) > 0 {
		fmt.Println("\nrobustness:")
		if retries > 0 {
			ops := make([]string, 0, len(retryByOp))
			for op := range retryByOp {
				ops = append(ops, op)
			}
			sort.Strings(ops)
			for _, op := range ops {
				fmt.Printf("  cloud retries (%s): %d\n", op, retryByOp[op])
			}
		}
		if pendingUps > 0 {
			fmt.Printf("  degraded landings (pending-upload): %d\n", pendingUps)
		}
		if len(transitions) > 0 {
			ts := make([]string, 0, len(transitions))
			for tr := range transitions {
				ts = append(ts, tr)
			}
			sort.Strings(ts)
			for _, tr := range ts {
				fmt.Printf("  breaker %-20s %d\n", tr, transitions[tr])
			}
		}
	}
	if slowReads > 0 {
		fmt.Printf("\nslow reads: %d sampled, %s total (see `mashctl profile -f`)\n",
			slowReads, slowReadDur.Round(time.Microsecond))
	}
	if len(stallCount) > 0 {
		fmt.Println("\nwrite stalls:")
		for reason, n := range stallCount {
			fmt.Printf("  %-10s %4d stalls, %s blocked\n", reason, n, stallDur[reason].Round(time.Millisecond))
		}
	}
	if admitBlocks > 0 || len(evictBlocks) > 0 {
		fmt.Printf("\npcache: admitted %d blocks (%s)\n", admitBlocks, sizeStr(admitBytes))
		for reason, n := range evictBlocks {
			fmt.Printf("  evicted %d blocks (%s) via %s\n", n, sizeStr(evictBytes[reason]), reason)
		}
	}

	if top > 0 && len(slow) > 0 {
		sort.Slice(slow, func(i, j int) bool { return slow[i].dur > slow[j].dur })
		if len(slow) > top {
			slow = slow[:top]
		}
		fmt.Printf("\nslowest %d events:\n", len(slow))
		for _, s := range slow {
			fmt.Printf("  %10s  %s  %s\n",
				s.dur.Round(time.Microsecond), s.rec.Time().Format(time.TimeOnly), s.what)
		}
	}
}

func sizeStr(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

func durStr(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	return d.Round(100 * time.Microsecond).String()
}
