package main

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"
	"time"

	"rocksmash/internal/event"
	"rocksmash/internal/metrics"
)

// cmdTrace summarizes a JSONL engine trace (an event.CreateTrace listener,
// as mashbench -trace attaches) onto w: event counts, flush and per-level
// compaction activity with stage timings, upload and stall totals, cache
// churn, and the slowest individual events. One trace always renders the
// same text: every keyed breakdown prints in key order.
func cmdTrace(w io.Writer, path string, top int) error {
	recs, err := event.ReadTraceFile(path)
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		fmt.Fprintln(w, "empty trace")
		return nil
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
			fmt.Fprintf(w, "warning: %v\n", err)
			continue
		}
		switch e := e.(type) {
		case event.FlushEnd:
			flushes++
			flushBytes += e.Bytes
			flushDur += e.Duration
			slow = append(slow, slowEvent{rec, fmt.Sprintf("flush #%d (%s)", e.Table, metrics.HumanBytes(e.Bytes)), e.Duration})
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
				fmt.Sprintf("compaction L%d->L%d (%s in)", e.Level, e.OutputLevel, metrics.HumanBytes(e.InputBytes)), e.Duration})
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
				fmt.Sprintf("upload #%d to %s (%s)", e.Table, e.Tier, metrics.HumanBytes(e.Bytes)), e.Duration})
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
	fmt.Fprintf(w, "trace: %d events over %s (%s .. %s)\n",
		len(recs), last.Sub(first).Round(time.Millisecond),
		first.Format(time.TimeOnly), last.Format(time.TimeOnly))
	fmt.Fprintln(w, "\nevents by type:")
	for _, t := range sortedKeys(byType) {
		fmt.Fprintf(w, "  %-18s %6d\n", t, byType[t])
	}

	if flushes > 0 {
		fmt.Fprintf(w, "\nflushes: %d, %s written, %s total (%s mean)\n",
			flushes, metrics.HumanBytes(flushBytes), flushDur.Round(time.Millisecond),
			(flushDur / time.Duration(flushes)).Round(time.Microsecond))
	}
	if len(levels) > 0 {
		fmt.Fprintln(w, "\ncompactions by input level:")
		fmt.Fprintf(w, "  %-6s %5s %10s %10s %9s %9s %9s %9s %9s %9s\n",
			"level", "n", "in", "out", "dropped", "read", "merge", "upload", "install", "total")
		for _, l := range sortedKeys(levels) {
			a := levels[l]
			fmt.Fprintf(w, "  L%-5d %5d %10s %10s %9d %9s %9s %9s %9s %9s\n",
				l, a.count, metrics.HumanBytes(a.inBytes), metrics.HumanBytes(a.outBytes), a.dropped,
				durStr(a.read), durStr(a.merge), durStr(a.upload), durStr(a.install), durStr(a.total))
		}
	}
	if groups > 0 {
		fmt.Fprintf(w, "\ncommit groups: %d (%.2f batches/group, %d ops, %s), wal time %s (%s mean)\n",
			groups, float64(groupBatch)/float64(groups), groupOps, metrics.HumanBytes(groupBytes),
			groupDur.Round(time.Millisecond), (groupDur / time.Duration(groups)).Round(time.Microsecond))
		if groupSynced > 0 {
			fmt.Fprintf(w, "  synced groups: %d (%d fsyncs amortized by grouping)\n",
				groupSynced, groupAmort)
		}
	}
	if uploads > 0 {
		fmt.Fprintf(w, "\nuploads: %d tables, %s, %s total; %d needed retries (%d retry events)\n",
			uploads, metrics.HumanBytes(uploadBytes), uploadDur.Round(time.Millisecond), retried, retries)
	}
	if retries > 0 || pendingUps > 0 || len(transitions) > 0 {
		fmt.Fprintln(w, "\nrobustness:")
		for _, op := range sortedKeys(retryByOp) {
			fmt.Fprintf(w, "  cloud retries (%s): %d\n", op, retryByOp[op])
		}
		if pendingUps > 0 {
			fmt.Fprintf(w, "  degraded landings (pending-upload): %d\n", pendingUps)
		}
		for _, tr := range sortedKeys(transitions) {
			fmt.Fprintf(w, "  breaker %-20s %d\n", tr, transitions[tr])
		}
	}
	if slowReads > 0 {
		fmt.Fprintf(w, "\nslow reads: %d sampled, %s total (see `mashctl profile -f`)\n",
			slowReads, slowReadDur.Round(time.Microsecond))
	}
	if len(stallCount) > 0 {
		fmt.Fprintln(w, "\nwrite stalls:")
		for _, reason := range sortedKeys(stallCount) {
			fmt.Fprintf(w, "  %-10s %4d stalls, %s blocked\n",
				reason, stallCount[reason], stallDur[reason].Round(time.Millisecond))
		}
	}
	if admitBlocks > 0 || len(evictBlocks) > 0 {
		fmt.Fprintf(w, "\npcache: admitted %d blocks (%s)\n", admitBlocks, metrics.HumanBytes(admitBytes))
		for _, reason := range sortedKeys(evictBlocks) {
			fmt.Fprintf(w, "  evicted %d blocks (%s) via %s\n",
				evictBlocks[reason], metrics.HumanBytes(evictBytes[reason]), reason)
		}
	}

	if top > 0 && len(slow) > 0 {
		sort.SliceStable(slow, func(i, j int) bool { return slow[i].dur > slow[j].dur })
		if len(slow) > top {
			slow = slow[:top]
		}
		fmt.Fprintf(w, "\nslowest %d events:\n", len(slow))
		for _, s := range slow {
			fmt.Fprintf(w, "  %10s  %s  %s\n",
				s.dur.Round(time.Microsecond), s.rec.Time().Format(time.TimeOnly), s.what)
		}
	}
	return nil
}

// sortedKeys returns m's keys in order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	ks := make([]K, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}

func durStr(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	return d.Round(100 * time.Microsecond).String()
}
