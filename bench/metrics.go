package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"rocksmash/internal/db"
	"rocksmash/internal/storage"
)

// catalogue is BENCHMARK.json: the one place a metric's name, unit, direction
// and bound are declared. The program computes values by name and refuses to
// emit a name the catalogue does not have, or to leave one out.
type catalogue struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadCatalogue(path string) (*catalogue, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c catalogue
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// fromMetrics names the per-layer values read from DB.Metrics() or
// RecoveryReport, the store's own registry, instead of the benchmark's meters;
// the result file tags them so a rewrite of that registry is not mistaken for
// a change in behaviour.
var fromMetrics = map[string]bool{
	"db.commit.group_size": true, "bloom.true_negative_ratio": true, "sstable.tables_per_get": true,
	"sstable.blocks_per_get": true, "cache.hit_ratio": true, "pcache.hit_ratio": true, "db.view.hit_ratio": true,
	"db.readahead.spans": true, "db.readahead.blocks_per_span": true, "db.recovery.replay_s": true,
	"db.recovery.wal_mb_per_s": true, "db.recovery.segments_skipped": true,
}

type values map[string]float64

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// share is hits over hits plus misses, from two counters' changes.
func share(hits, misses int64) float64 { return ratio(float64(hits), float64(hits+misses)) }

func us(ns float64) float64 { return ns / 1e3 }

func seconds(ns int64) float64 { return float64(ns) / float64(time.Second) }

// busyNs is the summed duration of every client operation.
func (r *passResult) busyNs() int64 {
	var ns int64
	for _, x := range r.self {
		ns += x
	}
	return ns + r.childNs
}

func (r *passResult) opsPerSecond() float64 { return ratio(float64(r.ops), r.wall.Seconds()) }

// endToEnd computes what a user of the store sees, from an untraced pass.
// latency_us is read at the workload's own percentile (see workload.latencyQ).
func endToEnd(w *workload, r *passResult, setup time.Duration) values {
	ops, latency := r.opsPerSecond(), r.lat[w.primary].quantile(w.latencyQ)
	if w.walOnly {
		// Every cycle replays the same WAL on both cores, so what differs
		// between cycles is the machine, not the work: a neighbour's burst
		// slows some opens by a third. The lower quartile of the opens stands
		// for an undisturbed one, and both figures are taken from it.
		latency, _ = quartiles(r.opens)
		ops = ratio(float64(r.ops)/float64(len(r.opens)), latency/1e9)
	}
	return values{
		"ops_per_s":     ops,
		"latency_us":    us(latency),
		"allocs_per_op": ratio(float64(r.proc.allocs), float64(r.ops)),
		"setup_s":       setup.Seconds(),
	}
}

// perLayer computes the per-layer metrics: costs, amplification, the
// per-kind latencies and the runtime's figures from the untraced pass u;
// spans, request counts and event sums from the traced pass t.
func perLayer(u, t *passResult, kernels values) values {
	v := values{}
	for k, x := range kernels {
		v[k] = x
	}
	ops, tops := float64(u.ops), float64(t.ops)

	// Untraced pass: what the issue lists as end-to-end for the workloads it
	// applies to, kept here because an end-to-end metric must exist, and not
	// be 0, on every workload.
	v["usd_per_mop"] = ratio(u.cloud.usd(storage.DefaultCost()), ops) * 1e6
	v["write_amp"] = ratio(float64(u.local.written()+u.cloud.written()), float64(u.userBytes))
	v["space_amp"] = ratio(float64(u.tableSize), float64(u.liveBytes))
	v["recovery_s"] = median(u.opens) / 1e9
	for _, k := range []struct {
		name string
		kind int
	}{{"read", kindGet}, {"write", kindPut}, {"scan", kindScan}} {
		v[k.name+"_p50_us"] = us(u.lat[k.kind].quantile(0.5))
		v[k.name+"_p99_us"] = us(u.lat[k.kind].quantile(0.99))
	}
	v["client.put.p999_us"] = us(u.lat[kindPut].quantile(0.999))
	v["client.put.max_ms"] = float64(u.lat[kindPut].max) / 1e6
	v["proc.cpu_us_per_op"] = ratio(us(float64(u.cpu)), ops)
	v["proc.alloc_kb_per_op"] = ratio(float64(u.proc.allocBytes)/1024, ops)
	v["proc.gc_pause_ms"] = float64(u.proc.gcPause) / 1e6
	v["proc.heap_peak_mb"] = float64(u.proc.heapPeak) / (1 << 20)
	v["trace.overhead_pct"] = 100 * (1 - ratio(t.opsPerSecond(), u.opsPerSecond()))
	v["trace.cloud_get_parented_ratio"] = t.parented
	v["client.ops"] = tops
	v["client.busy_s"] = seconds(t.busyNs())

	// Traced pass, db foreground: self time of the client operations.
	v["db.put.self_us"] = ratio(us(float64(t.self[clientOps[kindPut]])), float64(t.lat[kindPut].n))
	v["db.get.self_us"] = ratio(us(float64(t.self[clientOps[kindGet]])), float64(t.lat[kindGet].n))
	v["db.iter.self_us_per_key"] = ratio(us(float64(t.self[clientOps[kindScan]])), float64(t.scanned))

	// db background, from the event listener.
	e := t.events
	v["db.stall.count"] = float64(e.stalls.Load())
	v["db.stall.memtable_s"] = seconds(e.stallMemNs.Load())
	v["db.stall.l0_s"] = seconds(e.stallL0Ns.Load())
	v["db.flush.count"] = float64(e.flushes.Load())
	v["db.flush.busy_s"] = seconds(e.flushNs.Load())
	v["db.flush.bytes"] = float64(e.flushBytes.Load())
	v["db.compaction.count"] = float64(e.compactions.Load())
	v["db.compaction.busy_s"] = seconds(e.compactNs.Load())
	v["db.compaction.read_s"] = seconds(e.readNs.Load())
	v["db.compaction.merge_s"] = seconds(e.mergeNs.Load())
	v["db.compaction.upload_s"] = seconds(e.uploadNs.Load())
	v["db.compaction.install_s"] = seconds(e.installNs.Load())
	v["db.compaction.bytes_in"] = float64(e.compactIn.Load())
	v["db.compaction.bytes_out"] = float64(e.compactOut.Load())
	v["db.bg.drain_s"] = t.drain.Seconds()
	v["db.bg.debt_bytes_end"] = float64(t.debtEnd)

	// The store's own registry, as a difference over the measured phase.
	a, b := t.after, t.before
	v["db.commit.group_size"] = ratio(float64(a.CommitGroupBatches-b.CommitGroupBatches), float64(a.CommitGroups-b.CommitGroups))
	v["db.view.hit_ratio"] = share(a.ScanViewHits-b.ScanViewHits, a.ScanViewMisses-b.ScanViewMisses)
	v["db.readahead.spans"] = float64(a.ReadaheadSpans - b.ReadaheadSpans)
	v["db.readahead.blocks_per_span"] = ratio(float64(a.ReadaheadBlocks-b.ReadaheadBlocks), float64(a.ReadaheadSpans-b.ReadaheadSpans))
	ra, rb := a.ReadAmp, b.ReadAmp
	gets := float64(ra.ProfiledGets - rb.ProfiledGets)
	v["bloom.true_negative_ratio"] = ratio(float64(ra.BloomNegative-rb.BloomNegative), float64(ra.BloomChecked-rb.BloomChecked))
	v["sstable.tables_per_get"] = ratio(float64(ra.Tables-rb.Tables), gets)
	v["sstable.blocks_per_get"] = ratio(float64(ra.BlocksTotal()-rb.BlocksTotal()), gets)
	v["cache.hit_ratio"] = share(a.BlockCacheHits-b.BlockCacheHits, a.BlockCacheMisses-b.BlockCacheMisses)
	v["pcache.hit_ratio"] = share(a.PCacheHits-b.PCacheHits, a.PCacheMisses-b.PCacheMisses)
	v["db.recovery.replay_s"], v["db.recovery.wal_mb_per_s"], v["db.recovery.segments_skipped"] = recoveryFigures(t.recovery)

	// wal and storage, from the benchmark's meters.
	l, c := t.local, t.cloud
	v["wal.bytes_per_user_byte"] = ratio(float64(l.writeBytes[classWAL].Load()+c.writeBytes[classWAL].Load()), float64(t.userBytes))
	v["wal.sync.count"] = float64(l.ops[opSync][classWAL].Load())
	cgets := float64(c.count(opRead))
	v["storage.cloud.get.count_per_kop"] = ratio(cgets, tops) * 1e3
	v["storage.cloud.get.busy_s"] = seconds(c.busyNs[opRead].Load())
	v["storage.cloud.get.kb_per_req"] = ratio(float64(c.readBytes.Load())/1024, cgets)
	v["storage.cloud.read_kb_per_op"] = ratio(float64(c.readBytes.Load())/1024, tops)
	v["storage.cloud.put.count_per_kop"] = ratio(float64(c.count(opPut)), tops) * 1e3
	v["storage.cloud.put.busy_s"] = seconds(c.busyNs[opPut].Load())
	v["storage.cloud.write_kb_per_op"] = ratio(float64(c.written())/1024, tops)
	v["storage.cloud.meta.count_per_kop"] = ratio(float64(c.count(opDelete)+c.count(opList)), tops) * 1e3
	v["storage.local.read.count_per_kop"] = ratio(float64(l.count(opRead)), tops) * 1e3
	v["storage.local.read.busy_s"] = seconds(l.busyNs[opRead].Load())
	v["storage.local.write_kb_per_op"] = ratio(float64(l.written())/1024, tops)
	v["storage.local.sync.count"] = float64(l.count(opSync))
	v["storage.local.sync.busy_s"] = seconds(l.busyNs[opSync].Load())
	return v
}

// recoveryFigures condenses the recover workload's reports: median replay
// time, WAL megabytes replayed per second of it, median segments skipped.
func recoveryFigures(reps []db.RecoveryReport) (replayS, mbPerS, skipped float64) {
	if len(reps) == 0 {
		return 0, 0, 0
	}
	var dur, skip []float64
	var bytes, total float64
	for _, r := range reps {
		dur = append(dur, r.Duration.Seconds())
		skip = append(skip, float64(r.WALSkipped))
		bytes += float64(r.WALBytes)
		total += r.Duration.Seconds()
	}
	return median(dur), ratio(bytes/(1<<20), total), median(skip)
}
