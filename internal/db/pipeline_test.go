package db

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rocksmash/internal/event"
	"rocksmash/internal/manifest"
	"rocksmash/internal/storage"
)

// pipelineValue returns a deterministic ~100 B value for key i.
func pipelineValue(i int) string {
	return strings.Repeat(fmt.Sprintf("v%05d-", i), 14)
}

// loadPipelineDir builds a DB directory with nkeys keys spread over several
// L0 tables of the policy's tier and no compactions, so a later reopen can
// drive one big compaction. The load phase is identical for every policy,
// making the reopened trees comparable.
func loadPipelineDir(t *testing.T, p Policy, nkeys int) string {
	t.Helper()
	dir := t.TempDir()
	o := testOptions(p)
	o.L0CompactTrigger = 100 // no compactions during load
	o.L0StallFiles = 300
	d, err := OpenAt(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nkeys; i++ {
		mustPut(t, d, fmt.Sprintf("k%06d", i), pipelineValue(i))
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// reopenPipeline reopens a loaded directory with compaction enabled.
func reopenPipeline(t *testing.T, dir string, p Policy, lat storage.LatencyModel) *DB {
	t.Helper()
	o := testOptions(p)
	o.L0CompactTrigger = 2
	o.CloudLatency = lat
	d, err := OpenAt(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// levelShape captures the logical output of a compaction: per level, each
// file's size and key bounds (file numbers differ across runs only if the
// compaction sequence diverged, so they are included too).
func levelShape(d *DB) string {
	var b strings.Builder
	v := d.engines[0].vs.Current()
	for l := range v.Levels {
		for _, f := range v.Levels[l] {
			fmt.Fprintf(&b, "L%d n%d sz%d %s..%s\n", l, f.Num, f.Size, f.Smallest, f.Largest)
		}
	}
	return b.String()
}

// scanAll returns every key/value visible through a full iterator pass.
func scanAll(t *testing.T, d *DB) []string {
	t.Helper()
	it, err := d.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var out []string
	for it.First(); it.Valid(); it.Next() {
		out = append(out, string(it.Key())+"="+string(it.Value()))
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPipelineEquivalence compacts the same load under PolicyLocalOnly,
// whose inputs are read block by block (the reference: a local table never
// goes through a span reader), and under PolicyCloudOnly, whose inputs are
// read in spans. The logical results must be identical — same table shapes,
// same scan contents — and the cloud run must have read every input block
// through a span, at no more than one GET per four blocks.
func TestPipelineEquivalence(t *testing.T) {
	const nkeys = 3000

	run := func(p Policy) (shape string, scan []string, io storage.Snapshot, m Metrics) {
		dir := loadPipelineDir(t, p, nkeys)
		d := reopenPipeline(t, dir, p, storage.NoLatency())
		defer d.Close()
		if err := d.CompactAll(); err != nil {
			t.Fatal(err)
		}
		if d.cloudSim != nil { // PolicyLocalOnly has no cloud tier
			io = d.cloudSim.Stats().Snapshot() // before the scan: compaction I/O only
		}
		return levelShape(d), scanAll(t, d), io, d.Metrics()
	}

	localShape, localScan, _, localM := run(PolicyLocalOnly)
	cloudShape, cloudScan, cloudIO, cloudM := run(PolicyCloudOnly)

	if len(localScan) != nkeys {
		t.Fatalf("local scan returned %d keys, want %d", len(localScan), nkeys)
	}
	if localShape != cloudShape {
		t.Errorf("level shapes diverged:\nlocal:\n%s\ncloud:\n%s", localShape, cloudShape)
	}
	if len(cloudScan) != len(localScan) {
		t.Fatalf("cloud scan returned %d keys, local %d", len(cloudScan), len(localScan))
	}
	for i := range localScan {
		if localScan[i] != cloudScan[i] {
			t.Fatalf("scan diverged at %d: %q vs %q", i, localScan[i], cloudScan[i])
		}
	}
	if localM.PrefetchSpans != 0 {
		t.Errorf("local run issued %d spans, want 0", localM.PrefetchSpans)
	}
	// Table metadata is local, so a compaction's only cloud reads are input
	// blocks: a GET that is not a span is a block that missed its span.
	if cloudIO.GetOps != cloudM.PrefetchSpans {
		t.Errorf("%d cloud GETs but %d spans: some input block was read outside a span", cloudIO.GetOps, cloudM.PrefetchSpans)
	}
	if cloudM.PrefetchBlocks == 0 || cloudIO.GetOps*4 > cloudM.PrefetchBlocks {
		t.Errorf("GETs not coalesced: %d GETs for %d input blocks", cloudIO.GetOps, cloudM.PrefetchBlocks)
	}
	if localM.CompactBytesIn != cloudM.CompactBytesIn || localM.CompactBytesOut != cloudM.CompactBytesOut {
		t.Errorf("compacted bytes diverged: local in=%d out=%d, cloud in=%d out=%d",
			localM.CompactBytesIn, localM.CompactBytesOut, cloudM.CompactBytesIn, cloudM.CompactBytesOut)
	}
}

// TestCompactionReadsWideSpans compacts two cloud-tier L0 tables of a few MiB
// at the default block size in one job: its CompactionEnd.PrefetchSpans, and
// the cloud GETs it issued, must both be Σ⌈blocks / compactionSpanBlocks⌉ over
// its inputs — one GET per compactionSpanBytes of input, where a scan's
// 16-block spans would take sixteen.
func TestCompactionReadsWideSpans(t *testing.T) {
	o := testOptions(PolicyCloudOnly)
	o.BlockBytes = DefaultOptions().BlockBytes
	o.MemtableBytes = 3 << 20
	o.TargetFileBytes = 16 << 20
	o.LevelBaseBytes = 64 << 20
	o.L0CompactTrigger = 100 // no compactions during the load
	dir := t.TempDir()
	d, err := OpenAt(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40000; i++ {
		mustPut(t, d, fmt.Sprintf("k%06d", i*7919%40000), pipelineValue(i))
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	rec := event.NewRecorder()
	o.L0CompactTrigger = 2
	o.EventListener = rec
	if d, err = OpenAt(dir, o); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	e := d.engines[0]
	width := compactionSpanBlocks(o.BlockBytes)
	var blocks, want int64
	for _, f := range e.vs.Current().Levels[0] {
		h, err := e.tables.get(e, f)
		if err != nil {
			t.Fatal(err)
		}
		hs := h.reader.DataHandles()
		if f.Tier != storage.TierCloud || len(hs) <= width {
			t.Fatalf("input %d: tier %v, %d blocks; want cloud tables wider than one %d-block span", f.Num, f.Tier, len(hs), width)
		}
		blocks += int64(len(hs))
		want += int64((len(hs) + width - 1) / width)
	}
	before := d.cloudSim.Stats().Snapshot()
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}
	gets := d.cloudSim.Stats().Snapshot().GetOps - before.GetOps

	if n := rec.Count(event.TCompactionEnd); n != 1 {
		t.Fatalf("%d compaction jobs, want the one L0→L1 job", n)
	}
	first, _ := rec.First(event.TCompactionEnd)
	end := first.Payload.(event.CompactionEnd)
	if end.PrefetchSpans != want || gets != want {
		t.Errorf("job read %d blocks in %d spans with %d cloud GETs, want %d of each (%d-block spans)",
			blocks, end.PrefetchSpans, gets, want, width)
	}
	if got := d.Metrics().PrefetchBlocks; got != blocks {
		t.Errorf("%d blocks read through spans, want all %d input blocks", got, blocks)
	}
}

// TestCompactionOutageDegradesAndRecovers lets the first compaction output
// upload land and then fails every later cloud sst PUT. Depending on when
// the breaker trips relative to the merge, the compaction either degrades
// (outputs land locally marked pending-upload) or stops with a typed
// ErrCloudUnavailable and no manifest change — both are legal. Once the
// outage clears, the drainer migrates the backlog and retries deferred
// deletes; afterwards the tree holds no pending files, every cloud object
// is referenced by the manifest, every referenced object exists, and a full
// scan sees all the data.
func TestCompactionOutageDegradesAndRecovers(t *testing.T) {
	dir := loadPipelineDir(t, PolicyCloudOnly, 3000)
	d := reopenPipeline(t, dir, PolicyCloudOnly, storage.NoLatency())
	defer d.Close()

	var sstPuts atomic.Int32
	d.cloudSim.SetFailureHook(func(op, name string) error {
		if op == "PUT" && strings.HasPrefix(name, "sst/") && sstPuts.Add(1) > 1 {
			return errors.New("injected persistent PUT outage")
		}
		return nil
	})
	err := d.CompactAll()
	if err != nil && !errors.Is(err, ErrCloudUnavailable) {
		t.Fatalf("compaction during outage failed with untyped error: %v", err)
	}
	if err == nil {
		// The whole compaction ran degraded: it must have left a backlog.
		if n, _ := d.PendingCloudTables(); n == 0 {
			t.Fatal("degraded compaction finished with no pending-upload backlog")
		}
	}

	// Outage clears: the drainer migrates pending tables and deferred
	// deletes remove anything an aborted compaction left behind.
	d.cloudSim.SetFailureHook(nil)
	waitForDrain(t, d, 10*time.Second)
	var cerr error
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if cerr = d.CompactAll(); cerr == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("compaction after outage cleared: %v", cerr)
		}
	}
	waitForDrain(t, d, 10*time.Second)
	waitForDeferredEmpty(t, d, 10*time.Second)

	// Every surviving cloud object is referenced by the current version and
	// every referenced object exists; nothing is still pending.
	referenced := map[string]bool{}
	d.engines[0].vs.Current().AllFiles(func(level int, f *manifest.FileMetadata) {
		if f.PendingCloud {
			t.Errorf("file %d still pending-upload after drain", f.Num)
		}
		if f.Tier == storage.TierCloud {
			referenced[manifest.TableName(f.Num)] = true
		}
	})
	// Replaced inputs are retired in the background after their job ends,
	// so an object the version no longer names may linger for a moment.
	waitFor(t, "no orphaned cloud objects", 10*time.Second, func() bool {
		names, lerr := d.cloudSim.List("sst/")
		if lerr != nil {
			t.Fatal(lerr)
		}
		for _, n := range names {
			if !referenced[n] {
				return false
			}
		}
		return true
	})
	for n := range referenced {
		if _, serr := d.cloudSim.Size(n); serr != nil {
			t.Errorf("referenced object %s missing from cloud: %v", n, serr)
		}
	}
	if scan := scanAll(t, d); len(scan) != 3000 {
		t.Fatalf("scan after recovery returned %d keys, want 3000", len(scan))
	}
}

// TestCompactionPrefetchFailureSurfaces fails every in-flight cloud GET
// while a compaction reads its inputs in spans: the error must surface
// through CompactAll (no hang, no partial manifest edit), and the store must
// work again once reads recover.
func TestCompactionPrefetchFailureSurfaces(t *testing.T) {
	dir := loadPipelineDir(t, PolicyCloudOnly, 3000)
	d := reopenPipeline(t, dir, PolicyCloudOnly, storage.NoLatency())
	defer d.Close()

	d.cloudSim.SetFailureHook(func(op, name string) error {
		if op == "GET" && strings.HasPrefix(name, "sst/") {
			return errors.New("injected read outage")
		}
		return nil
	})
	before := d.debugLevels()
	done := make(chan error, 1)
	go func() { done <- d.CompactAll() }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("compaction with failing reads should error")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("compaction hung on injected read failures")
	}
	if got := d.debugLevels(); got != before {
		t.Errorf("failed compaction changed the tree: %v -> %v", before, got)
	}

	// Recovery: the breaker needs its cooldown to elapse before it admits
	// the probe that closes it, so retry briefly.
	d.cloudSim.SetFailureHook(nil)
	var cerr error
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if cerr = d.CompactAll(); cerr == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("compaction after outage cleared: %v", cerr)
		}
	}
	scan := scanAll(t, d)
	if len(scan) != 3000 {
		t.Fatalf("scan after recovery returned %d keys, want 3000", len(scan))
	}
}

// TestCompactionPipelineSpeedup checks what span reads buy under the default
// cloud latency model: a cloud-tier compaction must finish in less than half
// the time its input blocks would cost at one GET each — the block-by-block
// path's floor, reads alone — with the GETs coalesced accordingly.
func TestCompactionPipelineSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("latency-simulation timing test")
	}
	dir := loadPipelineDir(t, PolicyCloudOnly, 3000)
	lat := storage.DefaultLatency()
	d := reopenPipeline(t, dir, PolicyCloudOnly, lat)
	defer d.Close()
	start := time.Now()
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}
	dur := time.Since(start)
	io, m := d.cloudSim.Stats().Snapshot(), d.Metrics()

	floor := time.Duration(m.PrefetchBlocks) * lat.GetFirstByte
	t.Logf("compaction: %v  gets=%d  input blocks=%d  one-GET-per-block floor=%v", dur, io.GetOps, m.PrefetchBlocks, floor)
	if m.PrefetchBlocks == 0 || dur*2 > floor {
		t.Errorf("span-read compaction not >=2x faster than one GET per block: %v vs floor %v", dur, floor)
	}
	if io.GetOps*4 > m.PrefetchBlocks {
		t.Errorf("GETs not coalesced: %d GETs for %d input blocks", io.GetOps, m.PrefetchBlocks)
	}
}
