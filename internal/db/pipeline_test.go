package db

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rocksmash/internal/manifest"
	"rocksmash/internal/storage"
)

// pipelineValue returns a deterministic ~100 B value for key i.
func pipelineValue(i int) string {
	return strings.Repeat(fmt.Sprintf("v%05d-", i), 14)
}

// loadPipelineDir builds a DB directory with nkeys keys spread over several
// cloud-tier L0 tables and no compactions, so a later reopen can drive one
// big compaction under controlled pipeline knobs. The load phase is
// identical for every variant, making the reopened trees comparable.
func loadPipelineDir(t *testing.T, nkeys int) string {
	t.Helper()
	dir := t.TempDir()
	o := testOptions(PolicyCloudOnly)
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

// reopenPipeline reopens a loaded directory with compaction enabled and the
// given pipeline knobs.
func reopenPipeline(t *testing.T, dir string, lat storage.LatencyModel, prefetch, uploads, readahead int) *DB {
	t.Helper()
	o := testOptions(PolicyCloudOnly)
	o.L0CompactTrigger = 2
	o.CloudLatency = lat
	o.CompactionPrefetchBlocks = prefetch
	o.UploadParallelism = uploads
	o.IteratorReadaheadBlocks = readahead
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

// TestPipelineEquivalence drives the same compaction work serially and with
// every pipeline knob enabled, and requires identical logical results —
// same table shapes, same scan contents — with strictly fewer cloud GETs on
// the pipelined side.
func TestPipelineEquivalence(t *testing.T) {
	const nkeys = 3000

	run := func(prefetch, uploads, readahead int) (shape string, scan []string, io storage.Snapshot, m Metrics) {
		dir := loadPipelineDir(t, nkeys)
		d := reopenPipeline(t, dir, storage.NoLatency(), prefetch, uploads, readahead)
		defer d.Close()
		if err := d.CompactAll(); err != nil {
			t.Fatal(err)
		}
		io = d.cloudSim.Stats().Snapshot() // before the scan: compaction I/O only
		return levelShape(d), scanAll(t, d), io, d.Metrics()
	}

	serialShape, serialScan, serialIO, serialM := run(0, 1, 0)
	pipeShape, pipeScan, pipeIO, pipeM := run(16, 4, 0)

	if len(serialScan) != nkeys {
		t.Fatalf("serial scan returned %d keys, want %d", len(serialScan), nkeys)
	}
	if serialShape != pipeShape {
		t.Errorf("level shapes diverged:\nserial:\n%s\npipelined:\n%s", serialShape, pipeShape)
	}
	for i := range serialScan {
		if serialScan[i] != pipeScan[i] {
			t.Fatalf("scan diverged at %d: %q vs %q", i, serialScan[i], pipeScan[i])
		}
	}
	if serialM.PrefetchSpans != 0 {
		t.Errorf("serial run issued %d prefetch spans, want 0", serialM.PrefetchSpans)
	}
	if pipeM.PrefetchSpans == 0 {
		t.Error("pipelined run issued no prefetch spans")
	}
	if pipeIO.GetOps*4 > serialIO.GetOps {
		t.Errorf("prefetch did not coalesce GETs: serial=%d pipelined=%d", serialIO.GetOps, pipeIO.GetOps)
	}
	if serialIO.PutOps != pipeIO.PutOps {
		t.Errorf("PutOps diverged: serial=%d pipelined=%d", serialIO.PutOps, pipeIO.PutOps)
	}
	if serialIO.BytesWrite != pipeIO.BytesWrite {
		t.Errorf("uploaded bytes diverged: serial=%d pipelined=%d", serialIO.BytesWrite, pipeIO.BytesWrite)
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
	dir := loadPipelineDir(t, 3000)
	d := reopenPipeline(t, dir, storage.NoLatency(), 0, 2, 0)
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
	names, lerr := d.cloudSim.List("sst/")
	if lerr != nil {
		t.Fatal(lerr)
	}
	for _, n := range names {
		if !referenced[n] {
			t.Errorf("orphaned cloud object left behind: %s", n)
		}
	}
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
// while a prefetching compaction runs: the error must surface through
// CompactAll (no hang, no partial manifest edit), and the store must work
// again once reads recover.
func TestCompactionPrefetchFailureSurfaces(t *testing.T) {
	dir := loadPipelineDir(t, 3000)
	d := reopenPipeline(t, dir, storage.NoLatency(), 8, 2, 0)
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

// TestCompactionPipelineSpeedup reproduces the headline claim: under the
// default cloud latency model, a cloud-tier compaction with prefetch and
// overlapped uploads runs at least 2x faster than the serial path, with
// GETs coalesced proportionally.
func TestCompactionPipelineSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("latency-simulation timing test")
	}
	const nkeys = 3000

	run := func(prefetch, uploads int) (time.Duration, storage.Snapshot) {
		dir := loadPipelineDir(t, nkeys)
		d := reopenPipeline(t, dir, storage.DefaultLatency(), prefetch, uploads, 0)
		defer d.Close()
		start := time.Now()
		if err := d.CompactAll(); err != nil {
			t.Fatal(err)
		}
		return time.Since(start), d.cloudSim.Stats().Snapshot()
	}

	serialDur, serialIO := run(0, 1)
	pipeDur, pipeIO := run(16, 4)

	t.Logf("serial:    %v  gets=%d", serialDur, serialIO.GetOps)
	t.Logf("pipelined: %v  gets=%d", pipeDur, pipeIO.GetOps)
	if pipeDur*2 > serialDur {
		t.Errorf("pipelined compaction not >=2x faster: serial=%v pipelined=%v", serialDur, pipeDur)
	}
	if pipeIO.GetOps*4 > serialIO.GetOps {
		t.Errorf("GETs not coalesced: serial=%d pipelined=%d", serialIO.GetOps, pipeIO.GetOps)
	}
}

// TestIteratorReadaheadColdScan scans a cloud-resident tree cold with and
// without readahead: contents must match exactly and readahead must cut the
// number of cloud GETs.
func TestIteratorReadaheadColdScan(t *testing.T) {
	const nkeys = 3000

	run := func(readahead int) ([]string, storage.Snapshot, Metrics) {
		dir := loadPipelineDir(t, nkeys)
		d := reopenPipeline(t, dir, storage.NoLatency(), 0, 1, readahead)
		defer d.Close()
		if err := d.CompactAll(); err != nil {
			t.Fatal(err)
		}
		base := d.cloudSim.Stats().Snapshot()
		scan := scanAll(t, d)
		io := d.cloudSim.Stats().Snapshot()
		io.GetOps -= base.GetOps
		return scan, io, d.Metrics()
	}

	plainScan, plainIO, plainM := run(0)
	raScan, raIO, raM := run(16)

	if len(plainScan) != nkeys {
		t.Fatalf("scan returned %d keys, want %d", len(plainScan), nkeys)
	}
	for i := range plainScan {
		if plainScan[i] != raScan[i] {
			t.Fatalf("scan diverged at %d: %q vs %q", i, plainScan[i], raScan[i])
		}
	}
	if plainM.ReadaheadSpans != 0 {
		t.Errorf("readahead-off run issued %d spans", plainM.ReadaheadSpans)
	}
	if raM.ReadaheadSpans == 0 {
		t.Error("readahead-on run issued no spans")
	}
	if raIO.GetOps*2 > plainIO.GetOps {
		t.Errorf("readahead did not cut scan GETs: plain=%d readahead=%d", plainIO.GetOps, raIO.GetOps)
	}
}
