package db

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rocksmash/internal/manifest"
	"rocksmash/internal/storage"
	"rocksmash/internal/wal"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// localTableNums returns the file numbers of every local-tier table in the
// current version, smallest level first.
func localTableNums(d *DB) []uint64 {
	var nums []uint64
	d.engines[0].vs.Current().AllFiles(func(level int, f *manifest.FileMetadata) {
		if f.Tier == storage.TierLocal {
			nums = append(nums, f.Num)
		}
	})
	return nums
}

// corruptObject flips one byte of a stored object at the given offset.
func corruptObject(t *testing.T, be storage.Backend, name string, off int) {
	t.Helper()
	data, err := be.ReadAll(name)
	if err != nil {
		t.Fatalf("reading %s to corrupt it: %v", name, err)
	}
	if off >= len(data) {
		t.Fatalf("corrupt offset %d beyond %s (%d bytes)", off, name, len(data))
	}
	data[off] ^= 0xFF
	if err := storage.WriteObject(be, name, data); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptLocalTableRepairedFromMirror damages a data block of a
// local-tier SSTable that has a lazy cloud mirror, and asserts the read
// path detects the bad checksum, repairs the file in place from the mirror,
// and serves every read byte-correct — the client never sees the damage.
func TestCorruptLocalTableRepairedFromMirror(t *testing.T) {
	o := testOptions(PolicyMash)
	o.MirrorLocalLevels = true
	dir := t.TempDir()
	d, err := OpenAt(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	const n = 300
	for i := 0; i < n; i++ {
		mustPut(t, d, fmt.Sprintf("k%05d", i), pipelineValue(i))
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	locals := localTableNums(d)
	if len(locals) == 0 {
		t.Fatal("no local-tier tables after flush")
	}
	waitFor(t, "lazy mirror", 10*time.Second, func() bool {
		return d.Metrics().MirroredTables >= int64(len(locals))
	})

	// Flip a byte in the first data block, then force a reopen so the next
	// read goes back to the damaged file.
	num := locals[0]
	corruptObject(t, d.local, manifest.TableName(num), 64)
	d.tables.evict(num)

	for i := 0; i < n; i++ {
		mustGet(t, d, fmt.Sprintf("k%05d", i), pipelineValue(i))
	}
	m := d.Metrics()
	if m.CorruptionsDetected == 0 || m.CorruptionsRepaired == 0 {
		t.Fatalf("corruption not detected/repaired: detected=%d repaired=%d",
			m.CorruptionsDetected, m.CorruptionsRepaired)
	}
	if m.CorruptionsUnrepaired != 0 {
		t.Fatalf("CorruptionsUnrepaired = %d, want 0 (a mirror exists)", m.CorruptionsUnrepaired)
	}
	if m.CorruptionsDetected != m.CorruptionsRepaired+m.CorruptionsUnrepaired {
		t.Fatalf("counters do not reconcile: %d != %d + %d",
			m.CorruptionsDetected, m.CorruptionsRepaired, m.CorruptionsUnrepaired)
	}
	// The on-disk file was rewritten from the mirror: it verifies clean.
	data, err := d.local.ReadAll(manifest.TableName(num))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.engines[0].verifyTableBytes(data, num); err != nil {
		t.Fatalf("local file still damaged after repair: %v", err)
	}
}

// TestCorruptLocalTableNoCloudSourceQuarantines damages a local table in a
// store with no cloud tier at all: the read must surface a typed error
// wrapping storage.ErrCorruption — never silently wrong bytes — and the
// table is quarantined so later reads fail fast.
func TestCorruptLocalTableNoCloudSourceQuarantines(t *testing.T) {
	d, _ := openTest(t, PolicyLocalOnly)
	defer d.Close()

	const n = 300
	for i := 0; i < n; i++ {
		mustPut(t, d, fmt.Sprintf("k%05d", i), pipelineValue(i))
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	locals := localTableNums(d)
	if len(locals) == 0 {
		t.Fatal("no local tables after flush")
	}
	num := locals[0]
	corruptObject(t, d.local, manifest.TableName(num), 64)
	d.tables.evict(num)

	// The first key lives in the first data block — the damaged one.
	got, err := d.Get([]byte("k00000"))
	if !errors.Is(err, storage.ErrCorruption) {
		t.Fatalf("Get on damaged block: got (%q, %v), want ErrCorruption", got, err)
	}
	// Fail-fast on the quarantined table: same typed error, no re-probe.
	if _, err := d.Get([]byte("k00000")); !errors.Is(err, storage.ErrCorruption) {
		t.Fatalf("quarantined read err = %v, want ErrCorruption", err)
	}
	m := d.Metrics()
	if m.CorruptionsUnrepaired == 0 || m.QuarantinedTables != 1 {
		t.Fatalf("unrepaired=%d quarantined=%d, want >0 and 1",
			m.CorruptionsUnrepaired, m.QuarantinedTables)
	}
	if m.CorruptionsDetected != m.CorruptionsRepaired+m.CorruptionsUnrepaired {
		t.Fatalf("counters do not reconcile: %d != %d + %d",
			m.CorruptionsDetected, m.CorruptionsRepaired, m.CorruptionsUnrepaired)
	}
	// Damage in one block must not poison the rest of the table: the last
	// key lives blocks away and still reads correctly.
	mustGet(t, d, fmt.Sprintf("k%05d", n-1), pipelineValue(n-1))
}

// TestCompactionRepairsCorruptLocalInput damages a data block of a local L0
// table and compacts it. A compaction reads its local inputs in spans, not
// block by block: with a cloud mirror the damaged span is repaired from it
// and the merge goes on, every key reading back right and no span counted
// as a cloud GET; with no cloud tier the compaction fails with
// ErrCorruption, its sink leaves no table behind, and the store still
// serves every key outside the damaged block.
func TestCompactionRepairsCorruptLocalInput(t *testing.T) {
	const n = 300
	key := func(i int) string { return fmt.Sprintf("k%05d", i) }
	// load writes two L0 tables, keys [0,n) and then [n,2n), which wait
	// there for CompactAll, and damages the first one's first data block.
	load := func(t *testing.T, d *DB, mirrored bool) {
		e := d.engines[0]
		e.compactionMu.Lock()
		e.paused++
		e.compactionMu.Unlock()
		for i := 0; i < 2*n; i++ {
			mustPut(t, d, key(i), pipelineValue(i))
			if i == n-1 || i == 2*n-1 {
				if err := d.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		l0 := e.vs.Current().Levels[0]
		if len(l0) != 2 {
			t.Fatalf("%d L0 tables, want 2", len(l0))
		}
		if mirrored {
			waitFor(t, "lazy mirror", 10*time.Second, func() bool { return d.Metrics().MirroredTables >= 2 })
		}
		for _, f := range l0 {
			if string(f.Smallest[:len(f.Smallest)-8]) == key(0) {
				corruptObject(t, d.local, manifest.TableName(f.Num), 64)
				d.tables.evict(f.Num)
				return
			}
		}
		t.Fatal("no L0 table starts at the first key")
	}

	t.Run("mirror", func(t *testing.T) {
		o := testOptions(PolicyMash)
		o.MirrorLocalLevels = true
		d, err := OpenAt(t.TempDir(), o)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		load(t, d, true)
		before := d.Metrics()
		if err := d.CompactAll(); err != nil {
			t.Fatalf("compaction over a repairable input: %v", err)
		}
		m := d.Metrics()
		if m.CorruptionsRepaired == before.CorruptionsRepaired || m.CorruptionsUnrepaired != 0 {
			t.Fatalf("compaction repaired %d, left %d unrepaired; want the damaged input repaired",
				m.CorruptionsRepaired-before.CorruptionsRepaired, m.CorruptionsUnrepaired)
		}
		if m.PrefetchSpans != before.PrefetchSpans || m.PrefetchBlocks != before.PrefetchBlocks {
			t.Errorf("local inputs counted as cloud GETs: %d spans, %d blocks",
				m.PrefetchSpans-before.PrefetchSpans, m.PrefetchBlocks-before.PrefetchBlocks)
		}
		if l0 := d.engines[0].vs.Current().Levels[0]; len(l0) != 0 {
			t.Fatalf("%d L0 tables left after CompactAll", len(l0))
		}
		for i := 0; i < 2*n; i++ {
			mustGet(t, d, key(i), pipelineValue(i))
		}
	})

	t.Run("local-only", func(t *testing.T) {
		d, _ := openTest(t, PolicyLocalOnly)
		defer d.Close()
		load(t, d, false)
		if err := d.CompactAll(); !errors.Is(err, storage.ErrCorruption) {
			t.Fatalf("compaction over an unrepairable input: err = %v, want ErrCorruption", err)
		}
		checkTableObjects(t, d, "after the failed compaction")
		if l0 := d.engines[0].vs.Current().Levels[0]; len(l0) != 2 {
			t.Fatalf("%d L0 tables after the failed compaction, want its 2 inputs", len(l0))
		}
		for i := n - 1; i < 2*n; i++ {
			mustGet(t, d, key(i), pipelineValue(i))
		}
		if _, err := d.Get([]byte(key(0))); !errors.Is(err, storage.ErrCorruption) {
			t.Fatalf("Get in the damaged block: err = %v, want ErrCorruption", err)
		}
	})
}

// TestCorruptSidecarRepairedTransparently damages every cloud table's
// metadata sidecar — a flipped bit, or a write torn at 0 B, 5 B, mid-tail or
// one byte short of the footer, as a crash may leave the unsynced sidecar —
// and asserts each table opens from a rebuilt sidecar and every Get answers
// correctly. A sidecar too short to hold its tail offset reads as missing;
// any other damage fails the open as corrupt and is repaired.
func TestCorruptSidecarRepairedTransparently(t *testing.T) {
	torn := func(size func(n int) int) func(*testing.T, *DB, string) {
		return func(t *testing.T, d *DB, name string) {
			data, err := d.local.ReadAll(name)
			if err != nil {
				t.Fatal(err)
			}
			if err := storage.WriteObject(d.local, name, data[:size(len(data))]); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		name    string
		damage  func(t *testing.T, d *DB, name string)
		corrupt bool // the open detects and repairs it, rather than finding no sidecar
	}{
		{"bit flip", func(t *testing.T, d *DB, name string) { corruptObject(t, d.local, name, 12) }, true},
		{"torn at 0 B", torn(func(int) int { return 0 }), false},
		{"torn at 5 B", torn(func(int) int { return 5 }), false},
		{"torn mid-tail", torn(func(n int) int { return 8 + (n-8)/2 }), true},
		{"torn short of the footer", torn(func(n int) int { return n - 1 }), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, _ := openTest(t, PolicyCloudOnly)
			defer d.Close()

			const n = 300
			for i := 0; i < n; i++ {
				mustPut(t, d, fmt.Sprintf("k%05d", i), pipelineValue(i))
			}
			if err := d.Flush(); err != nil {
				t.Fatal(err)
			}
			names, err := d.local.List("meta/")
			if err != nil || len(names) == 0 {
				t.Fatalf("no sidecars written: %v %v", names, err)
			}
			for _, name := range names {
				tc.damage(t, d, name)
			}
			d.engines[0].vs.Current().AllFiles(func(level int, f *manifest.FileMetadata) { d.tables.evict(f.Num) })

			for i := 0; i < n; i++ {
				mustGet(t, d, fmt.Sprintf("k%05d", i), pipelineValue(i))
			}
			m := d.Metrics()
			if tc.corrupt != (m.CorruptionsDetected > 0) || tc.corrupt != (m.CorruptionsRepaired > 0) || m.CorruptionsUnrepaired != 0 {
				t.Fatalf("sidecar corruption counters: detected=%d repaired=%d unrepaired=%d",
					m.CorruptionsDetected, m.CorruptionsRepaired, m.CorruptionsUnrepaired)
			}
			// The rebuilt sidecars verify clean.
			d.engines[0].vs.Current().AllFiles(func(level int, f *manifest.FileMetadata) {
				if f.Tier != storage.TierCloud {
					return
				}
				if ok, present := d.engines[0].verifySidecar(f.Num); !present || !ok {
					t.Errorf("sidecar for table %d not rebuilt clean (present=%v ok=%v)", f.Num, present, ok)
				}
			})
		})
	}
}

// TestScrubRepairsOfflineDamage damages a mirrored local table while no
// reads are running — a flipped bit, or a file the device will not read —
// and lets an on-demand Scrub find, report and repair it.
func TestScrubRepairsOfflineDamage(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, d *DB, lf *storage.Faulty, table string)
	}{
		{"bit flip", func(t *testing.T, d *DB, _ *storage.Faulty, table string) {
			corruptObject(t, d.local, table, 64)
		}},
		{"unreadable", func(_ *testing.T, _ *DB, lf *storage.Faulty, table string) {
			lf.SetHook(func(op, name string) error {
				if op == "GET" && name == table {
					return errors.New("injected EIO")
				}
				return nil
			})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := testOptions(PolicyMash)
			o.MirrorLocalLevels = true
			d, lf, _, err := OpenAtChaosLocal(t.TempDir(), o, storage.FaultConfig{}, storage.FaultConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()

			for i := 0; i < 300; i++ {
				mustPut(t, d, fmt.Sprintf("k%05d", i), pipelineValue(i))
			}
			if err := d.Flush(); err != nil {
				t.Fatal(err)
			}
			locals := localTableNums(d)
			if len(locals) == 0 {
				t.Fatal("no local tables after flush")
			}
			waitFor(t, "lazy mirror", 10*time.Second, func() bool {
				return d.Metrics().MirroredTables >= int64(len(locals))
			})
			tc.damage(t, d, lf, manifest.TableName(locals[0]))

			rep := d.Scrub()
			if rep.Tables == 0 || rep.Corrupt != 1 || rep.Repaired != 1 || rep.Unrepaired != 0 {
				t.Fatalf("scrub report = %+v, want 1 corrupt table repaired", rep)
			}
			if rep.Checked != rep.Tables+rep.Sidecars+rep.WALSegments {
				t.Fatalf("report breakdown does not sum: %+v", rep)
			}
			lf.SetHook(nil)
			// A second pass over the healed store finds nothing.
			if rep2 := d.Scrub(); rep2.Corrupt != 0 {
				t.Fatalf("second scrub still found %d corrupt artifacts", rep2.Corrupt)
			}
			if got := d.Metrics().ScrubPasses; got != 2 {
				t.Fatalf("ScrubPasses = %d, want 2", got)
			}
			for i := 0; i < 300; i++ {
				mustGet(t, d, fmt.Sprintf("k%05d", i), pipelineValue(i))
			}
		})
	}
}

// TestScrubRacingCompaction scrubs in a loop while the data set is
// overwritten and compacted away under it: every table a pass looks at is
// pinned in place, so no pass may report damage.
func TestScrubRacingCompaction(t *testing.T) {
	d, _ := openTest(t, PolicyMash)
	defer d.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if rep := d.Scrub(); rep.Corrupt != 0 {
				t.Errorf("scrub racing compactions reported damage: %+v", rep)
				return
			}
		}
	}()
	var ref map[string]string
	for round := 0; round < 4; round++ {
		ref = fillKeys(t, d, 1500, 100)
		if err := d.CompactAll(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if m := d.Metrics(); m.CorruptionsDetected != 0 || m.ScrubPasses == 0 {
		t.Fatalf("CorruptionsDetected = %d over %d scrub passes with nothing injected",
			m.CorruptionsDetected, m.ScrubPasses)
	}
	for k, v := range ref {
		mustGet(t, d, k, v)
	}
}

// TestWALSegmentCorruptionScrubRestore damages a sealed WAL segment whose
// clean copy lives on the cloud backup and asserts the store's scrub pass
// restores it and counts the detection.
func TestWALSegmentCorruptionScrubRestore(t *testing.T) {
	o := testOptions(PolicyMash)
	o.WALCloudBackup = true
	dir := t.TempDir()
	d, err := OpenAt(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	for i := 0; i < 50; i++ {
		mustPut(t, d, fmt.Sprintf("k%05d", i), pipelineValue(i))
	}
	// Seal the active segment (copying it to the backup tier) and keep
	// writing into its successor so the sealed one stays referenced.
	if err := d.engines[0].wal.Roll(); err != nil {
		t.Fatal(err)
	}
	mustPut(t, d, "after-roll", "v")

	segs, err := d.local.List("wal/")
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments: %v %v", segs, err)
	}
	// Damage a mid-stream record of the sealed (oldest) segment: offset 7
	// is the first record's payload, past the crc/len/type header.
	corruptObject(t, d.local, segs[0], 7)

	rep := d.Scrub()
	if rep.WALSegments == 0 || rep.Corrupt != 1 || rep.Repaired != 1 {
		t.Fatalf("scrub report = %+v, want 1 corrupt wal segment restored", rep)
	}
	m := d.Metrics()
	if m.CorruptionsDetected == 0 || m.CorruptionsDetected != m.CorruptionsRepaired+m.CorruptionsUnrepaired {
		t.Fatalf("wal corruption counters do not reconcile: %+v", m)
	}
}

// TestManifestCorruptionTypedErrorOnReopen damages the MANIFEST mid-stream
// and asserts reopen refuses with the WAL record reader's typed corruption
// error instead of silently opening an empty or partial store.
func TestManifestCorruptionTypedErrorOnReopen(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenAt(dir, testOptions(PolicyCloudOnly))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		mustPut(t, d, fmt.Sprintf("k%05d", i), pipelineValue(i))
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	local, err := storage.NewLocal(filepath.Join(dir, "local"))
	if err != nil {
		t.Fatal(err)
	}
	cur, err := local.ReadAll("CURRENT")
	if err != nil {
		t.Fatal(err)
	}
	// Offset 10 sits inside the first record's payload (the snapshot edit):
	// mid-stream damage, not a tolerable torn tail.
	corruptObject(t, local, string(cur), 10)

	if _, err := OpenAt(dir, testOptions(PolicyCloudOnly)); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("reopen with corrupt MANIFEST err = %v, want wal.ErrCorrupt", err)
	}
}

// TestManifestRotationFailureKeepsStore fails every attempt to create a new
// manifest once the store is open and writes past the point where the log
// rotates: the flushes whose edits trigger the rotation must succeed, Close
// must return cleanly, with no install panicking on a manifest log the
// failed rotation closed, and a reopen must read every key.
func TestManifestRotationFailureKeepsStore(t *testing.T) {
	dir := t.TempDir()
	o := testOptions(PolicyLocalOnly)
	d, lf, _, err := OpenAtChaosLocal(dir, o, storage.FaultConfig{}, storage.FaultConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cur, err := lf.ReadAll("CURRENT")
	if err != nil {
		t.Fatal(err)
	}
	// Appends to the open log are PUTs of its name too; only a new one fails.
	var creates atomic.Int64
	lf.SetHook(func(op, name string) error {
		if op == "PUT" && strings.HasPrefix(name, "MANIFEST-") && name != string(cur) {
			creates.Add(1)
			return errors.New("injected ENOSPC")
		}
		return nil
	})
	// One edit per flush plus the compactions they trigger: the log reaches
	// its 1000th edit after some 700 flushes.
	n := 0
	for creates.Load() < 3 {
		if n == 2000 {
			t.Fatal("no manifest rotation after 2000 flushes")
		}
		mustPut(t, d, fmt.Sprintf("k%05d", n), pipelineValue(n))
		n++
		if err := d.Flush(); err != nil {
			t.Errorf("flush %d with rotation failing: %v", n-1, err)
			break
		}
	}
	if err := d.Close(); err != nil {
		t.Fatalf("close after failed rotations: %v", err)
	}

	d, err = OpenAt(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < n; i++ {
		mustGet(t, d, fmt.Sprintf("k%05d", i), pipelineValue(i))
	}
}

// TestCurrentCorruptionFailsReopen scribbles over CURRENT and asserts the
// reopen fails loudly rather than initializing a fresh, empty store on top
// of existing data.
func TestCurrentCorruptionFailsReopen(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenAt(dir, testOptions(PolicyCloudOnly))
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, d, "k", "v")
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	local, err := storage.NewLocal(filepath.Join(dir, "local"))
	if err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteObject(local, "CURRENT", []byte("MANIFEST-garbage")); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenAt(dir, testOptions(PolicyCloudOnly)); err == nil {
		t.Fatal("reopen with corrupt CURRENT succeeded; data silently dropped")
	}
}

// TestLocalDegradedFlushAndDrainBack is the local twin of the cloud-outage
// degraded test: the local device fills mid-run, every write must keep
// succeeding (flushes land cloud-direct behind the open local breaker, WAL
// segments spill to the cloud backup), and once space returns the drainer
// migrates the misplaced tables back to the local tier.
func TestLocalDegradedFlushAndDrainBack(t *testing.T) {
	o := testOptions(PolicyMash)
	o.WALCloudBackup = true
	// The check after the disk-full phase must find the local breaker still
	// open: a cooldown shorter than that phase lets the drainer's probe turn
	// it half-open first.
	o.LocalBreaker.Cooldown = time.Second
	d, lf, _, err := OpenAtChaosLocal(t.TempDir(), o,
		storage.FaultConfig{BudgetExemptPrefixes: []string{"MANIFEST", "CURRENT"}},
		storage.FaultConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	const batches, perBatch = 4, 60
	for i := 0; i < perBatch; i++ {
		mustPut(t, d, fmt.Sprintf("k%02d-%04d", 0, i), pipelineValue(i))
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}

	// The disk fills: table and WAL writes get ENOSPC, manifest appends
	// draw from the reserved metadata headroom.
	lf.SetWriteBudget(lf.WrittenBytes() + 2<<10)
	for b := 1; b < batches; b++ {
		for i := 0; i < perBatch; i++ {
			mustPut(t, d, fmt.Sprintf("k%02d-%04d", b, i), pipelineValue(i))
		}
		if err := d.Flush(); err != nil {
			t.Fatalf("flush %d during disk-full must degrade, not fail: %v", b, err)
		}
	}
	m := d.Metrics()
	if m.LocalBreakerState != "open" {
		t.Fatalf("local breaker state = %q during disk-full, want open", m.LocalBreakerState)
	}
	if m.LocalBreakerTrips == 0 || m.LocalDegradedTables == 0 || m.MisplacedTables == 0 {
		t.Fatalf("degraded landings missing: trips=%d cloud-direct=%d misplaced=%d",
			m.LocalBreakerTrips, m.LocalDegradedTables, m.MisplacedTables)
	}
	if m.WALSpills == 0 {
		t.Fatal("WAL segments did not spill to the cloud backup")
	}
	// Every acked key reads back mid-degradation.
	for b := 0; b < batches; b++ {
		mustGet(t, d, fmt.Sprintf("k%02d-%04d", b, 0), pipelineValue(0))
		mustGet(t, d, fmt.Sprintf("k%02d-%04d", b, perBatch-1), pipelineValue(perBatch-1))
	}

	// Space returns: the breaker's probe closes it and the misplaced tables
	// drain back to local storage.
	lf.SetWriteBudget(0)
	waitFor(t, "misplaced tables to drain back", 10*time.Second, func() bool {
		return d.MisplacedTables() == 0
	})
	m = d.Metrics()
	if m.LocalDrainedBack == 0 {
		t.Fatal("LocalDrainedBack counter not incremented")
	}
	if m.LocalDegradedDur <= 0 {
		t.Fatal("LocalDegradedDur not recorded")
	}
	for b := 0; b < batches; b++ {
		for i := 0; i < perBatch; i++ {
			mustGet(t, d, fmt.Sprintf("k%02d-%04d", b, i), pipelineValue(i))
		}
	}
}

// TestBitFlipStormByteCorrect is the acceptance bar from the issue: under a
// percent-scale local read bit-flip rate with MirrorLocalLevels on, a
// full-keyspace readback returns byte-correct values with zero corruption
// errors surfaced to clients, and the detection/repair counters reconcile.
func TestBitFlipStormByteCorrect(t *testing.T) {
	o := testOptions(PolicyMash)
	o.MirrorLocalLevels = true
	d, lf, _, err := OpenAtChaosLocal(t.TempDir(), o,
		storage.FaultConfig{Seed: 42}, storage.FaultConfig{Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	const n = 1500
	for i := 0; i < n; i++ {
		mustPut(t, d, fmt.Sprintf("k%05d", i), pipelineValue(i))
	}
	// Quiesce the tree first: a compaction still running after a bare Flush
	// retires tables under the mirror pass, so neither the table list nor
	// the cumulative counter would say when the live tables are covered.
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}
	locals := localTableNums(d)
	if len(locals) == 0 {
		t.Fatal("no local tables to mirror")
	}
	waitFor(t, "lazy mirror", 10*time.Second, func() bool {
		for _, num := range locals {
			if !d.engines[0].isMirrored(num) {
				return false
			}
		}
		return true
	})

	lf.SetCorruptRate(0.05)
	for i := 0; i < n; i++ {
		got, gerr := d.Get([]byte(fmt.Sprintf("k%05d", i)))
		if gerr != nil {
			t.Fatalf("Get(%d) surfaced %v during bit-flip storm", i, gerr)
		}
		if !bytes.Equal(got, []byte(pipelineValue(i))) {
			t.Fatalf("Get(%d) returned wrong bytes during bit-flip storm", i)
		}
	}
	lf.SetCorruptRate(0)

	if lf.CorruptedReads() == 0 {
		t.Fatal("fault injector corrupted no reads; the storm never happened")
	}
	m := d.Metrics()
	if m.CorruptionsDetected == 0 {
		t.Fatalf("%d reads corrupted but none detected", lf.CorruptedReads())
	}
	if m.CorruptionsDetected != m.CorruptionsRepaired+m.CorruptionsUnrepaired {
		t.Fatalf("counters do not reconcile: %d != %d + %d",
			m.CorruptionsDetected, m.CorruptionsRepaired, m.CorruptionsUnrepaired)
	}
}

// TestCrashPointLocalDegraded sweeps randomized crash points through the
// self-healing machinery: the local device fills mid-run (forcing degraded
// landings and WAL spills) while scrub passes run beside the writes, then
// all storage dies at a random operation index. Reopening against clean
// backends must recover every acknowledged write.
func TestCrashPointLocalDegraded(t *testing.T) {
	seeds := 50
	if testing.Short() {
		seeds = 10
	}
	for seed := 0; seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%03d", seed), func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			rng := rand.New(rand.NewSource(int64(seed)*6151 + 11))
			crashAt := int64(50 + rng.Intn(600))
			headroom := int64(2<<10 + rng.Intn(16<<10))

			degradedOptions := func() Options {
				o := testOptions(PolicyMash)
				o.WALSync = true
				o.WALCloudBackup = true
				o.MirrorLocalLevels = true
				o.pcacheDir = filepath.Join(dir, "pcache")
				return o
			}
			o := degradedOptions()
			local, err := storage.NewLocal(filepath.Join(dir, "local"))
			if err != nil {
				t.Fatal(err)
			}
			cloud, err := storage.NewCloud(filepath.Join(dir, "cloud"), o.CloudLatency, o.CloudCost)
			if err != nil {
				t.Fatal(err)
			}
			fl := storage.NewFaulty(local, storage.FaultConfig{
				BudgetExemptPrefixes: []string{"MANIFEST", "CURRENT"},
			})
			fc := storage.NewFaulty(cloud, storage.FaultConfig{})
			var ops atomic.Int64
			dead := func(op, name string) error {
				if ops.Add(1) > crashAt {
					return errors.New("crash point reached")
				}
				return nil
			}
			fl.SetHook(dead)
			fc.SetHook(dead)

			acked := map[string]string{}
			d, err := Open(o, fl, fc)
			if err == nil {
				var scrubs sync.WaitGroup
				var scrubbing atomic.Bool
				for i := 0; i < 400; i++ {
					if i%10 == 0 && scrubbing.CompareAndSwap(false, true) {
						scrubs.Add(1)
						go func() {
							defer scrubs.Done()
							d.Scrub()
							scrubbing.Store(false)
						}()
					}
					if i == 100 {
						// The disk fills a quarter of the way in, pushing the
						// rest of the run through local-degraded transitions.
						fl.SetWriteBudget(fl.WrittenBytes() + headroom)
					}
					k := fmt.Sprintf("k%04d", i)
					v := pipelineValue(i)
					if perr := d.Put([]byte(k), []byte(v)); perr != nil {
						break
					}
					acked[k] = v
					if i%53 == 52 {
						if ferr := d.Flush(); ferr != nil {
							break
						}
					}
				}
				scrubs.Wait()
				d.Crash()
			}

			local2, err := storage.NewLocal(filepath.Join(dir, "local"))
			if err != nil {
				t.Fatal(err)
			}
			cloud2, err := storage.NewCloud(filepath.Join(dir, "cloud"), o.CloudLatency, o.CloudCost)
			if err != nil {
				t.Fatal(err)
			}
			d2, err := Open(degradedOptions(), local2, cloud2)
			if err != nil {
				t.Fatalf("crashAt=%d acked=%d: reopen after crash: %v", crashAt, len(acked), err)
			}
			defer d2.Close()
			for k, v := range acked {
				got, gerr := d2.Get([]byte(k))
				if gerr != nil {
					t.Fatalf("crashAt=%d: acked key %s lost: %v", crashAt, k, gerr)
				}
				if string(got) != v {
					t.Fatalf("crashAt=%d: acked key %s corrupted", crashAt, k)
				}
			}
		})
	}
}
