package db

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"rocksmash/internal/batch"
	"rocksmash/internal/retry"
	"rocksmash/internal/storage"
)

// testOptions returns small-geometry options that force flushes and
// compactions quickly, with the zero-latency cloud simulator.
func testOptions(p Policy) Options {
	o := DefaultOptions()
	o.Policy = p
	o.MemtableBytes = 64 << 10
	o.BlockBytes = 1 << 10
	o.BlockCacheBytes = 256 << 10
	o.PCacheBytes = 4 << 20
	o.PCacheRegionBytes = 64 << 10
	o.L0CompactTrigger = 2
	o.LevelBaseBytes = 128 << 10
	o.LevelMultiplier = 4
	o.TargetFileBytes = 64 << 10
	o.CloudLatency = storage.NoLatency()
	// Fast fault-tolerance knobs: real backoffs and cooldowns would dominate
	// the injected-failure tests' wall time.
	o.CloudRetry = retry.Policy{
		MaxAttempts: 4,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  2 * time.Millisecond,
		Deadline:    10 * time.Second,
	}
	o.CloudBreaker = retry.BreakerConfig{Cooldown: 5 * time.Millisecond}
	o.LocalBreaker = retry.BreakerConfig{Cooldown: 5 * time.Millisecond}
	return o
}

func openTest(t *testing.T, p Policy) (*DB, string) {
	t.Helper()
	dir := t.TempDir()
	d, err := OpenAt(dir, testOptions(p))
	if err != nil {
		t.Fatal(err)
	}
	return d, dir
}

func mustPut(t *testing.T, d *DB, k, v string) {
	t.Helper()
	if err := d.Put([]byte(k), []byte(v)); err != nil {
		t.Fatal(err)
	}
}

func mustGet(t *testing.T, d *DB, k, want string) {
	t.Helper()
	got, err := d.Get([]byte(k))
	if err != nil {
		t.Fatalf("Get(%q): %v", k, err)
	}
	if string(got) != want {
		t.Fatalf("Get(%q) = %q want %q", k, got, want)
	}
}

func mustMissing(t *testing.T, d *DB, k string) {
	t.Helper()
	if _, err := d.Get([]byte(k)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(%q) err = %v, want ErrNotFound", k, err)
	}
}

func TestBasicPutGetDelete(t *testing.T) {
	for _, p := range []Policy{PolicyMash, PolicyLocalOnly, PolicyCloudOnly, PolicyCloudLRU} {
		t.Run(p.String(), func(t *testing.T) {
			d, _ := openTest(t, p)
			defer d.Close()
			mustPut(t, d, "hello", "world")
			mustGet(t, d, "hello", "world")
			mustMissing(t, d, "absent")
			if err := d.Delete([]byte("hello")); err != nil {
				t.Fatal(err)
			}
			mustMissing(t, d, "hello")
		})
	}
}

func TestOverwrite(t *testing.T) {
	d, _ := openTest(t, PolicyMash)
	defer d.Close()
	mustPut(t, d, "k", "v1")
	mustPut(t, d, "k", "v2")
	mustGet(t, d, "k", "v2")
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	mustGet(t, d, "k", "v2")
	mustPut(t, d, "k", "v3")
	mustGet(t, d, "k", "v3")
}

func TestReadAfterFlush(t *testing.T) {
	d, _ := openTest(t, PolicyMash)
	defer d.Close()
	for i := 0; i < 100; i++ {
		mustPut(t, d, fmt.Sprintf("key%04d", i), fmt.Sprintf("val%d", i))
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		mustGet(t, d, fmt.Sprintf("key%04d", i), fmt.Sprintf("val%d", i))
	}
	if d.Metrics().Flushes == 0 {
		t.Fatal("flush not recorded")
	}
}

func TestWriteBatchAtomicity(t *testing.T) {
	d, _ := openTest(t, PolicyMash)
	defer d.Close()
	b := batch.New()
	b.Set([]byte("a"), []byte("1"))
	b.Set([]byte("b"), []byte("2"))
	b.Delete([]byte("a"))
	if err := d.Write(b); err != nil {
		t.Fatal(err)
	}
	mustMissing(t, d, "a")
	mustGet(t, d, "b", "2")
}

// fillKeys writes n keys with deterministic values, interleaving enough
// data to force flushes and compactions under the test geometry.
func fillKeys(t *testing.T, d *DB, n int, valLen int) map[string]string {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	ref := map[string]string{}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key%06d", rng.Intn(n))
		v := fmt.Sprintf("val-%d-%s", i, bytes.Repeat([]byte("x"), valLen))
		mustPut(t, d, k, v)
		ref[k] = v
	}
	return ref
}

func TestCompactionPreservesData(t *testing.T) {
	for _, p := range []Policy{PolicyMash, PolicyLocalOnly, PolicyCloudLRU} {
		t.Run(p.String(), func(t *testing.T) {
			d, _ := openTest(t, p)
			defer d.Close()
			ref := fillKeys(t, d, 2000, 100)
			if err := d.CompactAll(); err != nil {
				t.Fatal(err)
			}
			if d.Metrics().Compactions == 0 {
				t.Fatal("no compactions ran under test geometry")
			}
			for k, v := range ref {
				mustGet(t, d, k, v)
			}
		})
	}
}

func TestCompactionPlacementMash(t *testing.T) {
	d, _ := openTest(t, PolicyMash)
	defer d.Close()
	fillKeys(t, d, 5000, 200)
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}
	v := d.engines[0].vs.Current()
	if v.MaxLevel() < 2 {
		t.Skipf("tree too shallow (max level %d); increase data", v.MaxLevel())
	}
	var localDeep, cloudShallow int
	for l := 0; l < 7; l++ {
		for _, f := range v.Levels[l] {
			if l < d.opts.LocalLevels && f.Tier != storage.TierLocal {
				cloudShallow++
			}
			if l >= d.opts.LocalLevels && f.Tier != storage.TierCloud {
				localDeep++
			}
		}
	}
	if cloudShallow != 0 || localDeep != 0 {
		t.Fatalf("placement violated: %d cloud files in local levels, %d local files in cloud levels",
			cloudShallow, localDeep)
	}
	m := d.Metrics()
	if m.CloudBytes == 0 {
		t.Fatal("no bytes placed in cloud")
	}
	if m.LocalBytes == 0 {
		t.Fatal("no bytes kept local")
	}
}

func TestTombstonesSurviveCompaction(t *testing.T) {
	d, _ := openTest(t, PolicyMash)
	defer d.Close()
	for i := 0; i < 500; i++ {
		mustPut(t, d, fmt.Sprintf("k%05d", i), "v")
	}
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}
	// Delete half, compact again: deleted keys must stay deleted.
	for i := 0; i < 500; i += 2 {
		if err := d.Delete([]byte(fmt.Sprintf("k%05d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("k%05d", i)
		if i%2 == 0 {
			mustMissing(t, d, k)
		} else {
			mustGet(t, d, k, "v")
		}
	}
	if d.Metrics().CompactDroppedKeys == 0 {
		t.Fatal("compaction dropped no shadowed keys")
	}
}

func TestIteratorFullScan(t *testing.T) {
	d, _ := openTest(t, PolicyMash)
	defer d.Close()
	ref := fillKeys(t, d, 1500, 50)
	// Delete a handful.
	i := 0
	for k := range ref {
		if i%5 == 0 {
			if err := d.Delete([]byte(k)); err != nil {
				t.Fatal(err)
			}
			delete(ref, k)
		}
		i++
	}
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}

	it, err := d.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	got := map[string]string{}
	var prev []byte
	for it.First(); it.Valid(); it.Next() {
		if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
			t.Fatal("iterator out of order")
		}
		prev = append(prev[:0], it.Key()...)
		got[string(it.Key())] = string(it.Value())
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if len(got) != len(ref) {
		t.Fatalf("scan found %d keys, want %d", len(got), len(ref))
	}
	for k, v := range ref {
		if got[k] != v {
			t.Fatalf("key %q = %q want %q", k, got[k], v)
		}
	}
}

func TestIteratorSeek(t *testing.T) {
	d, _ := openTest(t, PolicyMash)
	defer d.Close()
	for i := 0; i < 100; i += 2 {
		mustPut(t, d, fmt.Sprintf("k%04d", i), "v")
	}
	d.Flush()
	it, err := d.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	it.Seek([]byte("k0013"))
	if !it.Valid() || string(it.Key()) != "k0014" {
		t.Fatalf("seek landed on %q valid=%v", it.Key(), it.Valid())
	}
	it.Seek([]byte("zzz"))
	if it.Valid() {
		t.Fatal("seek past end should invalidate")
	}
}

func TestSnapshotIsolation(t *testing.T) {
	d, _ := openTest(t, PolicyMash)
	defer d.Close()
	mustPut(t, d, "k", "old")
	snap := d.GetSnapshot()
	defer snap.Release()
	mustPut(t, d, "k", "new")
	if err := d.Delete([]byte("x")); err != nil {
		t.Fatal(err)
	}
	mustPut(t, d, "y", "added-later")

	if v, err := snap.Get([]byte("k")); err != nil || string(v) != "old" {
		t.Fatalf("snapshot read = %q, %v", v, err)
	}
	if _, err := snap.Get([]byte("y")); !errors.Is(err, ErrNotFound) {
		t.Fatal("snapshot saw later write")
	}
	mustGet(t, d, "k", "new")
}

func TestSnapshotSurvivesFlushAndCompaction(t *testing.T) {
	d, _ := openTest(t, PolicyMash)
	defer d.Close()
	mustPut(t, d, "pinned", "v1")
	snap := d.GetSnapshot()
	defer snap.Release()
	fillKeys(t, d, 1000, 100)
	mustPut(t, d, "pinned", "v2")
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if v, err := snap.Get([]byte("pinned")); err != nil || string(v) != "v1" {
		t.Fatalf("snapshot after compaction = %q, %v", v, err)
	}
}

func TestIteratorSnapshotView(t *testing.T) {
	d, _ := openTest(t, PolicyMash)
	defer d.Close()
	mustPut(t, d, "a", "1")
	mustPut(t, d, "b", "2")
	snap := d.GetSnapshot()
	defer snap.Release()
	mustPut(t, d, "c", "3")
	if err := d.Delete([]byte("a")); err != nil {
		t.Fatal(err)
	}

	it, err := snap.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var ks []string
	for it.First(); it.Valid(); it.Next() {
		ks = append(ks, string(it.Key()))
	}
	if fmt.Sprint(ks) != "[a b]" {
		t.Fatalf("snapshot scan = %v", ks)
	}
}

func TestRecoveryAfterCrash(t *testing.T) {
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			dir := t.TempDir()
			opts := testOptions(PolicyMash)
			opts.RecoveryParallelism = par
			d, err := OpenAt(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			ref := map[string]string{}
			for i := 0; i < 800; i++ {
				k := fmt.Sprintf("key%05d", i%300)
				v := fmt.Sprintf("val-%d", i)
				mustPut(t, d, k, v)
				ref[k] = v
			}
			d.Delete([]byte("key00000"))
			delete(ref, "key00000")
			d.CrashForTest()

			d2, err := OpenAt(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer d2.Close()
			for k, v := range ref {
				mustGet(t, d2, k, v)
			}
			mustMissing(t, d2, "key00000")
			rep := d2.RecoveryReport()
			if rep.RecoveredKeys == 0 {
				t.Fatal("nothing recovered from WAL")
			}
		})
	}
}

func TestRecoverySkipsFlushedSegments(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(PolicyMash)
	opts.WALSegmentBytes = 8 << 10
	d, err := OpenAt(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Write enough to flush several memtables (and GC their segments),
	// then a little more that stays only in the WAL.
	for i := 0; i < 2000; i++ {
		mustPut(t, d, fmt.Sprintf("k%06d", i), string(bytes.Repeat([]byte("x"), 100)))
	}
	d.Flush()
	for i := 0; i < 50; i++ {
		mustPut(t, d, fmt.Sprintf("tail%03d", i), "fresh")
	}
	d.CrashForTest()

	d2, err := OpenAt(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	for i := 0; i < 50; i++ {
		mustGet(t, d2, fmt.Sprintf("tail%03d", i), "fresh")
	}
	mustGet(t, d2, "k000000", string(bytes.Repeat([]byte("x"), 100)))
}

func TestRecoveryEquivalenceSerialParallel(t *testing.T) {
	build := func(par int) map[string]string {
		dir := t.TempDir()
		opts := testOptions(PolicyMash)
		opts.RecoveryParallelism = par
		opts.WALSegmentBytes = 4 << 10
		d, err := OpenAt(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 600; i++ {
			k := fmt.Sprintf("k%04d", rng.Intn(200))
			if rng.Intn(10) == 0 {
				d.Delete([]byte(k))
			} else {
				d.Put([]byte(k), []byte(fmt.Sprintf("v%d", i)))
			}
		}
		d.CrashForTest()
		d2, err := OpenAt(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer d2.Close()
		out := map[string]string{}
		it, err := d2.NewIterator()
		if err != nil {
			t.Fatal(err)
		}
		defer it.Close()
		for it.First(); it.Valid(); it.Next() {
			out[string(it.Key())] = string(it.Value())
		}
		return out
	}
	serial := build(1)
	parallel := build(8)
	if len(serial) != len(parallel) {
		t.Fatalf("key counts differ: %d vs %d", len(serial), len(parallel))
	}
	for k, v := range serial {
		if parallel[k] != v {
			t.Fatalf("divergence at %q: %q vs %q", k, v, parallel[k])
		}
	}
}

func TestCleanCloseAndReopen(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(PolicyMash)
	d, err := OpenAt(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref := fillKeys(t, d, 500, 50)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal("double close should be nil:", err)
	}
	d2, err := OpenAt(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	for k, v := range ref {
		mustGet(t, d2, k, v)
	}
	if _, err := d.Get([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatal("closed DB should refuse reads")
	}
	if err := d.Put([]byte("x"), nil); !errors.Is(err, ErrClosed) {
		t.Fatal("closed DB should refuse writes")
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	d, _ := openTest(t, PolicyMash)
	defer d.Close()
	const writers, readers, perG = 4, 4, 300
	var wg sync.WaitGroup
	errCh := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				k := fmt.Sprintf("w%d-k%04d", w, i)
				if err := d.Put([]byte(k), []byte(fmt.Sprint(i))); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				k := fmt.Sprintf("w%d-k%04d", r%writers, i)
				if _, err := d.Get([]byte(k)); err != nil && !errors.Is(err, ErrNotFound) {
					errCh <- err
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// All writes must be present afterwards.
	for w := 0; w < writers; w++ {
		for i := 0; i < perG; i++ {
			mustGet(t, d, fmt.Sprintf("w%d-k%04d", w, i), fmt.Sprint(i))
		}
	}
}

func TestPCacheServesCloudReads(t *testing.T) {
	d, _ := openTest(t, PolicyMash)
	defer d.Close()
	fillKeys(t, d, 3000, 200)
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}
	m := d.Metrics()
	if m.CloudBytes == 0 {
		t.Skip("dataset did not reach cloud levels")
	}
	// Read keys repeatedly; with the write-through pcache, cloud GETs for
	// data blocks should be largely avoided.
	before := d.cloud.Stats().Snapshot()
	for i := 0; i < 500; i++ {
		d.Get([]byte(fmt.Sprintf("key%06d", i)))
	}
	after := d.cloud.Stats().Snapshot()
	hit, _, _ := d.PCacheStats()
	if hit == 0 && after.GetOps-before.GetOps > 400 {
		t.Fatalf("persistent cache ineffective: hit=%f cloudGets=%d", hit, after.GetOps-before.GetOps)
	}
}

func TestMissingCloudObjectSurfacesError(t *testing.T) {
	d, dir := openTest(t, PolicyCloudOnly)
	defer d.Close()
	for i := 0; i < 200; i++ {
		mustPut(t, d, fmt.Sprintf("k%04d", i), string(bytes.Repeat([]byte("v"), 50)))
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	// Lose every cloud object, then force reads that need them.
	cl, err := storage.NewCloud(filepath.Join(dir, "cloud"), storage.NoLatency(), storage.DefaultCost())
	if err != nil {
		t.Fatal(err)
	}
	names, _ := cl.List("sst/")
	if len(names) == 0 {
		t.Fatal("no cloud tables written")
	}
	d.cloudSim.LoseObject(names[0])
	// Some key in the lost file must now error (not silently miss).
	sawErr := false
	for i := 0; i < 200; i++ {
		_, err := d.Get([]byte(fmt.Sprintf("k%04d", i)))
		if err != nil && !errors.Is(err, ErrNotFound) {
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Fatal("lost cloud object went unnoticed")
	}
}

func TestMetricsShape(t *testing.T) {
	d, _ := openTest(t, PolicyMash)
	defer d.Close()
	fillKeys(t, d, 300, 50)
	d.Flush()
	// Table metadata is pinned lazily at first open; touch the tables.
	for i := 0; i < 300; i++ {
		d.Get([]byte(fmt.Sprintf("key%06d", i)))
	}
	m := d.Metrics()
	if m.Policy != "mash" {
		t.Fatalf("policy = %s", m.Policy)
	}
	if len(m.LevelFiles) != 7 {
		t.Fatalf("levels = %d", len(m.LevelFiles))
	}
	if m.LastSeq == 0 || m.Flushes == 0 {
		t.Fatalf("metrics not populated: %+v", m)
	}
	if m.MetaBytes <= 0 {
		t.Fatal("table metadata accounting empty")
	}
}

func TestEmptyBatchIsNoop(t *testing.T) {
	d, _ := openTest(t, PolicyMash)
	defer d.Close()
	seq := d.LastSequence()
	if err := d.Write(batch.New()); err != nil {
		t.Fatal(err)
	}
	if d.LastSequence() != seq {
		t.Fatal("empty batch consumed a sequence number")
	}
}

func TestHas(t *testing.T) {
	d, _ := openTest(t, PolicyMash)
	defer d.Close()
	mustPut(t, d, "exists", "v")
	ok, err := d.Has([]byte("exists"))
	if err != nil || !ok {
		t.Fatal("Has(exists) failed")
	}
	ok, err = d.Has([]byte("missing"))
	if err != nil || ok {
		t.Fatal("Has(missing) wrong")
	}
}
