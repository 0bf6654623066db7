package db

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"rocksmash/internal/keys"
	"rocksmash/internal/manifest"
	"rocksmash/internal/readprof"
	"rocksmash/internal/sstable"
	"rocksmash/internal/storage"
)

// viewTestOptions keeps the tree cloud-resident (only L0 local) so view
// scans exercise the pipelined cloud span reads, with files small enough
// that levels >= 1 hold several member tables.
func viewTestOptions() Options {
	o := testOptions(PolicyMash)
	o.LocalLevels = 1
	return o
}

// loadAndSettle fills n sequential keys (values padded so the load spans
// several target-size files) and compacts so levels >= 1 are populated
// with multi-table membership.
func loadAndSettle(t *testing.T, d *DB, n int) map[string]string {
	t.Helper()
	model := map[string]string{}
	pad := fmt.Sprintf("%0120d", 7)
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key%05d", i)
		v := fmt.Sprintf("val%05d-%s", i, pad)
		mustPut(t, d, k, v)
		model[k] = v
	}
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}
	return model
}

// scanStore walks the store forward and returns what it yielded, or the
// error that stopped it.
func scanStore(d *DB) (map[string]string, error) {
	it, err := d.NewIterator()
	if err != nil {
		return nil, err
	}
	got := map[string]string{}
	for it.First(); it.Valid(); it.Next() {
		got[string(it.Key())] = string(it.Value())
	}
	if err := it.Close(); err != nil {
		return nil, err
	}
	return got, nil
}

// mustScan checks that a full scan yields exactly model.
func mustScan(t *testing.T, d *DB, model map[string]string) {
	t.Helper()
	got, err := scanStore(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(model) {
		t.Fatalf("scan saw %d keys, want %d", len(got), len(model))
	}
	for k, v := range model {
		if got[k] != v {
			t.Fatalf("%q = %q want %q", k, got[k], v)
		}
	}
}

// checkInstalledViews checks every engine's installed view of every level
// >= 1 that has files: it must be there, and equal, entry for entry, the
// view BuildView derives from the members' own index entries, with its
// separators in order.
func checkInstalledViews(t *testing.T, d *DB) {
	t.Helper()
	for ei, e := range d.engines {
		v := e.vs.Acquire()
		for l := 1; l < manifest.NumLevels; l++ {
			files := v.Levels[l]
			if len(files) == 0 {
				continue
			}
			vw := v.View(l)
			if vw == nil {
				t.Fatalf("engine %d L%d: no view installed over %d files", ei, l, len(files))
			}
			nums := make([]uint64, len(files))
			indexes := make([][]sstable.IndexEntry, len(files))
			uppers := make([][]byte, len(files))
			for i, f := range files {
				h, err := e.tables.get(e, f)
				if err != nil {
					t.Fatal(err)
				}
				nums[i], indexes[i], uppers[i] = f.Num, h.reader.IndexEntries(), f.Largest
			}
			ref := sstable.BuildView(l, nums, indexes, uppers)
			if len(vw.Members) != len(ref.Members) || len(vw.Entries) != len(ref.Entries) {
				t.Fatalf("engine %d L%d: view has %d members and %d cursors, its level %d and %d",
					ei, l, len(vw.Members), len(vw.Entries), len(ref.Members), len(ref.Entries))
			}
			for i := range ref.Entries {
				a, b := vw.Entries[i], ref.Entries[i]
				if vw.Members[a.Member] != ref.Members[b.Member] || a.H != b.H || !bytes.Equal(a.Sep, b.Sep) {
					t.Fatalf("engine %d L%d cursor %d: table %d block@%d sep %q, derived table %d block@%d sep %q",
						ei, l, i, vw.Members[a.Member], a.H.Offset, keys.UserKey(a.Sep),
						ref.Members[b.Member], b.H.Offset, keys.UserKey(b.Sep))
				}
				if i > 0 && keys.Compare(vw.Entries[i-1].Sep, a.Sep) > 0 {
					t.Fatalf("engine %d L%d cursor %d: separators out of order", ei, l, i)
				}
			}
		}
		e.unpin(v)
	}
}

// TestViewBuildAndPersist checks that the first scan builds each populated
// level's view once and that it persists on the version: a second scan
// builds none and rides the views.
func TestViewBuildAndPersist(t *testing.T) {
	d, err := OpenAt(t.TempDir(), viewTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	model := loadAndSettle(t, d, 3000)
	if m := d.Metrics(); m.ScanViewHits+m.ScanViewMisses != 0 {
		t.Fatalf("views counted before any scan: %d hits, %d misses", m.ScanViewHits, m.ScanViewMisses)
	}

	mustScan(t, d, model)
	built := d.Metrics().ScanViewMisses
	if built == 0 {
		t.Fatal("the first scan built no view; expected populated levels >= 1")
	}
	checkInstalledViews(t, d)
	mustScan(t, d, model)
	m := d.Metrics()
	if m.ScanViewMisses != built {
		t.Fatalf("the second scan built %d views again", m.ScanViewMisses-built)
	}
	if m.ScanViewHits < built {
		t.Fatalf("the second scan found %d views, want %d", m.ScanViewHits, built)
	}
}

// TestViewPersistsUnderEvictions is TestViewBuildAndPersist behind a table
// cache capped at 2 open tables: building a view opens every member of its
// level, so the build itself evicts tables, and each eviction moves the
// current version to a share of it. A view built on the version the scan
// pinned must still serve the shares, so the second scan builds none.
func TestViewPersistsUnderEvictions(t *testing.T) {
	d, err := OpenAt(t.TempDir(), viewTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	model := loadAndSettle(t, d, 3000)
	d.tables.mu.Lock()
	d.tables.maxOpen = 2
	d.tables.mu.Unlock()
	wide := false
	for _, files := range d.engines[0].vs.Current().Levels[1:] {
		wide = wide || len(files) > 2
	}
	if !wide {
		t.Fatal("fixture has no level of more than 2 tables")
	}

	mustScan(t, d, model)
	built := d.Metrics().ScanViewMisses
	if built == 0 {
		t.Fatal("the first scan built no view; expected populated levels >= 1")
	}
	mustScan(t, d, model)
	m := d.Metrics()
	if m.ScanViewMisses != built {
		t.Fatalf("the second scan built %d views again", m.ScanViewMisses-built)
	}
	if m.ScanViewHits < built {
		t.Fatalf("the second scan found %d views, want %d", m.ScanViewHits, built)
	}
}

// TestViewReloadAcrossReopen reopens a store whose views were built: views
// live in memory only, so the first scan after the reopen builds them again,
// once, and writes nothing to view/.
func TestViewReloadAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenAt(dir, viewTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	model := loadAndSettle(t, d, 2000)
	mustScan(t, d, model)
	built := d.Metrics().ScanViewMisses
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenAt(dir, viewTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	mustScan(t, d2, model)
	if got := d2.Metrics().ScanViewMisses; got != built {
		t.Fatalf("the first scan after reopen built %d views, want the %d the store had", got, built)
	}
	mustScan(t, d2, model)
	if got := d2.Metrics().ScanViewMisses; got != built {
		t.Fatalf("the second scan after reopen built %d views more", got-built)
	}
	if names, err := d2.local.List("view/"); err != nil || len(names) != 0 {
		t.Fatalf("view/ holds %v (%v); views are never persisted", names, err)
	}
}

// TestViewInvalidationOnCompaction overwrites half the keyspace and compacts
// it again after a scan built the views: every compaction's install splices
// its levels' views, so the installed views match the new membership and
// the next scan builds none.
func TestViewInvalidationOnCompaction(t *testing.T) {
	d, err := OpenAt(t.TempDir(), viewTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	model := loadAndSettle(t, d, 2000)
	mustScan(t, d, model)
	m := d.Metrics()
	built, compactions := m.ScanViewMisses, m.Compactions

	pad := fmt.Sprintf("%0120d", 8)
	for i := 0; i < 2000; i += 2 {
		k, v := fmt.Sprintf("key%05d", i), fmt.Sprintf("new%05d-%s", i, pad)
		mustPut(t, d, k, v)
		model[k] = v
	}
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if d.Metrics().Compactions == compactions {
		t.Fatal("the overwrite compacted nothing; the test is vacuous")
	}
	checkInstalledViews(t, d)
	mustScan(t, d, model)
	if got := d.Metrics().ScanViewMisses; got != built {
		t.Fatalf("the scan after the compactions built %d views; their installs should have spliced them", got-built)
	}
}

// TestViewSweepAtOpen plants a sidecar of the kind older stores persisted
// views to and reopens the store: Open must delete it.
func TestViewSweepAtOpen(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenAt(dir, viewTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	loadAndSettle(t, d, 500)
	const stale = "view/L2-00000000deadbeef.view"
	if err := storage.WriteObject(d.local, stale, []byte("junk")); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenAt(dir, viewTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if names, err := d2.local.List("view/"); err != nil || len(names) != 0 {
		t.Fatalf("view/ holds %v (%v) after the open-time sweep", names, err)
	}
}

// TestViewBuildFailsScan builds a scan's view while one member of a cloud
// level cannot be opened: its metadata sidecar is gone and the cloud is out.
// The scan must fail with ErrCloudUnavailable rather than walk the tree
// without that table, while a Get whose tables all have their sidecars
// keeps serving. Once the cloud is back a scan succeeds, and the next one
// builds nothing.
func TestViewBuildFailsScan(t *testing.T) {
	dir := t.TempDir()
	o := testOptions(PolicyCloudOnly)
	o.L0CompactTrigger = 1 // CompactAll leaves L0 empty
	o.LevelBaseBytes = 16 << 10
	local, err := storage.NewLocal(filepath.Join(dir, "local"))
	if err != nil {
		t.Fatal(err)
	}
	cloud, err := storage.NewCloud(filepath.Join(dir, "cloud"), o.CloudLatency, o.CloudCost)
	if err != nil {
		t.Fatal(err)
	}
	faulty := storage.NewFaulty(cloud, storage.FaultConfig{})
	o.pcacheDir = filepath.Join(dir, "pcache")
	d, err := Open(o, local, faulty)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	model := pinLoad(t, d, 3000, "one")
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}
	for k, v := range pinLoad(t, d, 300, "two") {
		model[k] = v
	}
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}
	v := d.engines[0].vs.Current()
	deepest := v.MaxLevel()
	if len(v.Levels[0]) != 0 || deepest < 2 || len(v.Levels[deepest]) < 2 {
		t.Fatalf("levels %v: want L0 empty and two cloud levels, the deepest with two tables or more", d.Metrics().LevelFiles)
	}
	victim := v.Levels[deepest][len(v.Levels[deepest])-1]
	const intact = "key000000"
	if victim.ContainsUserKey([]byte(intact)) {
		t.Fatalf("%s is in the table whose sidecar goes", intact)
	}
	mustGet(t, d, intact, model[intact]) // its blocks stay in the block cache

	if err := d.local.Delete(metaSidecarName(victim.Num)); err != nil {
		t.Fatal(err)
	}
	v.AllFiles(func(_ int, f *manifest.FileMetadata) { d.tables.evict(keyOf(f.Num, f.Tier)) })
	faulty.StartOutage(0)
	if got, err := scanStore(d); !errors.Is(err, ErrCloudUnavailable) {
		t.Fatalf("scan during the outage yielded %d keys and %v, want ErrCloudUnavailable", len(got), err)
	}
	mustGet(t, d, intact, model[intact])

	faulty.EndOutage()
	waitFor(t, "a scan after the outage", 10*time.Second, func() bool {
		_, err := scanStore(d)
		return err == nil
	})
	mustScan(t, d, model)
	built := d.Metrics().ScanViewMisses
	mustScan(t, d, model)
	if got := d.Metrics().ScanViewMisses; got != built {
		t.Fatalf("the scan after a complete one built %d views", got-built)
	}
}

// TestViewCrashSweep kills all storage I/O at a randomized operation index
// while writes, flushes and compactions are in flight, crashes, and reopens
// against clean backends: recovery must succeed, every acknowledged write
// must survive, and the scan after reopen must be complete.
func TestViewCrashSweep(t *testing.T) {
	seeds := 30
	if testing.Short() {
		seeds = 8
	}
	for seed := 0; seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%03d", seed), func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			rng := rand.New(rand.NewSource(int64(seed)*6121 + 11))
			crashAt := int64(20 + rng.Intn(600))

			local, err := storage.NewLocal(filepath.Join(dir, "local"))
			if err != nil {
				t.Fatal(err)
			}
			o := viewTestOptions()
			o.WALSync = true
			o.pcacheDir = filepath.Join(dir, "pcache")
			cloud, err := storage.NewCloud(filepath.Join(dir, "cloud"), o.CloudLatency, o.CloudCost)
			if err != nil {
				t.Fatal(err)
			}
			fl := storage.NewFaulty(local, storage.FaultConfig{})
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
				for i := 0; i < 400; i++ {
					k := fmt.Sprintf("k%04d", i)
					v := fmt.Sprintf("v%04d-%d", i, seed)
					if perr := d.Put([]byte(k), []byte(v)); perr != nil {
						break
					}
					acked[k] = v
					switch {
					case i%61 == 60:
						if cerr := d.CompactAll(); cerr != nil {
							break
						}
					case i%23 == 22:
						if ferr := d.Flush(); ferr != nil {
							break
						}
					}
				}
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
			o2 := viewTestOptions()
			o2.WALSync = true
			o2.pcacheDir = filepath.Join(dir, "pcache")
			d2, err := Open(o2, local2, cloud2)
			if err != nil {
				t.Fatalf("crashAt=%d: reopen after crash: %v", crashAt, err)
			}
			defer d2.Close()

			got, err := scanStore(d2)
			if err != nil {
				t.Fatal(err)
			}
			for k, v := range acked {
				if got[k] != v {
					t.Fatalf("crashAt=%d: acked key %s = %q want %q", crashAt, k, got[k], v)
				}
			}
		})
	}
}

// TestViewScanCountsEachMissOnce scans a cold local-only store forward, then
// reopens it and scans it in reverse: each block a scan reads misses the
// block cache once, so the misses a scan adds equal the local blocks it read.
func TestViewScanCountsEachMissOnce(t *testing.T) {
	dir := t.TempDir()
	o := testOptions(PolicyLocalOnly)
	d, err := OpenAt(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	model := loadAndSettle(t, d, 2000)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	for _, reverse := range []bool{false, true} {
		d, err := OpenAt(dir, o) // cold caches
		if err != nil {
			t.Fatal(err)
		}
		before := d.Metrics()
		it, err := d.NewIterator()
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		if reverse {
			for it.Last(); it.Valid(); it.Prev() {
				n++
			}
		} else {
			for it.First(); it.Valid(); it.Next() {
				n++
			}
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		after := d.Metrics()
		misses := after.BlockCacheMisses - before.BlockCacheMisses
		blocks := after.ReadAmp.IterBlocks[readprof.TierLocal] - before.ReadAmp.IterBlocks[readprof.TierLocal]
		if n != len(model) || blocks == 0 || misses != blocks {
			t.Errorf("reverse=%v: scanned %d keys of %d, read %d local blocks, counted %d block cache misses",
				reverse, n, len(model), blocks, misses)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
