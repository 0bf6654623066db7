package db

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync/atomic"
	"testing"

	"rocksmash/internal/manifest"
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

func listViews(t *testing.T, d *DB) []string {
	t.Helper()
	names, err := d.local.List(manifest.ViewPrefix)
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestViewBuildAndPersist builds views explicitly and checks that sidecar
// objects land under view/ with fingerprints matching the live manifest,
// and that a full scan is then served through the views.
func TestViewBuildAndPersist(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenAt(dir, viewTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	model := loadAndSettle(t, d, 3000)

	if err := d.BuildViews(); err != nil {
		t.Fatal(err)
	}
	m := d.Metrics()
	if m.ViewBuilds == 0 {
		t.Fatal("BuildViews built nothing; expected populated levels >= 1")
	}
	names := listViews(t, d)
	if len(names) == 0 {
		t.Fatal("no view sidecars persisted")
	}
	cur := d.engines[0].vs.Current()
	for _, n := range names {
		level, fp, ok := manifest.ParseViewName(n)
		if !ok {
			t.Fatalf("unparseable view name %q", n)
		}
		if want := manifest.ViewFingerprint(cur.Levels[level]); fp != want {
			t.Fatalf("%s: fingerprint %x, manifest says %x", n, fp, want)
		}
	}

	it, err := d.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for it.First(); it.Valid(); it.Next() {
		if want := model[string(it.Key())]; want != string(it.Value()) {
			t.Fatalf("%q = %q want %q", it.Key(), it.Value(), want)
		}
		got++
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if got != len(model) {
		t.Fatalf("scan saw %d keys, want %d", got, len(model))
	}
	if hits := d.Metrics().ScanViewHits; hits == 0 {
		t.Fatal("scan did not ride any sorted view")
	}
}

// TestViewReloadAcrossReopen persists views, reopens the store, and
// verifies the sidecars decode and serve scans without being rebuilt from
// the member indexes.
func TestViewReloadAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenAt(dir, viewTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	model := loadAndSettle(t, d, 2000)
	if err := d.BuildViews(); err != nil {
		t.Fatal(err)
	}
	persisted := listViews(t, d)
	if len(persisted) == 0 {
		t.Fatal("no sidecars to reload")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenAt(dir, viewTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if err := d2.BuildViews(); err != nil {
		t.Fatal(err)
	}
	// The second build pass must have loaded the persisted sidecars rather
	// than re-deriving them: loads count no encoded bytes.
	if b := d2.Metrics().ViewBuildBytes; b != 0 {
		t.Fatalf("reopen re-encoded views (%d bytes); expected sidecar reload", b)
	}
	it, err := d2.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for it.First(); it.Valid(); it.Next() {
		if want := model[string(it.Key())]; want != string(it.Value()) {
			t.Fatalf("%q = %q want %q", it.Key(), it.Value(), want)
		}
		got++
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if got != len(model) {
		t.Fatalf("scan saw %d keys, want %d", got, len(model))
	}
	if d2.Metrics().ScanViewHits == 0 {
		t.Fatal("reloaded views not used by scan")
	}
}

// TestViewInvalidationOnCompaction checks that a compaction that changes a
// level's membership drops the now-stale sidecars: every surviving view/
// object must carry the fingerprint of the current manifest.
func TestViewInvalidationOnCompaction(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenAt(dir, viewTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	loadAndSettle(t, d, 2000)
	if err := d.BuildViews(); err != nil {
		t.Fatal(err)
	}
	before := listViews(t, d)
	if len(before) == 0 {
		t.Fatal("no sidecars before compaction")
	}

	// Overwrite a chunk of the keyspace and force another full compaction:
	// level memberships change, fingerprints move on.
	for i := 0; i < 2000; i += 2 {
		mustPut(t, d, fmt.Sprintf("key%05d", i), fmt.Sprintf("new%05d", i))
	}
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}

	cur := d.engines[0].vs.Current()
	for _, n := range listViews(t, d) {
		level, fp, ok := manifest.ParseViewName(n)
		if !ok {
			t.Fatalf("unparseable view name %q", n)
		}
		if want := manifest.ViewFingerprint(cur.Levels[level]); fp != want {
			t.Fatalf("stale sidecar %s survived compaction (fp %x, manifest %x)", n, fp, want)
		}
	}
}

// TestViewSweepAtOpen plants a bogus sidecar whose fingerprint matches no
// level and reopens the store: the orphan sweep must delete it.
func TestViewSweepAtOpen(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenAt(dir, viewTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	loadAndSettle(t, d, 500)
	stale := manifest.ViewName(2, 0xdeadbeef)
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
	for _, n := range listViews(t, d2) {
		if n == stale {
			t.Fatalf("stale sidecar %s survived the open-time sweep", n)
		}
	}
}

// TestViewDisabled verifies the kill switch: with DisableSortedViews set,
// no sidecars are built and scans still return the full dataset.
func TestViewDisabled(t *testing.T) {
	dir := t.TempDir()
	o := viewTestOptions()
	o.DisableSortedViews = true
	d, err := OpenAt(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	model := loadAndSettle(t, d, 1000)
	if err := d.BuildViews(); err != nil {
		t.Fatal(err)
	}
	if n := listViews(t, d); len(n) != 0 {
		t.Fatalf("views built despite DisableSortedViews: %v", n)
	}
	it, err := d.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for it.First(); it.Valid(); it.Next() {
		got++
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if got != len(model) {
		t.Fatalf("scan saw %d keys, want %d", got, len(model))
	}
	if d.Metrics().ScanViewHits != 0 {
		t.Fatal("ScanViewHits counted with views disabled")
	}
}

// TestViewCrashSweep kills all storage I/O at a randomized operation index
// while writes, compactions and view builds are in flight, crashes, and
// reopens against clean backends: recovery must succeed, every acknowledged
// write must survive, and any sidecars left behind must either match the
// recovered manifest or be swept — a scan after reopen must be complete
// and correct either way.
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
						// Drive the crash point through compaction +
						// view invalidation + background rebuild.
						if cerr := d.CompactAll(); cerr != nil {
							break
						}
						if verr := d.BuildViews(); verr != nil {
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

			// Surviving sidecars must match the recovered manifest.
			cur := d2.engines[0].vs.Current()
			if names, lerr := d2.local.List(manifest.ViewPrefix); lerr == nil {
				for _, n := range names {
					level, fp, ok := manifest.ParseViewName(n)
					if !ok {
						t.Fatalf("crashAt=%d: unparseable view name %q", crashAt, n)
					}
					if want := manifest.ViewFingerprint(cur.Levels[level]); fp != want {
						t.Fatalf("crashAt=%d: stale sidecar %s after recovery", crashAt, n)
					}
				}
			}

			if err := d2.BuildViews(); err != nil {
				t.Fatalf("crashAt=%d: BuildViews after recovery: %v", crashAt, err)
			}
			it, err := d2.NewIterator()
			if err != nil {
				t.Fatal(err)
			}
			got := map[string]string{}
			for it.First(); it.Valid(); it.Next() {
				got[string(it.Key())] = string(it.Value())
			}
			if err := it.Close(); err != nil {
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
