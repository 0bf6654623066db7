package db

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rocksmash/internal/manifest"
	"rocksmash/internal/storage"
)

// openFaultyTest opens a DB whose cloud backend is wrapped in a Faulty
// decorator, so tests can script outages and random fault injection.
func openFaultyTest(t *testing.T, p Policy, cfg storage.FaultConfig) (*DB, *storage.Faulty) {
	t.Helper()
	dir := t.TempDir()
	o := testOptions(p)
	local, err := storage.NewLocal(filepath.Join(dir, "local"))
	if err != nil {
		t.Fatal(err)
	}
	cloud, err := storage.NewCloud(filepath.Join(dir, "cloud"), o.CloudLatency, o.CloudCost)
	if err != nil {
		t.Fatal(err)
	}
	faulty := storage.NewFaulty(cloud, cfg)
	o.pcacheDir = filepath.Join(dir, "pcache")
	d, err := Open(o, local, faulty)
	if err != nil {
		t.Fatal(err)
	}
	return d, faulty
}

// TestOutageDegradedFlushAndDrain scripts a total cloud outage spanning
// several flushes: every flush must succeed by landing its table locally
// marked pending-upload, reads must keep serving from the local copies, and
// once the outage ends the drainer must migrate the whole backlog to the
// cloud without losing a key.
func TestOutageDegradedFlushAndDrain(t *testing.T) {
	d, faulty := openFaultyTest(t, PolicyCloudOnly, storage.FaultConfig{})
	defer d.Close()

	faulty.StartOutage(0) // until EndOutage
	const batches, perBatch = 4, 60
	for b := 0; b < batches; b++ {
		for i := 0; i < perBatch; i++ {
			mustPut(t, d, fmt.Sprintf("k%02d-%04d", b, i), pipelineValue(i))
		}
		if err := d.Flush(); err != nil {
			t.Fatalf("flush %d during outage must degrade, not fail: %v", b, err)
		}
	}
	pending, pendingBytes := d.PendingCloudTables()
	if pending == 0 {
		t.Fatal("outage flushes left no pending-upload backlog")
	}
	if pendingBytes == 0 {
		t.Fatal("pending backlog reports zero bytes")
	}
	// Not "open": the drainer probes the cloud every cooldown, and while
	// its probe is in flight the breaker reads half-open. Mid-outage it is
	// never closed.
	if got := d.BreakerState(); got != "open" && got != "half-open" {
		t.Fatalf("breaker state during outage = %q, want open or half-open", got)
	}
	if d.Metrics().BreakerTrips == 0 {
		t.Fatal("breaker never tripped")
	}
	// Every key is readable from the locally landed tables mid-outage.
	for b := 0; b < batches; b++ {
		mustGet(t, d, fmt.Sprintf("k%02d-%04d", b, 0), pipelineValue(0))
		mustGet(t, d, fmt.Sprintf("k%02d-%04d", b, perBatch-1), pipelineValue(perBatch-1))
	}

	faulty.EndOutage()
	waitForDrain(t, d, 10*time.Second)
	if d.Metrics().DrainedTables == 0 {
		t.Fatal("DrainedTables counter not incremented")
	}
	if names, err := faulty.List("sst/"); err != nil || len(names) == 0 {
		t.Fatalf("drained tables missing from cloud: names=%v err=%v", names, err)
	}
	for b := 0; b < batches; b++ {
		for i := 0; i < perBatch; i++ {
			mustGet(t, d, fmt.Sprintf("k%02d-%04d", b, i), pipelineValue(i))
		}
	}
	m := d.Metrics()
	if m.DegradedTables == 0 || m.DegradedDur <= 0 {
		t.Errorf("metrics missing degraded-mode history: tables=%d dur=%s",
			m.DegradedTables, m.DegradedDur)
	}
}

// TestOutageReadsErrCloudUnavailable verifies the read-path contract during
// an outage: data held locally (here, the memtable) keeps serving, while a
// cold read that genuinely needs a cloud block surfaces ErrCloudUnavailable
// — a typed error, not a hang or a generic failure.
func TestOutageReadsErrCloudUnavailable(t *testing.T) {
	o := testOptions(PolicyCloudOnly)
	// The read's last retry must find the breaker still open: a cooldown
	// shorter than a scheduling hiccup lets it through as a probe, which
	// fails with the raw fault.
	o.CloudBreaker.Cooldown = 100 * time.Millisecond
	d, faulty, err := OpenAtChaos(t.TempDir(), o, storage.FaultConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	for i := 0; i < 100; i++ {
		mustPut(t, d, fmt.Sprintf("cold%04d", i), pipelineValue(i))
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	mustPut(t, d, "hot", "in-memtable")

	faulty.StartOutage(0)
	// The memtable key is local state; the outage must not affect it.
	mustGet(t, d, "hot", "in-memtable")
	// The flushed keys live only in the cloud tier (no pcache under
	// PolicyCloudOnly) and the block cache is cold: the read must fail with
	// the typed outage error.
	if _, err := d.Get([]byte("cold0000")); !errors.Is(err, ErrCloudUnavailable) {
		t.Fatalf("cold cloud read during outage = %v, want ErrCloudUnavailable", err)
	}

	faulty.EndOutage()
	// After the cooldown a probe closes the breaker and reads recover.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := d.Get([]byte("cold0000")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("reads did not recover after the outage ended")
		}
		time.Sleep(5 * time.Millisecond)
	}
	mustGet(t, d, "cold0099", pipelineValue(99))
}

// TestOutageSoak runs concurrent writers across a scripted outage window.
// No write may fail — flushes degrade, compactions defer — and after the
// outage ends every acknowledged key must be present and the pending
// backlog fully drained. Run under -race this doubles as the concurrency
// soak for the degraded-mode machinery.
func TestOutageSoak(t *testing.T) {
	d, faulty := openFaultyTest(t, PolicyCloudOnly, storage.FaultConfig{})
	defer d.Close()

	const writers, perWriter = 4, 250
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < perWriter; i++ {
				k := fmt.Sprintf("w%02d-%05d", w, i)
				if err := d.Put([]byte(k), []byte(pipelineValue(i))); err != nil {
					t.Errorf("put %s during outage: %v", k, err)
					return
				}
			}
		}(w)
	}
	close(start)
	time.Sleep(5 * time.Millisecond)
	faulty.StartOutage(0)
	time.Sleep(30 * time.Millisecond)
	faulty.EndOutage()
	wg.Wait()

	if err := d.Flush(); err != nil {
		t.Fatalf("final flush: %v", err)
	}
	waitForDrain(t, d, 10*time.Second)
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			mustGet(t, d, fmt.Sprintf("w%02d-%05d", w, i), pipelineValue(i))
		}
	}
}

// TestDrainUnreadableSourceDoesNotSpin pins the drainer's behaviour when an
// off-home table cannot be read from the tier it sits on: the round ends and
// the next tick retries, instead of re-picking the same table in a hot loop.
// Once the table is readable again the backlog drains and nothing is lost.
func TestDrainUnreadableSourceDoesNotSpin(t *testing.T) {
	o := testOptions(PolicyCloudOnly)
	d, lf, cf, err := OpenAtChaosLocal(t.TempDir(), o, storage.FaultConfig{}, storage.FaultConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// The table is unreadable from before it exists: a drain round that read
	// it first could still be retrying its upload when the outage ends, and
	// land it with no read counted.
	var reads atomic.Int64
	lf.SetHook(func(op, name string) error {
		if op == "GET" && strings.HasPrefix(name, "sst/") {
			reads.Add(1)
			return errors.New("injected EIO")
		}
		return nil
	})
	cf.StartOutage(0)
	const nkeys = 100
	for i := 0; i < nkeys; i++ {
		mustPut(t, d, fmt.Sprintf("k%04d", i), pipelineValue(i))
	}
	if err := d.Flush(); err != nil {
		t.Fatalf("flush during outage must degrade, not fail: %v", err)
	}
	if n, _ := d.PendingCloudTables(); n == 0 {
		t.Fatal("outage flush left no pending-upload backlog")
	}

	// Count the rounds of the window only.
	reads.Store(0)
	cf.EndOutage()
	const window = time.Second
	time.Sleep(window)
	// One read per round; rounds come from the ticker plus a wake-up per
	// breaker close. Four per interval is generous; the spin made millions.
	if got, max := reads.Load(), 4*int64(window/drainEvery(o)); got == 0 || got > max {
		t.Fatalf("drainer read the unreadable table %d times in %s, want 1..%d", got, window, max)
	}
	if n, _ := d.PendingCloudTables(); n == 0 {
		t.Fatal("unreadable pending table left the backlog without being drained")
	}

	lf.SetHook(nil)
	waitForDrain(t, d, 10*time.Second)
	for i := 0; i < nkeys; i++ {
		mustGet(t, d, fmt.Sprintf("k%04d", i), pipelineValue(i))
	}
}

// TestRelocateRetiredMidCopy runs a relocation, in each direction, against
// the two things that can hold or take its table meanwhile. A reader that
// pinned the table before the move keeps reading the copy on the old tier —
// which stays there, with its own handle, until the reader closes, and goes
// then. And a compaction that retires the table while its copy to the home
// tier is in flight: the relocation must notice under the manifest lock,
// install nothing, and remove the copy it made (and, in the cloud, its
// sidecar).
func TestRelocateRetiredMidCopy(t *testing.T) {
	for _, tc := range []struct {
		name    string
		policy  Policy
		toCloud bool
	}{
		{"to cloud", PolicyCloudOnly, true},
		{"to local", PolicyMash, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := testOptions(tc.policy)
			// One failed flush must not trip a breaker: the test wants the
			// home tier healthy again the moment the hook stops failing.
			o.CloudBreaker.FailureThreshold = 100
			o.LocalBreaker.FailureThreshold = 100
			// The second off-home table must wait for the test's own
			// CompactAll, a third flush, before anything compacts it away.
			o.L0CompactTrigger = 3
			d, lf, cf, err := OpenAtChaosLocal(t.TempDir(), o, storage.FaultConfig{}, storage.FaultConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			home, away, backlog := lf, cf, d.MisplacedTables
			if tc.toCloud {
				home, away = cf, lf
				backlog = func() int { n, _ := d.PendingCloudTables(); return n }
			}
			relocated := func() int64 {
				if tc.toCloud {
					return d.Metrics().DrainedTables
				}
				return d.Metrics().LocalDrainedBack
			}
			model := map[string]string{}
			load := func(batch int) {
				for i := 0; i < 60; i++ {
					k := fmt.Sprintf("k%02d-%04d", batch, i)
					mustPut(t, d, k, pipelineValue(i))
					model[k] = pipelineValue(i)
				}
			}
			list := func(f *storage.Faulty, prefix string) []string {
				names, err := f.List(prefix)
				if err != nil {
					t.Fatal(err)
				}
				return names
			}
			// landOffHome flushes one batch while the home tier refuses
			// tables, so the table lands on the other tier.
			landOffHome := func(batch int) {
				home.SetHook(func(op, name string) error {
					if op == "PUT" && strings.HasPrefix(name, "sst/") {
						return errors.New("injected home-tier failure")
					}
					return nil
				})
				load(batch)
				if err := d.Flush(); err != nil {
					t.Fatalf("flush with the home tier failing must land off home: %v", err)
				}
				if backlog() != 1 {
					t.Fatalf("off-home backlog = %d after one degraded flush, want 1", backlog())
				}
			}

			// A reader across the move. It pins the version that names the
			// table off home; the home tier recovers and the table moves.
			landOffHome(0)
			it, err := d.NewIterator()
			if err != nil {
				t.Fatal(err)
			}
			e := d.engines[0]
			oldMeta := it.parts[0].hold.v.Levels[0][0]
			table := manifest.TableName(oldMeta.Num)
			home.SetHook(nil)
			waitFor(t, "the off-home table to be relocated", 10*time.Second, func() bool { return backlog() == 0 })
			newMeta := e.vs.Current().Levels[0][0]
			if newMeta.Num != oldMeta.Num || newMeta.Tier == oldMeta.Tier {
				t.Fatalf("relocation turned %s into %s", oldMeta, newMeta)
			}
			if !slices.Contains(list(away, "sst/"), table) || !slices.Contains(list(home, "sst/"), table) {
				t.Fatalf("with a reader on the old copy, %s must be on both tiers", table)
			}
			// Each copy has its own handle: one opened for the old metadata
			// must not serve readers of the new, or they lose their object
			// when the old reader closes.
			hOld, err := d.tables.get(e, oldMeta)
			if err != nil {
				t.Fatal(err)
			}
			hNew, err := d.tables.get(e, newMeta)
			if err != nil {
				t.Fatal(err)
			}
			if hOld.tier != oldMeta.Tier || hNew.tier != newMeta.Tier {
				t.Errorf("handles read the %s and %s tiers for metadata on %s and %s",
					hOld.tier, hNew.tier, oldMeta.Tier, newMeta.Tier)
			}
			hOld.release()
			hNew.release()
			walkBothWays(t, "reader across the move", it, model)
			if err := it.Close(); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "the old-tier copy to go with its last reader", 10*time.Second, func() bool {
				return !slices.Contains(list(away, "sst/"), table)
			})
			var want []string
			for k, v := range model {
				want = append(want, k+"="+v)
			}
			sort.Strings(want)
			if got := scanAll(t, d); !slices.Equal(got, want) {
				t.Fatalf("scan after the move: %d keys, want %d", len(got), len(want))
			}
			if n := relocated(); n != 1 {
				t.Fatalf("relocation counter = %d after one move, want 1", n)
			}

			// Retired mid-copy. Another table lands off home.
			landOffHome(1)

			// The home tier recovers, but the relocation's PUT — the first
			// table PUT it sees — hangs until released.
			var (
				mu      sync.Mutex
				victim  string
				entered = make(chan struct{})
				release = make(chan struct{})
				removed = make(chan struct{})
			)
			home.SetHook(func(op, name string) error {
				if !strings.HasPrefix(name, "sst/") {
					return nil
				}
				mu.Lock()
				first := victim == ""
				if first && op == "PUT" {
					victim = name
				}
				mine := name == victim
				mu.Unlock()
				switch {
				case first && op == "PUT":
					close(entered)
					<-release
				case mine && op == "DELETE":
					select {
					case <-removed:
					default:
						close(removed)
					}
				}
				return nil
			})
			select {
			case <-entered:
			case <-time.After(10 * time.Second):
				t.Fatal("drainer never started relocating the off-home table")
			}

			// A compaction retires the table while its copy is in flight.
			load(2)
			if err := d.CompactAll(); err != nil {
				t.Fatal(err)
			}
			if backlog() != 0 {
				t.Fatalf("CompactAll left %d off-home tables, want the one retired", backlog())
			}
			close(release)
			select {
			case <-removed:
			case <-time.After(10 * time.Second):
				t.Fatal("relocation of a retired table did not remove its home-tier copy")
			}

			// No orphan on either tier: the retired table's objects are gone,
			// and what is left is exactly the live tables — each cloud table
			// with its sidecar. The drainer's round had the compaction's
			// inputs pinned while its copy hung, so they go as it ends.
			sidecar := "meta/" + strings.TrimSuffix(strings.TrimPrefix(victim, "sst/"), ".sst") + ".meta"
			waitFor(t, "the retired table's copies to be removed", 10*time.Second, func() bool {
				all := append(append(list(lf, "sst/"), list(cf, "sst/")...), list(lf, "meta/")...)
				return !slices.Contains(all, victim) && !slices.Contains(all, sidecar)
			})
			checkTableObjects(t, d, "after the retired relocation")
			if n := relocated(); n != 1 {
				t.Errorf("relocation counter = %d after a table that was retired, want the 1 from before", n)
			}
			want = want[:0]
			for k, v := range model {
				want = append(want, k+"="+v)
			}
			sort.Strings(want)
			if got := scanAll(t, d); !slices.Equal(got, want) {
				t.Errorf("scan returned %d keys, model has %d (or contents differ)", len(got), len(want))
			}
		})
	}
}

// TestRelocateNeverCarriesDamage damages a table that landed off home during
// a cloud outage, then ends the outage. The drainer must verify the table
// before moving it: it has no clean copy anywhere, so it stays pending on
// the local tier, quarantined and counted once, and nothing reaches the
// cloud. Reads of the damaged block fail with ErrCorruption, the rest of the
// table still reads, and a scrub finds the damage.
func TestRelocateNeverCarriesDamage(t *testing.T) {
	d, faulty := openFaultyTest(t, PolicyCloudOnly, storage.FaultConfig{})
	defer d.Close()

	faulty.StartOutage(0)
	const n = 300
	for i := 0; i < n; i++ {
		mustPut(t, d, fmt.Sprintf("k%05d", i), pipelineValue(i))
	}
	if err := d.Flush(); err != nil {
		t.Fatalf("flush during outage must degrade, not fail: %v", err)
	}
	locals := localTableNums(d)
	if pending, _ := d.PendingCloudTables(); pending != 1 || len(locals) != 1 {
		t.Fatalf("outage flush: %d pending tables, %d local, want 1 and 1", pending, len(locals))
	}
	// Offset 64 lies in the first data block.
	corruptObject(t, d.local, manifest.TableName(locals[0]), 64)
	d.tables.evict(locals[0])
	faulty.EndOutage()

	waitFor(t, "the drainer to find the damage", 5*time.Second, func() bool {
		return d.Metrics().CorruptionsDetected > 0
	})
	// Some more rounds: none may count it again or move it.
	time.Sleep(20 * drainEvery(d.opts))
	m := d.Metrics()
	if m.CorruptionsDetected != 1 || m.CorruptionsUnrepaired != 1 || m.QuarantinedTables != 1 {
		t.Fatalf("detected=%d unrepaired=%d quarantined=%d, want 1, 1 and 1",
			m.CorruptionsDetected, m.CorruptionsUnrepaired, m.QuarantinedTables)
	}
	if pending, _ := d.PendingCloudTables(); pending != 1 || m.DrainedTables != 0 {
		t.Fatalf("%d pending, %d drained: the damaged table moved", pending, m.DrainedTables)
	}
	if names, err := faulty.List("sst/"); err != nil || len(names) != 0 {
		t.Fatalf("cloud tables %v (err %v), want none", names, err)
	}
	if _, err := d.Get([]byte("k00000")); !errors.Is(err, storage.ErrCorruption) {
		t.Fatalf("Get on the damaged block: err %v, want ErrCorruption", err)
	}
	mustGet(t, d, fmt.Sprintf("k%05d", n-1), pipelineValue(n-1))
	if rep := d.Scrub(); rep.Corrupt != 1 {
		t.Fatalf("scrub found %d corrupt artifacts, want 1", rep.Corrupt)
	}
}
