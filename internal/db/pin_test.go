package db

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"rocksmash/internal/manifest"
	"rocksmash/internal/storage"
)

// tableObjects lists what the tiers hold for tables — "sst/" on both, and
// the "meta/" sidecars — and what they should hold: an object per table of
// every engine's current version and of every version an open iterator in
// pinned still walks. Names carry the engine and tier.
func tableObjects(t *testing.T, d *DB, pinned ...*Iterator) (have, want []string) {
	t.Helper()
	for i, e := range d.engines {
		list := func(tier string, be storage.Backend, prefix string) {
			names, err := be.List(prefix)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range names {
				have = append(have, fmt.Sprintf("%d/%s:%s", i, tier, n))
			}
		}
		list("local", e.local, "sst/")
		list("local", e.local, "meta/")
		if e.cloud != nil {
			list("cloud", e.cloud, "sst/")
		}

		versions := []*manifest.Version{e.vs.Current()}
		for _, it := range pinned {
			versions = append(versions, it.kids[i].hold.v)
		}
		for _, v := range versions {
			v.AllFiles(func(_ int, f *manifest.FileMetadata) {
				if f.Tier == storage.TierCloud {
					want = append(want,
						fmt.Sprintf("%d/cloud:%s", i, manifest.TableName(f.Num)),
						fmt.Sprintf("%d/local:%s", i, metaSidecarName(f.Num)))
				} else {
					want = append(want, fmt.Sprintf("%d/local:%s", i, manifest.TableName(f.Num)))
				}
			})
		}
	}
	sort.Strings(have)
	sort.Strings(want)
	return have, slices.Compact(want)
}

// checkTableObjects waits for the tiers to hold exactly the tables of the
// current versions and of the versions the given iterators pin: neither a
// pinned table deleted (it would never come back) nor a retired one leaked
// (the drainer removes what the last reader let go of).
func checkTableObjects(t *testing.T, d *DB, step string, pinned ...*Iterator) {
	t.Helper()
	var have, want []string
	deadline := time.Now().Add(10 * time.Second)
	for {
		if have, want = tableObjects(t, d, pinned...); slices.Equal(have, want) {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	var missing, extra []string
	for _, n := range want {
		if !slices.Contains(have, n) {
			missing = append(missing, n)
		}
	}
	for _, n := range have {
		if !slices.Contains(want, n) {
			extra = append(extra, n)
		}
	}
	t.Fatalf("%s: table objects != current ∪ pinned: %d missing %v, %d leaked %v",
		step, len(missing), missing, len(extra), extra)
}

// pinLoad writes n keys whose values carry gen and returns them as a model.
func pinLoad(t *testing.T, d *DB, n int, gen string) map[string]string {
	t.Helper()
	model := make(map[string]string, n)
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key%06d", i)
		v := fmt.Sprintf("%s-%06d-%s", gen, i, strings.Repeat("x", 80))
		mustPut(t, d, k, v)
		model[k] = v
	}
	return model
}

// walkBothWays checks that it yields exactly model, forward and in reverse.
func walkBothWays(t *testing.T, what string, it *Iterator, model map[string]string) {
	t.Helper()
	want := make([]string, 0, len(model))
	for k, v := range model {
		want = append(want, k+"="+v)
	}
	sort.Strings(want)
	var fwd, rev []string
	for it.First(); it.Valid(); it.Next() {
		fwd = append(fwd, string(it.Key())+"="+string(it.Value()))
	}
	for it.Last(); it.Valid(); it.Prev() {
		rev = append(rev, string(it.Key())+"="+string(it.Value()))
	}
	if err := it.Err(); err != nil {
		t.Fatalf("%s: %v (after %d keys forward, %d in reverse)", what, err, len(fwd), len(rev))
	}
	slices.Reverse(rev)
	if !slices.Equal(fwd, want) {
		t.Fatalf("%s forward: %d keys, want the model's %d (or contents differ)", what, len(fwd), len(want))
	}
	if !slices.Equal(rev, want) {
		t.Fatalf("%s reverse: %d keys, want the model's %d (or contents differ)", what, len(rev), len(want))
	}
}

// TestPinMatrix is the table-lifetime rule end to end, for every policy,
// shard count and way a reader gets its views — spliced at install after a
// scan built them (views=true), or built by the reader on the version it
// pins (views=false): readers opened before the data set is
// overwritten and compacted away still read exactly what they were opened
// on, and at every step the tiers hold exactly the tables of the current
// versions and of the versions those readers pin — through release, a crash
// with an iterator open, and a Close with an iterator open.
func TestPinMatrix(t *testing.T) {
	const nkeys = 4000
	for _, p := range []Policy{PolicyMash, PolicyLocalOnly, PolicyCloudOnly, PolicyCloudLRU} {
		for _, shards := range []int{1, 4} {
			for _, views := range []bool{true, false} {
				name := fmt.Sprintf("%s/shards=%d/views=%v", p, shards, views)
				t.Run(name, func(t *testing.T) {
					dir := t.TempDir()
					o := testOptions(p)
					o.Shards = shards
					d, err := OpenAt(dir, o)
					if err != nil {
						t.Fatal(err)
					}
					open := func(d *DB) *Iterator {
						t.Helper()
						it, err := d.NewIterator()
						if err != nil {
							t.Fatal(err)
						}
						return it
					}
					compact := func(d *DB) {
						t.Helper()
						if err := d.CompactAll(); err != nil {
							t.Fatal(err)
						}
						if views {
							// Building every level's view now makes the next
							// compaction's install splice them.
							if err := open(d).Close(); err != nil {
								t.Fatal(err)
							}
						}
					}

					scanFresh := func(d *DB, what string, model map[string]string) {
						t.Helper()
						it := open(d)
						walkBothWays(t, what, it, model)
						if err := it.Close(); err != nil {
							t.Fatal(err)
						}
					}

					gen1 := pinLoad(t, d, nkeys, "one")
					compact(d)
					checkTableObjects(t, d, "loaded")

					// Three readers on the first generation. Only the
					// iterators pin a version; the snapshot is a sequence.
					it := open(d)
					snap := d.GetSnapshot()
					sit, err := snap.NewIterator()
					if err != nil {
						t.Fatal(err)
					}
					gen2 := pinLoad(t, d, nkeys, "two")
					compact(d)
					checkTableObjects(t, d, "overwritten under three readers", it, sit)
					if m := d.Metrics(); m.ObsoleteTables == 0 || m.ObsoleteBytes == 0 {
						t.Errorf("ObsoleteTables = %d, ObsoleteBytes = %d with every first-generation table pinned",
							m.ObsoleteTables, m.ObsoleteBytes)
					}

					walkBothWays(t, "iterator", it, gen1)
					walkBothWays(t, "snapshot iterator", sit, gen1)
					for k, want := range gen1 {
						if got, err := snap.Get([]byte(k)); err != nil || string(got) != want {
							t.Fatalf("snapshot Get(%q) = %q, %v", k, got, err)
						}
					}
					checkTableObjects(t, d, "walked", it, sit)

					// Releasing one reader frees nothing the other holds; the
					// last one out leaves only the current version.
					if err := it.Close(); err != nil {
						t.Fatal(err)
					}
					checkTableObjects(t, d, "one iterator closed", sit)
					if err := sit.Close(); err != nil {
						t.Fatal(err)
					}
					snap.Release()
					checkTableObjects(t, d, "every reader closed")
					if m := d.Metrics(); m.ObsoleteTables != 0 || m.ObsoleteBytes != 0 {
						t.Errorf("ObsoleteTables = %d, ObsoleteBytes = %d with no reader open",
							m.ObsoleteTables, m.ObsoleteBytes)
					}
					scanFresh(d, "fresh iterator", gen2)

					// A crash with an iterator open: what it pinned is swept at
					// the next Open, nothing is lost, nothing deleted twice.
					leaked := open(d)
					gen3 := pinLoad(t, d, nkeys, "three")
					compact(d)
					checkTableObjects(t, d, "before the crash", leaked)
					d.Crash()
					_ = leaked.Close()
					if d, err = OpenAt(dir, o); err != nil {
						t.Fatal(err)
					}
					checkTableObjects(t, d, "reopened after the crash")
					scanFresh(d, "iterator after the crash", gen3)

					// Close with an iterator open: it neither hangs nor deletes
					// a table of the current version, and the iterator's late
					// Close deletes nothing at all.
					held := open(d)
					gen4 := pinLoad(t, d, nkeys, "four")
					compact(d)
					closed := make(chan error, 1)
					go func() { closed <- d.Close() }()
					select {
					case err := <-closed:
						if err != nil {
							t.Fatal(err)
						}
					case <-time.After(30 * time.Second):
						t.Fatal("Close hung with an iterator open")
					}
					_ = held.Close()
					if d, err = OpenAt(dir, o); err != nil {
						t.Fatal(err)
					}
					defer d.Close()
					checkTableObjects(t, d, "reopened after Close")
					scanFresh(d, "iterator after Close", gen4)
				})
			}
		}
	}
}

// goid returns the calling goroutine's id.
func goid() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

// TestNoDeletionOnClientGoroutine holds tables obsolete behind an iterator
// on a cloud whose DELETEs are slow, and checks who pays for them: the
// iterator's Close and a Get return without issuing one, and the drainer
// removes the tables.
func TestNoDeletionOnClientGoroutine(t *testing.T) {
	d, faulty := openFaultyTest(t, PolicyCloudOnly, storage.FaultConfig{})
	defer d.Close()
	pinLoad(t, d, 2000, "one")
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}
	it, err := d.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	gen2 := pinLoad(t, d, 2000, "two")
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}
	pending := d.Metrics().ObsoleteTables
	if pending < 2 {
		t.Fatalf("only %d tables held obsolete by the iterator; the test needs a few", pending)
	}

	const delay = 50 * time.Millisecond
	var (
		mu      sync.Mutex
		deleted = map[string]int{} // goroutine id -> DELETEs of table objects
	)
	faulty.SetHook(func(op, name string) error {
		if op == "DELETE" && strings.HasPrefix(name, "sst/") {
			mu.Lock()
			deleted[goid()]++
			mu.Unlock()
			time.Sleep(delay)
		}
		return nil
	})
	start := time.Now()
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	mustGet(t, d, "key000000", gen2["key000000"])
	elapsed := time.Since(start)

	checkTableObjects(t, d, "drained")
	mu.Lock()
	defer mu.Unlock()
	total := 0
	for _, n := range deleted {
		total += n
	}
	if n := deleted[goid()]; n != 0 {
		t.Errorf("%d cloud DELETEs ran on the goroutine that closed the iterator", n)
	}
	if total < pending {
		t.Errorf("%d cloud DELETEs for %d obsolete tables", total, pending)
	}
	if limit := time.Duration(pending) * delay; elapsed >= limit {
		t.Errorf("Iterator.Close + Get took %s with %d deletions of %s each pending; they must not wait for them",
			elapsed, pending, delay)
	}
}
