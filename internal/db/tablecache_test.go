package db

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rocksmash/internal/cache"
	"rocksmash/internal/manifest"
	"rocksmash/internal/storage"
)

// openSmallTableCache opens a store that keeps many L0 tables (compaction
// consolidation off) behind a table cache capped at 8 open tables.
func openSmallTableCache(t *testing.T) *DB {
	t.Helper()
	opts := testOptions(PolicyLocalOnly)
	opts.L0CompactTrigger = 100
	opts.L0StallFiles = 400
	d, err := OpenAt(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	d.tables.mu.Lock()
	d.tables.maxOpen = 8
	d.tables.mu.Unlock()
	return d
}

// TestTableCacheBoundsOpenFiles fills the tree with many small tables and
// verifies the open-table count stays at or below the cap while reads keep
// working.
func TestTableCacheBoundsOpenFiles(t *testing.T) {
	d := openSmallTableCache(t)
	defer d.Close()

	for round := 0; round < 30; round++ {
		for i := 0; i < 50; i++ {
			mustPut(t, d, fmt.Sprintf("r%02d-k%03d", round, i), "v")
		}
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if d.engines[0].vs.Current().NumFiles() < 20 {
		t.Fatalf("fixture built only %d tables", d.engines[0].vs.Current().NumFiles())
	}
	// Touch every table via reads.
	for round := 0; round < 30; round++ {
		mustGet(t, d, fmt.Sprintf("r%02d-k%03d", round, round), "v")
	}
	d.tables.mu.Lock()
	open := len(d.tables.tables)
	d.tables.mu.Unlock()
	// Transiently referenced tables may push slightly over the cap, but after
	// the reads completed everything is idle.
	if open > d.tables.maxOpen {
		t.Fatalf("open tables = %d, cap %d", open, d.tables.maxOpen)
	}
	// Reads still work for evicted tables (they reopen transparently).
	for round := 0; round < 30; round++ {
		mustGet(t, d, fmt.Sprintf("r%02d-k%03d", round, 7), "v")
	}
}

// TestTableCacheSkipsReferencedHandles ensures an iterator's pinned tables
// survive cap enforcement.
func TestTableCacheSkipsReferencedHandles(t *testing.T) {
	d := openSmallTableCache(t)
	defer d.Close()
	for round := 0; round < 20; round++ {
		for i := 0; i < 30; i++ {
			mustPut(t, d, fmt.Sprintf("r%02d-k%03d", round, i), fmt.Sprint(round))
		}
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	it, err := d.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	it.First()
	// Churn the cache with reads while the iterator holds references.
	for round := 0; round < 20; round++ {
		mustGet(t, d, fmt.Sprintf("r%02d-k%03d", round, 3), fmt.Sprint(round))
	}
	// The iterator must still scan correctly to the end.
	n := 0
	for ; it.Valid(); it.Next() {
		n++
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if n != 20*30 {
		t.Fatalf("scan saw %d keys, want %d", n, 20*30)
	}
}

// TestCacheLadder follows cloud blocks down the store's cache ladder: a
// fetched block is admitted to the block cache only, reaches the persistent
// cache when the block cache lets go of it — at the latest on a clean Close —
// and is served from there, without a cloud GET, by the next process.
func TestCacheLadder(t *testing.T) {
	o := testOptions(PolicyMash)
	o.CompactionInheritance = false // nothing but the ladder fills the pcache
	dir := t.TempDir()
	d, err := OpenAt(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	fillKeys(t, d, 3000, 200)
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if d.Metrics().CloudBytes == 0 {
		t.Fatal("data set did not reach the cloud levels")
	}
	readSome := func(d *DB) (cloudGETs int64) {
		before := d.cloud.Stats().Snapshot().GetOps
		for i := 0; i < 3000; i += 40 { // 75 keys: their blocks fit the block cache
			// fillKeys draws keys at random: an absent one reads a block too.
			if _, err := d.Get([]byte(fmt.Sprintf("key%06d", i))); err != nil && !errors.Is(err, ErrNotFound) {
				t.Fatal(err)
			}
		}
		return d.cloud.Stats().Snapshot().GetOps - before
	}
	admitted := d.pcache.Stats().Inserted.Load()
	if gets := readSome(d); gets == 0 {
		t.Fatal("cold reads of cloud tables cost no cloud GET: the test reads nothing cold")
	}
	if now := d.pcache.Stats().Inserted.Load(); now != admitted {
		t.Fatalf("%d blocks admitted to the persistent cache at fetch time; admission is the block cache's eviction", now-admitted)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d, err = OpenAt(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if gets := readSome(d); gets != 0 {
		t.Fatalf("%d cloud GETs for blocks that were resident at a clean Close", gets)
	}
	if m := d.Metrics(); m.PCacheHits == 0 {
		t.Fatal("no persistent-cache hit after a clean restart")
	}
}

// TestTableCacheHandleLifetime races the table cache's lock-free probe
// against everything that takes a handle away. Four readers — two Getting,
// two scanning — read a fixed model while the cache holds at most two open
// tables, so nearly every probe evicts or reopens one; meanwhile a writer
// rewrites the model's keys with the values they already have, so flushes
// and compactions retire the tables under the readers without changing an
// answer, and one flush lands off home and is relocated. Every value read
// must be the model's. Afterwards the cache is within its cap, every cached
// handle is idle and published only in the slot of a live FileMetadata
// naming its copy, and the tiers hold exactly the current version's tables.
func TestTableCacheHandleLifetime(t *testing.T) {
	o := testOptions(PolicyCloudOnly)
	o.CloudBreaker.FailureThreshold = 100 // the failed upload must not trip it
	// L0 reaches the trigger every third round, where the test compacts, so
	// the off-home table landed in between is still there for the drainer.
	o.L0CompactTrigger = 4
	d, _, cf, err := OpenAtChaosLocal(t.TempDir(), o, storage.FaultConfig{}, storage.FaultConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.tables.mu.Lock()
	d.tables.maxOpen = 2
	d.tables.mu.Unlock()

	const n = 400
	key := func(i int) string { return fmt.Sprintf("life-%04d", i) }
	valOf := func(i int) string { return fmt.Sprintf("%d-%s", i, strings.Repeat("v", 90)) }
	write := func(from, to int) {
		for i := from; i < to; i++ {
			mustPut(t, d, key(i), valOf(i))
		}
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	write(0, n)

	var (
		wg    sync.WaitGroup
		reads atomic.Int64
		stop  = make(chan struct{})
		fail  = make(chan error, 4)
	)
	reader := func(id int, read func(rng *rand.Rand) error) {
		defer wg.Done()
		rng := rand.New(rand.NewSource(int64(id)))
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := read(rng); err != nil {
				fail <- fmt.Errorf("reader %d: %w", id, err)
				return
			}
			reads.Add(1)
		}
	}
	get := func(rng *rand.Rand) error {
		i := rng.Intn(n)
		v, err := d.Get([]byte(key(i)))
		if err != nil || string(v) != valOf(i) {
			return fmt.Errorf("Get(%s) = %.12q, %v; want %.12q", key(i), v, err, valOf(i))
		}
		return nil
	}
	scan := func(rng *rand.Rand) error {
		it, err := d.NewIterator()
		if err != nil {
			return err
		}
		defer it.Close()
		i := rng.Intn(n)
		it.Seek([]byte(key(i)))
		for end := min(i+20, n); i < end; i++ {
			if !it.Valid() || string(it.Key()) != key(i) || string(it.Value()) != valOf(i) {
				return fmt.Errorf("scan at %s: valid=%v %s=%.12q (err %v)", key(i), it.Valid(), it.Key(), it.Value(), it.Err())
			}
			it.Next()
		}
		return nil
	}
	for id, read := range []func(*rand.Rand) error{get, get, scan, scan} {
		wg.Add(1)
		go reader(id, read)
	}

	for round := 0; round < 12; round++ {
		// Each round's retirements land among reads.
		from := reads.Load()
		waitFor(t, "the readers to make progress", 10*time.Second, func() bool {
			return reads.Load() >= from+100 || len(fail) > 0
		})
		lo := round * 97 % n
		if round == 4 {
			// This round's table lands locally and the drainer moves it home.
			cf.SetHook(func(op, name string) error {
				if op == "PUT" && strings.HasPrefix(name, "sst/") {
					return errors.New("injected cloud PUT failure")
				}
				return nil
			})
			write(lo, min(lo+60, n))
			cf.SetHook(nil)
			waitFor(t, "the off-home table to be relocated", 10*time.Second, func() bool {
				pending, _ := d.PendingCloudTables()
				return pending == 0
			})
			continue
		}
		write(lo, min(lo+120, n))
		if round%3 == 2 {
			if err := d.CompactAll(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if m := d.Metrics(); m.DrainedTables == 0 || m.Compactions == 0 {
		t.Fatalf("%d tables relocated, %d compactions: the race lacks a mover", m.DrainedTables, m.Compactions)
	}
	close(stop)
	wg.Wait()
	close(fail)
	for err := range fail {
		t.Error(err)
	}
	// A closed scan leaves its span GETs in flight, and the last to land
	// lets go of the member tables its iterator opened: wait for them
	// before counting references.
	for _, e := range d.engines {
		e.scanTails.Wait()
	}

	// Readers holding handles can keep the cache over its cap until the
	// next open enforces it: make the reads below reopen one table with
	// every other handle idle.
	tc := d.tables
	live := map[*atomic.Value]*manifest.FileMetadata{}
	d.engines[0].vs.Current().AllFiles(func(_ int, f *manifest.FileMetadata) { live[f.Slot] = f })
	for _, f := range live {
		tc.evict(f.Num)
		break
	}
	for i := 0; i < n; i++ {
		mustGet(t, d, key(i), valOf(i))
	}
	tc.mu.Lock()
	if len(tc.tables) > tc.maxOpen || len(tc.ring) != len(tc.tables) {
		t.Errorf("%d tables mapped, %d in the ring, cap %d", len(tc.tables), len(tc.ring), tc.maxOpen)
	}
	for i, h := range tc.ring {
		if tc.tables[h.key] != h || h.pos != i {
			t.Errorf("ring slot %d holds table %d, mapped %v at position %d", i, h.key>>1, tc.tables[h.key] == h, h.pos)
		}
		if refs := h.refs.Load(); refs != 1 {
			t.Errorf("idle cached table %d has %d references, want the cache's one", h.key>>1, refs)
		}
		if h.slot == nil {
			continue
		}
		if got, _ := h.slot.Load().(*tableHandle); got != h {
			t.Errorf("table %d is published in a slot holding %p", h.key>>1, got)
		}
		if f := live[h.slot]; f == nil || keyOf(f.Num, f.Tier) != h.key {
			t.Errorf("table %d is published in the slot of no live FileMetadata naming it", h.key>>1)
		}
	}
	tc.mu.Unlock()
	for _, f := range live {
		if h, _ := f.Slot.Load().(*tableHandle); h != nil && h.refs.Load() == 0 {
			t.Errorf("%s's slot holds a closed handle", f)
		}
	}
	checkTableObjects(t, d, "after the race")
}

// TestCompactionReadsLeaveCachesAlone pins the merge rung. Reads warm both
// caches, the inputs' heat and the sketch; then a CompactAll whose inputs
// all live in the cloud must move none of them: no block-cache or
// persistent-cache counter, no input's heat (an open iterator keeps the
// inputs from being retired, which would drop their heat) and no block's
// sketch estimate.
func TestCompactionReadsLeaveCachesAlone(t *testing.T) {
	for _, p := range []Policy{PolicyMash, PolicyCloudLRU} {
		t.Run(p.String(), func(t *testing.T) {
			o := testOptions(p)
			o.LocalLevels = -1 // every table is a cloud table
			o.CompactionInheritance = false
			o.L0StallFiles = 400
			d, err := OpenAt(t.TempDir(), o)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			e := d.engines[0]
			e.compactionMu.Lock()
			e.paused++ // no background job: the flushes wait in L0 for CompactAll
			e.compactionMu.Unlock()
			for round := 0; round < 4; round++ {
				for i := 0; i < 600; i++ {
					mustPut(t, d, fmt.Sprintf("key%05d", i), fmt.Sprintf("v%d-%s", round, strings.Repeat("x", 60)))
				}
				if err := d.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 600; i += 7 {
				if _, err := d.Get([]byte(fmt.Sprintf("key%05d", i))); err != nil {
					t.Fatal(err)
				}
			}
			it, err := d.NewIterator()
			if err != nil {
				t.Fatal(err)
			}
			defer it.Close()

			type state struct {
				bcHits, bcMisses      int64
				bcBlocks              int
				hits, misses, inserts int64
				heat, sketch          []int64
			}
			var inputs []*manifest.FileMetadata
			e.vs.Current().AllFiles(func(_ int, f *manifest.FileMetadata) {
				if f.Tier != storage.TierCloud {
					t.Fatalf("input %d is not a cloud table", f.Num)
				}
				inputs = append(inputs, f)
			})
			snap := func() (s state) {
				s.bcHits, s.bcMisses = d.blockCache.Counters()
				s.bcBlocks = d.blockCache.Len()
				ps := d.pcache.Stats()
				s.hits, s.misses, s.inserts = ps.Hits.Load(), ps.Misses.Load(), ps.Inserted.Load()
				for _, f := range inputs {
					s.heat = append(s.heat, d.pcache.FileHeat(f.Num))
					h, err := d.tables.get(e, f)
					if err != nil {
						t.Fatal(err)
					}
					for _, bh := range h.reader.DataHandles() {
						s.sketch = append(s.sketch, int64(d.sketch.Estimate(cache.Key{FileNum: f.Num, Offset: bh.Offset})))
					}
					h.release()
				}
				return s
			}
			before := snap()
			if before.hits+before.misses == 0 || before.bcBlocks == 0 {
				t.Fatal("the reads warmed no cache")
			}
			compactions := d.Metrics().Compactions
			if err := d.CompactAll(); err != nil {
				t.Fatal(err)
			}
			if d.Metrics().Compactions == compactions {
				t.Fatal("CompactAll compacted nothing")
			}
			if after := snap(); !reflect.DeepEqual(after, before) {
				t.Fatalf("compaction moved the caches:\nbefore %+v\nafter  %+v", before, after)
			}
		})
	}
}

// TestCloudLRUServesNoRottedBlock flips a byte in one block file of the
// generic persistent cache: the Gets that reach it must still return the
// model's values, the damage counted once.
func TestCloudLRUServesNoRottedBlock(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenAt(dir, testOptions(PolicyCloudLRU))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	model := fillKeys(t, d, 3000, 200)
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}
	for k, v := range model { // demotes most blocks out of the 256 KiB block cache
		mustGet(t, d, k, v)
	}
	names, err := filepath.Glob(filepath.Join(dir, "pcache", "*.blk"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no demoted block files (%v)", err)
	}
	var fileNum, off uint64
	if _, err := fmt.Sscanf(filepath.Base(names[0]), "f%d-%d.blk", &fileNum, &off); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(names[0], os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{b[0] ^ 0x01}, 10); err != nil {
		t.Fatal(err)
	}
	f.Close()
	d.blockCache.InvalidateFile(fileNum) // the next read of the block reaches the persistent cache
	for k, v := range model {
		mustGet(t, d, k, v)
	}
	if n := d.Metrics().PCacheCorruptReads; n != 1 {
		t.Fatalf("PCacheCorruptReads = %d, want 1", n)
	}
}
