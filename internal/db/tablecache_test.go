package db

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
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

// TestTableCacheHandleLifetime checks the one rule that keeps a table
// handle open: a reader's version pin. A handle the cache evicts stays open
// while a reader that pinned before the eviction may still read it, closes
// once those pins are gone (a later pin does not hold it), and the tables
// open are at most the cap plus those waiting on such a pin. Then it races
// the rule: four readers — two Getting, two scanning — read a fixed model
// while the cache serves at most two tables, so nearly every probe evicts or
// reopens one; meanwhile a writer rewrites the model's keys with the values
// they already have, so flushes and compactions retire the tables under the
// readers without changing an answer, and one flush lands off home and is
// relocated. Every value read must be the model's, and no table reader is
// read once closed. Afterwards the cache is within its cap, every handle is
// published only in the slot of a live FileMetadata naming its copy, the
// tiers hold exactly the current version's tables, and Close leaves no table
// reader open.
func TestTableCacheHandleLifetime(t *testing.T) {
	t.Run("pins", testHandlesClosePastPins)
	t.Run("race", testHandleLifetimeRace)
}

func testHandlesClosePastPins(t *testing.T) {
	o := testOptions(PolicyLocalOnly)
	o.L0CompactTrigger = 100
	o.L0StallFiles = 400
	d, _, open := openCountingTables(t, o)
	defer d.Close()
	const tables = 6
	for tb := 0; tb < tables; tb++ {
		for i := 0; i < 50; i++ {
			mustPut(t, d, fmt.Sprintf("t%d-%03d", tb, i), fmt.Sprint(tb))
		}
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	e, tc := d.engines[0], d.tables
	tc.mu.Lock()
	tc.maxOpen = 2
	tc.enforceCapLocked()
	tc.mu.Unlock()
	mapped := func(h *tableHandle) bool {
		tc.mu.Lock()
		defer tc.mu.Unlock()
		return tc.tables[h.key] == h
	}
	// waiting returns the open table readers beyond the cached ones, which
	// the store's gauges and its metadata bytes must count.
	waiting := func() int64 {
		t.Helper()
		tc.mu.Lock()
		n, cached := open.Load()-int64(len(tc.ring)), int64(len(tc.ring))
		tc.mu.Unlock()
		m := d.Metrics()
		if m.TablesClosing != n || m.TablesOpenPeak < cached+n || (tc.closingMeta.Load() > 0) != (n > 0) {
			t.Fatalf("%d readers open beyond %d cached: gauges read %d closing (%d metadata bytes), peak %d",
				n, cached, m.TablesClosing, tc.closingMeta.Load(), m.TablesOpenPeak)
		}
		return n
	}
	// churn Gets from every table until hs are all evicted.
	churn := func(hs ...*tableHandle) {
		t.Helper()
		for round := 0; ; round++ {
			if !slices.ContainsFunc(hs, mapped) {
				return
			}
			if round == 20 {
				t.Fatal("20 rounds of Gets evicted no handle")
			}
			for tb := 0; tb < tables; tb++ {
				mustGet(t, d, fmt.Sprintf("t%d-%03d", tb, round), fmt.Sprint(tb))
			}
		}
	}
	if n := waiting(); n != 0 {
		t.Fatalf("%d table readers open beyond the cached ones with no pin held", n)
	}

	v1 := e.vs.Acquire()
	var held []*tableHandle
	for _, f := range v1.Levels[0][:2] {
		h, err := tc.get(e, f)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, h)
	}
	churn(held...)
	if n := waiting(); n < 2 {
		t.Fatalf("%d evicted table readers open while the pin they were handed under lives, want at least 2", n)
	}
	for _, h := range held {
		if _, err := h.readRepaired(h.reader.DataHandle(0)); err != nil {
			t.Fatalf("table %d, evicted under a live pin: %v", h.key>>1, err)
		}
	}
	v2 := e.vs.Acquire() // after the evictions: it holds none of them
	e.unpin(v1)
	if n := waiting(); n != 0 {
		t.Fatalf("%d evicted table readers still open once the pins before their eviction are gone", n)
	}

	h, err := tc.get(e, v2.Levels[0][0])
	if err != nil {
		t.Fatal(err)
	}
	churn(h)
	if n := waiting(); n < 1 {
		t.Fatal("the table evicted under the second pin closed while it lives")
	}
	e.unpin(v2)
	if n := waiting(); n != 0 {
		t.Fatalf("%d evicted table readers still open with no pin held", n)
	}
}

func testHandleLifetimeRace(t *testing.T) {
	o := testOptions(PolicyCloudOnly)
	o.CloudBreaker.FailureThreshold = 100 // the failed upload must not trip it
	// L0 reaches the trigger every third round, where the test compacts, so
	// the off-home table landed in between is still there for the drainer.
	o.L0CompactTrigger = 4
	d, cf, open := openCountingTables(t, o)
	closed := false
	defer func() {
		if !closed {
			d.Close()
		}
	}()
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
	// lets go of its iterator's pin: wait for them before counting.
	for _, e := range d.engines {
		e.scanTails.Wait()
	}

	// Evictions that raced a pin left the cache over its cap no more than
	// until the next open: make the reads below reopen one table.
	tc := d.tables
	live := map[*atomic.Value]*manifest.FileMetadata{}
	d.engines[0].vs.Current().AllFiles(func(_ int, f *manifest.FileMetadata) { live[f.Slot] = f })
	for _, f := range live {
		tc.evict(keyOf(f.Num, f.Tier))
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
	for _, f := range live {
		if h, _ := f.Slot.Load().(*tableHandle); h != nil && tc.tables[h.key] != h {
			t.Errorf("%s's slot holds an evicted handle", f)
		}
	}
	tc.mu.Unlock()
	checkTableObjects(t, d, "after the race")
	closed = true
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if n := open.Load(); n != 0 {
		t.Errorf("%d table readers still open after Close", n)
	}
}

// TestEvictionCompletesDuringManifestSync holds a flush's manifest edit in
// its fsync, which the version set makes under its mutex, and evicts tables
// meanwhile: each eviction completes and, with no reader pinned, closes its
// table at once.
func TestEvictionCompletesDuringManifestSync(t *testing.T) {
	o := testOptions(PolicyLocalOnly)
	o.L0CompactTrigger = 100
	o.L0StallFiles = 400
	dir := t.TempDir()
	l, err := storage.NewLocal(filepath.Join(dir, "local"))
	if err != nil {
		t.Fatal(err)
	}
	open := new(atomic.Int64)
	gate := &syncGate{Backend: tableReaders{l, open}, entered: make(chan struct{}), release: make(chan struct{})}
	o.pcacheDir = filepath.Join(dir, "pcache")
	d, err := Open(o, gate, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const tables = 4
	for tb := 0; tb < tables; tb++ {
		mustPut(t, d, fmt.Sprintf("t%d", tb), "v")
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	d.tables.mu.Lock()
	d.tables.maxOpen = 1
	d.tables.mu.Unlock()

	gate.armed.Store(true)
	mustPut(t, d, "u", "v")
	flushed := make(chan error, 1)
	go func() { flushed <- d.Flush() }()
	released := false
	defer func() {
		if !released {
			close(gate.release)
		}
	}()
	select {
	case <-gate.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the flush's manifest edit never reached its fsync")
	}
	read := make(chan error, 1)
	go func() {
		for round := 0; round < 3; round++ {
			for tb := 0; tb < tables; tb++ {
				if _, err := d.Get([]byte(fmt.Sprintf("t%d", tb))); err != nil {
					read <- err
					return
				}
			}
		}
		read <- nil
	}()
	select {
	case err := <-read:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Gets that evict tables stalled behind a manifest fsync")
	}
	waitFor(t, "the evicted tables to close", 10*time.Second, func() bool { return open.Load() == 1 })
	released = true
	close(gate.release)
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
}

// syncGate holds the next fsync of a manifest log, once armed, until
// release is closed.
type syncGate struct {
	storage.Backend
	armed            atomic.Bool
	entered, release chan struct{}
}

func (g *syncGate) Unwrap() storage.Backend { return g.Backend }

func (g *syncGate) Create(name string) (storage.Writer, error) {
	w, err := g.Backend.Create(name)
	if err != nil || !strings.HasPrefix(name, "MANIFEST") {
		return w, err
	}
	return gatedWriter{w, g}, nil
}

type gatedWriter struct {
	storage.Writer
	g *syncGate
}

func (w gatedWriter) Sync() error {
	if w.g.armed.CompareAndSwap(true, false) {
		close(w.g.entered)
		<-w.g.release
	}
	return w.Writer.Sync()
}

// openCountingTables opens a store in a fresh directory whose backends count
// in open the table readers open through them, and fail a read through one
// already closed. A cloud store's cloud is behind the returned Faulty.
func openCountingTables(t *testing.T, o Options) (*DB, *storage.Faulty, *atomic.Int64) {
	t.Helper()
	dir := t.TempDir()
	open := new(atomic.Int64)
	l, err := storage.NewLocal(filepath.Join(dir, "local"))
	if err != nil {
		t.Fatal(err)
	}
	var cloud storage.Backend
	var cf *storage.Faulty
	if o.Policy != PolicyLocalOnly {
		c, err := storage.NewCloud(filepath.Join(dir, "cloud"), o.CloudLatency, o.CloudCost)
		if err != nil {
			t.Fatal(err)
		}
		cf = storage.NewFaulty(c, storage.FaultConfig{})
		cloud = tableReaders{cf, open}
	}
	o.pcacheDir = filepath.Join(dir, "pcache")
	d, err := Open(o, tableReaders{l, open}, cloud)
	if err != nil {
		t.Fatal(err)
	}
	return d, cf, open
}

// tableReaders counts the table readers open through a backend.
type tableReaders struct {
	storage.Backend
	open *atomic.Int64
}

func (b tableReaders) Unwrap() storage.Backend { return b.Backend }

func (b tableReaders) Open(name string) (storage.Reader, error) {
	r, err := b.Backend.Open(name)
	if err != nil || !strings.Contains(name, "sst/") {
		return r, err
	}
	b.open.Add(1)
	return &countedReader{Reader: r, open: b.open}, nil
}

type countedReader struct {
	storage.Reader
	open   *atomic.Int64
	closed atomic.Bool
}

func (r *countedReader) ReadAt(p []byte, off int64) (int, error) {
	if r.closed.Load() {
		return 0, errors.New("read through a closed table reader")
	}
	return r.Reader.ReadAt(p, off)
}

func (r *countedReader) Close() error {
	if r.closed.CompareAndSwap(false, true) {
		r.open.Add(-1)
	}
	return r.Reader.Close()
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
