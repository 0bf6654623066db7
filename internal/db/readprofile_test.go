package db

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"rocksmash/internal/cache"
	"rocksmash/internal/event"
	"rocksmash/internal/keys"
	"rocksmash/internal/readprof"
	"rocksmash/internal/ycsb"
)

// profKey generates deterministic keys spread across the keyspace.
func profKey(i int) []byte { return []byte(fmt.Sprintf("prof-%06d", i)) }

// loadTiered writes n keys and settles them into the tree so that reads
// have to traverse levels (and, under PolicyMash, tiers).
func loadTiered(t *testing.T, d *DB, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		mustPut(t, d, string(profKey(i)), fmt.Sprintf("val-%06d", i))
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}
}

func TestGetProfiledInvariants(t *testing.T) {
	d, err := OpenAt(t.TempDir(), testOptions(PolicyMash))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	loadTiered(t, d, 2000)
	mustPut(t, d, "memonly", "memval") // stays in the memtable

	// A key served from the tree.
	v, p, err := d.GetProfiled(profKey(123))
	if err != nil || string(v) != "val-000123" {
		t.Fatalf("GetProfiled = %q, %v", v, err)
	}
	if got := p.LevelsProbed(); got < 1 {
		t.Errorf("LevelsProbed = %d, want >= 1", got)
	}
	if p.LevelServed < 0 {
		t.Errorf("LevelServed = %d, want a tree level", p.LevelServed)
	}
	if p.Tables < 1 {
		t.Errorf("Tables = %d, want >= 1", p.Tables)
	}
	if p.BloomNegative > p.BloomChecked {
		t.Errorf("bloom negatives %d > checked %d", p.BloomNegative, p.BloomChecked)
	}
	var tierBlocks int32
	for tier := 0; tier < readprof.NumTiers; tier++ {
		tierBlocks += p.Blocks[tier]
		if p.Blocks[tier] == 0 && p.Bytes[tier] != 0 {
			t.Errorf("tier %d has bytes without blocks", tier)
		}
	}
	if tierBlocks != int32(p.BlocksTotal()) || tierBlocks < 1 {
		t.Errorf("blocks by tier sum %d, BlocksTotal %d", tierBlocks, p.BlocksTotal())
	}
	if p.BytesTotal() <= 0 {
		t.Errorf("BytesTotal = %d, want > 0", p.BytesTotal())
	}
	if !p.Timed || p.TotalNanos <= 0 {
		t.Errorf("profile not timed: timed=%v total=%d", p.Timed, p.TotalNanos)
	}
	if path := p.Path(); path == "" || path == "mem" || path == "none" {
		t.Errorf("Path() = %q for a tree-served key", path)
	}

	// A memtable hit.
	if _, p, err = d.GetProfiled([]byte("memonly")); err != nil {
		t.Fatal(err)
	}
	if p.LevelServed != readprof.LevelMemtable || p.Path() != "mem" {
		t.Errorf("memtable hit: served=%d path=%q", p.LevelServed, p.Path())
	}
	if p.Tables != 0 {
		t.Errorf("memtable hit consulted %d tables", p.Tables)
	}

	// A miss.
	if _, p, err = d.GetProfiled([]byte("prof-missing")); err != ErrNotFound {
		t.Fatalf("missing key: err = %v", err)
	}
	if p.LevelServed != readprof.LevelNone || p.Path() != "none" {
		t.Errorf("miss: served=%d path=%q", p.LevelServed, p.Path())
	}

	// Aggregates saw all three profiled reads.
	ra := d.Metrics().ReadAmp
	if ra.ProfiledGets != 3 || ra.TimedGets != 3 {
		t.Errorf("aggregates: profiled=%d timed=%d, want 3/3", ra.ProfiledGets, ra.TimedGets)
	}
	if ra.MemServes != 1 || ra.NotFound != 1 {
		t.Errorf("aggregates: mem=%d notfound=%d, want 1/1", ra.MemServes, ra.NotFound)
	}
	if ra.BlocksTotal() < 1 || ra.BloomNegative > ra.BloomChecked {
		t.Errorf("aggregates: blocks=%d bloom=%d/%d", ra.BlocksTotal(), ra.BloomNegative, ra.BloomChecked)
	}
}

// TestGetProfiledIdenticalResults reads every key with Get, whose profile
// is timed 1 in 64, and with GetProfiled, which always times it, and
// requires identical answers: the profiler must be an observer, never a
// participant. Both feed the aggregates.
func TestGetProfiledIdenticalResults(t *testing.T) {
	const n = 1500
	d, err := OpenAt(t.TempDir(), testOptions(PolicyMash))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	loadTiered(t, d, n)
	for i := 0; i < n+20; i++ {
		k := profKey(i)
		v1, err1 := d.Get(k)
		v2, _, err2 := d.GetProfiled(k)
		if err1 != err2 || string(v1) != string(v2) {
			t.Fatalf("key %s: Get (%q, %v) != GetProfiled (%q, %v)", k, v1, err1, v2, err2)
		}
	}
	ra := d.Metrics().ReadAmp
	if ra.ProfiledGets != 2*(n+20) {
		t.Errorf("aggregated %d profiled gets, want %d", ra.ProfiledGets, 2*(n+20))
	}
	if ra.TimedGets < n+20 || ra.TimedGets >= 2*(n+20) {
		t.Errorf("aggregated %d timed gets, want every GetProfiled (%d) and a sample of the Gets", ra.TimedGets, n+20)
	}
}

// TestSlowReadTraceRoundTrip drives timed reads (GetProfiled) with a trace listener
// attached and checks the reservoir's SlowRead records survive the JSONL
// round trip with their attribution intact.
func TestSlowReadTraceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.jsonl")
	d, closeTraced := openTraced(t, dir, testOptions(PolicyMash), path)
	loadTiered(t, d, 1000)
	d.engines[0].slow.mu.Lock()
	d.engines[0].slow.keep = 4
	d.engines[0].slow.window = time.Hour // flushed at Close, not mid-run
	d.engines[0].slow.mu.Unlock()
	for i := 0; i < 200; i++ {
		if _, _, err := d.GetProfiled(profKey(i)); err != nil {
			t.Fatal(err)
		}
	}
	closeTraced()

	recs, err := event.ReadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var slows []event.SlowRead
	for _, rec := range recs {
		if rec.Type != event.TSlowRead {
			continue
		}
		e, err := rec.Decode()
		if err != nil {
			t.Fatalf("decode slow read: %v", err)
		}
		slows = append(slows, e.(event.SlowRead))
	}
	if len(slows) == 0 || len(slows) > 4 {
		t.Fatalf("got %d slow-read records, want 1..4 (reservoir keep=4)", len(slows))
	}
	for _, s := range slows {
		if s.Duration <= 0 || s.LevelsProbed < 1 || s.Path == "" {
			t.Errorf("slow read incomplete: %+v", s)
		}
		if !strings.HasPrefix(s.Key, "prof-") {
			t.Errorf("slow read key %q lost its prefix", s.Key)
		}
	}
}

// TestReadAmpDumpStatsConsistent checks the text report renders the same
// numbers Metrics exposes.
func TestReadAmpDumpStatsConsistent(t *testing.T) {
	d, err := OpenAt(t.TempDir(), testOptions(PolicyMash))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	loadTiered(t, d, 800)
	for i := 0; i < 100; i++ {
		if _, err := d.Get(profKey(i)); err != nil {
			t.Fatal(err)
		}
	}
	dump := d.DumpStats()
	ra := d.Metrics().ReadAmp
	want := fmt.Sprintf("Profiled gets: %d (%d timed)", ra.ProfiledGets, ra.TimedGets)
	if !strings.Contains(dump, want) {
		t.Errorf("DumpStats missing %q:\n%s", want, dump)
	}
	if !strings.Contains(dump, "** Read Path **") {
		t.Errorf("DumpStats missing the Read Path section")
	}
	if !strings.Contains(dump, readprof.TierBlockCache.String()) {
		t.Errorf("DumpStats missing the per-tier table")
	}
}

// TestIteratorProfileAggregates verifies scans land in the iterator-side
// aggregates, separate from per-Get read amp.
func TestIteratorProfileAggregates(t *testing.T) {
	d, err := OpenAt(t.TempDir(), testOptions(PolicyMash))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	loadTiered(t, d, 1000)
	it, err := d.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for it.First(); it.Valid(); it.Next() {
		n++
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if n != 1000 {
		t.Fatalf("iterated %d keys, want 1000", n)
	}
	ra := d.Metrics().ReadAmp
	if ra.IterSeeks < 1 {
		t.Errorf("IterSeeks = %d, want >= 1", ra.IterSeeks)
	}
	var blocks int64
	for tier := 0; tier < readprof.NumTiers; tier++ {
		blocks += ra.IterBlocks[tier]
	}
	if blocks < 1 {
		t.Errorf("iterator read %d profiled blocks, want >= 1", blocks)
	}
	if ra.ProfiledGets != 0 {
		t.Errorf("scan leaked into per-Get aggregates: %d profiled gets", ra.ProfiledGets)
	}
}

// TestConcurrentProfiledReads hammers profiled Gets against concurrent
// writers with the commit pipeline active; run under -race this proves the
// profile threading adds no shared-state races.
func TestConcurrentProfiledReads(t *testing.T) {
	d, err := OpenAt(t.TempDir(), testOptions(PolicyMash))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	loadTiered(t, d, 500)

	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers*2)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				if _, err := d.Get(profKey((i * 7) % 500)); err != nil && err != ErrNotFound {
					errs <- err
					return
				}
			}
		}(w)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				if err := d.Put(profKey(w*1000+i), []byte("cv")); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if ra := d.Metrics().ReadAmp; ra.ProfiledGets != workers*300 {
		t.Errorf("profiled %d gets, want %d", ra.ProfiledGets, workers*300)
	}
}

// Allocations per Get: the copy of the value handed to the caller and
// nothing else — the seek key and every block key compared against it live
// on the stack, and routing a Get to its engine allocates nothing. A Get that
// finds no live value has nothing to copy.
const (
	getAllocsMemtable   = 1.0
	getAllocsBlockCache = 1.0
	getAllocsAbsent     = 0.0
)

// allocParityKey is the key the Get allocation pins read.
const allocParityKey = "alloc-parity-key"

// getAllocs measures the allocations of one Get route on a store whose
// sampler runs every millisecond: with the key in the memtable or, flushed,
// in a cached block, and probe present or absent. profiled reads through
// GetProfiled instead of Get.
func getAllocs(t *testing.T, flushed, profiled bool, probe []byte) float64 {
	key := []byte(allocParityKey)
	o := testOptions(PolicyLocalOnly)
	o.MemtableBytes = 64 << 20 // no flushes during measurement
	o.VitalsInterval = time.Millisecond
	d, err := OpenAt(t.TempDir(), o)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	mustPut(t, d, string(key), "v")
	mustPut(t, d, "alloc-parity-zzz", "v") // probes sort inside the table's range
	if flushed {
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
		mustGet(t, d, string(key), "v") // admit the block
	}
	present := bytes.Equal(probe, key)
	return testing.AllocsPerRun(2000, func() {
		var err error
		if profiled {
			_, _, err = d.GetProfiled(probe)
		} else {
			_, err = d.Get(probe)
		}
		if present && err != nil || !present && !errors.Is(err, ErrNotFound) {
			t.Fatalf("Get(%s) = %v", probe, err)
		}
	})
}

// TestGetAllocsProfilerParity pins every Get route to the counts above, and
// requires GetProfiled, whose profile is always timed and copied out, to
// allocate exactly as much: profiling adds no steady-state allocation.
func TestGetAllocsProfilerParity(t *testing.T) {
	key := []byte(allocParityKey)
	for _, c := range []struct {
		name    string
		flushed bool
		probe   []byte
		want    float64
	}{
		{"memtable", false, key, getAllocsMemtable},
		{"block-cache", true, key, getAllocsBlockCache},
		{"absent-memtable", false, []byte("alloc-parity-none"), getAllocsAbsent},
		{"absent-flushed", true, []byte("alloc-parity-none"), getAllocsAbsent},
	} {
		get, profiled := getAllocs(t, c.flushed, false, c.probe), getAllocs(t, c.flushed, true, c.probe)
		if raceEnabled {
			continue
		}
		if get != c.want {
			t.Errorf("%s: Get allocates %.3f objects/op, want %.0f", c.name, get, c.want)
		}
		if profiled != c.want {
			t.Errorf("%s: GetProfiled allocates %.3f objects/op, want %.0f", c.name, profiled, c.want)
		}
	}
}

// Allocations of a forward scan over one flushed table per engine whose
// blocks are in the block cache. Moving allocates nothing, within a block or
// across blocks: the block iterators are re-pointed in place and every key the
// merge compares or yields is assembled in a buffer the iterator owns. Opening
// an iterator, seeking it and stepping once costs a constant number of
// objects. One engine costs 2: the iterator tree, one object that holds the
// iterator, its merge and loser tree, the engine's hold and memtable
// iterators, the child list and the scratch the seek key, skip key, yielded
// key and value start in; and the engine's L0 table iterators, one array
// whose data block keys start in buffers of their own. The table iterator
// moves an ordinal over the table's decoded index and assembles no index
// key. A store of several engines adds one array for their parts (hold and
// memtable iterators), and each further engine its L0 table iterators, so
// four engines cost 6.
const (
	scanAllocsPerNext   = 0.0
	scanAllocsPerSeek   = 2.0
	scanAllocsPerEngine = 1.0
	scanAllocsEngines   = 1.0 // the parts array of a store of several engines
)

func TestScanAllocs(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			perSeek := scanAllocsPerSeek
			if shards > 1 {
				perSeek += scanAllocsEngines + scanAllocsPerEngine*float64(shards-1)
			}
			testScanAllocs(t, shards, perSeek)
		})
	}
}

func testScanAllocs(t *testing.T, shards int, perSeek float64) {
	o := testOptions(PolicyLocalOnly)
	o.MemtableBytes = 64 << 20
	o.Shards = shards
	d, err := OpenAt(t.TempDir(), o)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const n = 600 // ~20 blocks of 1 KiB
	for i := 0; i < n; i++ {
		mustPut(t, d, string(profKey(i)), fmt.Sprintf("val-%06d", i))
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	scan := func(from, to []byte, steps int) {
		it, err := d.NewIterator()
		if err != nil {
			t.Fatal(err)
		}
		it.Seek(from)
		for i := 0; i < steps; i++ {
			it.Next()
		}
		if !it.Valid() || !bytes.Equal(it.Key(), to) {
			t.Fatalf("scan from %s is not on %s after %d steps", from, to, steps)
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
	}
	first, k100, k101, k500 := profKey(0), profKey(100), profKey(101), profKey(500)
	scan(first, profKey(n-1), n-1) // admit every block
	if raceEnabled {
		return
	}

	it, err := d.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	it.Seek(first)
	if got := testing.AllocsPerRun(n/2, it.Next); got != scanAllocsPerNext || !it.Valid() {
		t.Errorf("Next allocates %.3f objects/op (valid=%v), want %.0f", got, it.Valid(), scanAllocsPerNext)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	short := testing.AllocsPerRun(200, func() { scan(k100, k101, 1) })
	long := testing.AllocsPerRun(200, func() { scan(k100, k500, 400) })
	if short != perSeek || long != short {
		t.Errorf("NewIterator+Seek+Close allocates %.1f objects with 1 Next, %.1f with 400, want %.0f for both",
			short, long, perSeek)
	}
}

// BenchmarkGetProfiled is BenchmarkGet with every read timed.
func BenchmarkGetProfiled(b *testing.B) {
	benchmarkGetRoute(b, true, false, benchGeometry{})
}

// BenchmarkGetBlockCache is BenchmarkGet's other route: every key is in a
// flushed table whose blocks all fit the block cache (bloom, index seek,
// cache hit, data-block seek, value copy). bench-keys is the small
// geometry (bench-%08d keys, 100 B values, 1 KiB blocks); ycsb-400B is the
// benchmark's get_hot block shape (ycsb.Key user keys, 400 B values, the
// default 4 KiB blocks).
func BenchmarkGetBlockCache(b *testing.B) {
	b.Run("bench-keys", func(b *testing.B) { benchmarkGetRoute(b, false, true, benchGeometry{}) })
	b.Run("ycsb-400B", func(b *testing.B) {
		keys := make([][]byte, 1<<12)
		for i := range keys {
			keys[i] = ycsb.Key(uint64(i))
		}
		benchmarkGetRoute(b, false, true, benchGeometry{keys: keys, valueLen: 400, blockBytes: DefaultOptions().BlockBytes})
	})
}

// benchGeometry shapes the store a Get benchmark reads; the zero value is
// benchKeys(4096), 100 B values and testOptions' blocks.
type benchGeometry struct {
	keys       [][]byte // 4096 of them
	valueLen   int
	blockBytes int
}

func benchmarkGetRoute(b *testing.B, full, flushed bool, g benchGeometry) {
	o := testOptions(PolicyLocalOnly)
	o.MemtableBytes = 256 << 20
	o.BlockCacheBytes = 8 << 20
	if g.blockBytes > 0 {
		o.BlockBytes = g.blockBytes
	}
	d, err := OpenAt(b.TempDir(), o)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { d.Close() })
	keys := g.keys
	if keys == nil {
		keys = benchKeys(1 << 12)
	}
	val := make([]byte, max(g.valueLen, 100))
	for _, k := range keys {
		if err := d.Put(k, val); err != nil {
			b.Fatal(err)
		}
	}
	if flushed {
		if err := d.Flush(); err != nil {
			b.Fatal(err)
		}
		for _, k := range keys { // admit every block
			if _, err := d.Get(k); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i&(len(keys)-1)]
		if full {
			if _, _, err := d.GetProfiled(k); err != nil {
				b.Fatal(err)
			}
		} else if _, err := d.Get(k); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPooledProfileComesBackZeroed: whatever the pool hands the next request
// — the profile a finished one returned, or a new one — reads as unused.
func TestPooledProfileComesBackZeroed(t *testing.T) {
	p := getProfile()
	p.Timed, p.LevelServed, p.Tables = true, 3, 2
	p.ProbeLevel(3)
	p.Block(readprof.TierCloud, 4096, 5)
	profilePool.Put(p)
	for i := 0; i < 4; i++ {
		if q := getProfile(); *q != *readprof.New() {
			t.Fatalf("getProfile returned a used profile: %+v", *q)
		}
	}
}

// TestCloudScanAllocs: a forward scan over a cloud level whose blocks are in
// no cache reads them in spans, pipelined ahead of the cursor and admitted
// to the block cache as they land. It allocates a constant number of
// objects per NewIterator+Seek+Close and a constant number per landed span
// (the span, its goroutine and its body buffer), however many Nexts it
// takes. The block cache's own entries are born in slabs: over b admissions
// its shards allocate b/cache.SlabEntries slabs, give or take a partly used
// one per shard, and a shard's map may still grow now and then; the check
// allows 16 fewer to 32 more.
func TestCloudScanAllocs(t *testing.T) {
	o := testOptions(PolicyCloudOnly)
	o.L0CompactTrigger = 1        // CompactAll leaves L0 empty
	o.LevelBaseBytes = 64 << 20   // and the whole load in L1
	o.BlockCacheBytes = 256 << 20 // a landed block stays: nothing is evicted or demoted
	// The drainer ticks at a tenth of the breakers' cooldown: keep its
	// rounds out of the measured scans.
	o.CloudBreaker.Cooldown = time.Minute
	o.LocalBreaker.Cooldown = time.Minute
	scans, long := 20, 1000
	if raceEnabled {
		scans, long = 3, 300
	}
	// A span holds about 128 keys and a scan lands about two spans past
	// where it stops, so each measured scan starts 512 keys past the last
	// one's end; the warm-up walks as many keys again.
	measured := scans * (2*256 + long + 256)
	n := 2 * measured
	dir := t.TempDir()
	d, err := OpenAt(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		mustPut(t, d, string(profKey(i)), pipelineValue(i))
	}
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if d, err = OpenAt(dir, o); err != nil { // cold caches
		t.Fatal(err)
	}
	defer d.Close()
	e := d.engines[0]
	v := e.vs.Current()
	if len(v.Levels[1]) < 2 || v.NumFiles() != len(v.Levels[1]) {
		t.Fatalf("want the load in several L1 tables, have %d of %d tables there", len(v.Levels[1]), v.NumFiles())
	}
	// walk takes steps Nexts from from, which must end on to, and waits for
	// the spans it started; its keys are made before the count starts.
	walk := func(from, to []byte, steps int) {
		t.Helper()
		it, err := d.NewIterator()
		if err != nil {
			t.Fatal(err)
		}
		it.Seek(from)
		for i := 0; i < steps; i++ {
			it.Next()
		}
		if !it.Valid() || !bytes.Equal(it.Key(), to) {
			t.Fatalf("scan from %s is not on %s after %d steps", from, to, steps)
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		e.scanTails.Wait() // every span GET landed and admitted
	}
	// Warm up on the upper half: the first scan builds the level's view,
	// opening every member, and the walk grows the block cache's map and
	// ring to hold as many blocks as the measured scans land. A point read
	// in each member opens its cloud object, which the first data read of a
	// table does. Emptied, the cache admits blocks into the ring slots and
	// map room the warm-up made.
	walk(profKey(measured), profKey(n-1), n-measured-1)
	for _, f := range v.Levels[1] {
		if _, err := d.Get(keys.UserKey(f.Smallest)); err != nil {
			t.Fatal(err)
		}
		e.blockCache.InvalidateFile(f.Num)
	}
	next := 0
	for _, steps := range []int{1, long} {
		var allocs, spans, blocks int64
		for i := 0; i < scans; i++ {
			spans0, blocks0 := e.stats.ReadaheadSpans.Load(), e.stats.ReadaheadBlocks.Load()
			from, to := profKey(next), profKey(next+steps)
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			walk(from, to, steps)
			runtime.ReadMemStats(&ms)
			a, s := int64(ms.Mallocs-before), e.stats.ReadaheadSpans.Load()-spans0
			allocs += a
			spans += s
			blocks += e.stats.ReadaheadBlocks.Load() - blocks0
			next += steps + 2*256 // past the spans this scan landed
		}
		if raceEnabled {
			continue
		}
		slabs := blocks / cache.SlabEntries
		rest := allocs - int64(scans)*cloudScanAllocsPerSeek - spans*cloudScanAllocsPerSpan
		t.Logf("%d scans of %d Nexts: %d objects, %d spans, %d blocks: %d beyond the scans' and spans', %d slabs", scans, steps, allocs, spans, blocks, rest, slabs)
		if rest < slabs-numCacheShards || rest > slabs+2*numCacheShards {
			t.Errorf("%d scans of %d Nexts allocate %d objects and land %d spans of %d blocks: %d beyond %d per scan and %d per span, want %d cache slabs, %d fewer to %d more",
				scans, steps, allocs, spans, blocks, rest, cloudScanAllocsPerSeek, cloudScanAllocsPerSpan, slabs, numCacheShards, 2*numCacheShards)
		}
	}
}

const (
	cloudScanAllocsPerSeek = 2
	cloudScanAllocsPerSpan = 3
	numCacheShards         = 16
)
