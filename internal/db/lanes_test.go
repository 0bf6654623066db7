package db

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rocksmash/internal/event"
	"rocksmash/internal/keys"
	"rocksmash/internal/manifest"
	"rocksmash/internal/storage"
)

// laneListener holds the first compaction job hold matches in its
// CompactionBegin until release is closed (held closes once it has one), and
// hands every CompactionEnd and every table upload that is not a degraded
// landing to the channels a test reads.
type laneListener struct {
	event.NopListener
	hold     func(event.CompactionBegin) bool
	once     sync.Once
	held     chan struct{}
	release  chan struct{}
	ends     chan event.CompactionEnd
	uploaded chan event.TableUploaded
}

func newLaneListener(hold func(event.CompactionBegin) bool) *laneListener {
	// The event channels hold more events than any test here fires, so an
	// engine goroutine never blocks on a test that has stopped reading.
	return &laneListener{
		hold: hold, held: make(chan struct{}), release: make(chan struct{}),
		ends: make(chan event.CompactionEnd, 1024), uploaded: make(chan event.TableUploaded, 1024),
	}
}

func (l *laneListener) OnCompactionBegin(e event.CompactionBegin) {
	first := false
	if l.hold(e) {
		l.once.Do(func() { first = true })
	}
	if first {
		close(l.held)
		<-l.release
	}
}

func (l *laneListener) OnCompactionEnd(e event.CompactionEnd) { l.ends <- e }

func (l *laneListener) OnTableUploaded(e event.TableUploaded) {
	if !e.Pending {
		l.uploaded <- e
	}
}

// releaseOnce lets a held job go; safe to call more than once.
func (l *laneListener) releaseOnce() {
	select {
	case <-l.release:
	default:
		close(l.release)
	}
}

func (l *laneListener) awaitHeld(t *testing.T) {
	t.Helper()
	select {
	case <-l.held:
	case <-time.After(10 * time.Second):
		t.Fatal("no compaction job reached the hold")
	}
}

// waitFlushed waits on the engine's own condition variable until no sealed
// memtable is waiting for the flush lane.
func waitFlushed(e *engine) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	for e.imm != nil && e.bgErr == nil {
		e.immWake.Wait()
	}
	return e.bgErr
}

// within runs fn and fails the test if it has not returned in 10 seconds.
func within(t *testing.T, what string, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not finish within 10 s", what)
	}
}

// TestFlushNotBehindCompaction: while a compaction job is held, a Flush and a
// writer filling two memtables both complete, and the writer never stalls on
// the memtable — the flush lane waits for no compaction.
func TestFlushNotBehindCompaction(t *testing.T) {
	l := newLaneListener(func(event.CompactionBegin) bool { return true })
	o := testOptions(PolicyMash)
	o.EventListener = l
	d, err := OpenAt(t.TempDir(), o)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	defer l.releaseOnce()
	e := d.engines[0]

	// Two flushed memtables reach the L0 trigger; their compaction is held.
	next := 0
	put := func() error {
		k := fmt.Sprintf("k%06d", next)
		next++
		return d.Put([]byte(k), []byte(pipelineValue(next)))
	}
	for b := 0; b < 2; b++ {
		for i := 0; i < 100; i++ {
			if err := put(); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	l.awaitHeld(t)

	within(t, "Flush", func() error {
		for i := 0; i < 100; i++ {
			if err := put(); err != nil {
				return err
			}
		}
		return d.Flush()
	})
	stalls := d.Metrics().WriteStalls
	within(t, "a writer filling two memtables", func() error {
		for m := 0; m < 2; m++ {
			// Write until the memtable seals, then let its flush finish
			// before the next one fills: at the parent that flush queues
			// behind the held compaction and the writer never gets past it.
			for e.rs.Load().imm == nil {
				if err := put(); err != nil {
					return err
				}
			}
			if err := waitFlushed(e); err != nil {
				return err
			}
		}
		return nil
	})
	if got := d.Metrics().WriteStalls - stalls; got != 0 {
		t.Errorf("the writer stalled %d times while a compaction was held, want 0", got)
	}
	if got := d.Metrics().CompactionsRunning; got != 1 {
		t.Errorf("CompactionsRunning = %d with one job held, want 1", got)
	}
	l.releaseOnce()
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, next - 1} {
		mustGet(t, d, fmt.Sprintf("k%06d", k), pipelineValue(k+1))
	}
}

// TestCompactionsRunConcurrently: an L0→L1 job runs and completes while an
// L2→L3 job over cloud-tier inputs is held — the two share no level.
func TestCompactionsRunConcurrently(t *testing.T) {
	dir := t.TempDir()
	// Build L1 and L2 under a wide level multiplier: the tree ends within
	// shape with a few hundred KiB in L2.
	o := testOptions(PolicyMash)
	o.LevelMultiplier = 10
	d, err := OpenAt(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6000; i++ {
		mustPut(t, d, fmt.Sprintf("k%06d", i), pipelineValue(i))
	}
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopened under a narrow one, L2 is over its target and L1 is not.
	l := newLaneListener(func(e event.CompactionBegin) bool { return e.Level == 2 })
	o.LevelMultiplier = 2
	o.EventListener = l
	d, err = OpenAt(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	defer l.releaseOnce()
	v := d.engines[0].vs.Current()
	if len(v.Levels[2]) == 0 || v.Levels[2][0].Tier != storage.TierCloud {
		t.Fatalf("set-up left L2 = %v, want cloud-tier tables", v.Levels[2])
	}
	if v.LevelSize(1) > uint64(o.LevelBaseBytes) {
		t.Fatalf("set-up left L1 at %d bytes, over its %d target", v.LevelSize(1), o.LevelBaseBytes)
	}

	// The first flush wakes the compaction lane, which starts on L2.
	for i := 0; i < 200; i++ {
		mustPut(t, d, fmt.Sprintf("n%06d", i), pipelineValue(i))
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	l.awaitHeld(t)
	// The second brings L0 to its trigger.
	for i := 200; i < 400; i++ {
		mustPut(t, d, fmt.Sprintf("n%06d", i), pipelineValue(i))
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(10 * time.Second)
	for done := false; !done; {
		select {
		case e := <-l.ends:
			done = e.Level == 0
		case <-deadline:
			t.Fatal("no L0→L1 job finished while the L2→L3 job was held")
		}
	}
	l.releaseOnce()
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}
	mustGet(t, d, "k000000", pipelineValue(0))
	mustGet(t, d, "n000399", pipelineValue(399))
}

// jobChecker checks, at every CompactionBegin, that the job overlaps no job of
// its shard still running on a level they share, that no two L0 jobs of a
// shard run together, and that the store never runs more jobs than it has
// slots.
type jobChecker struct {
	event.NopListener
	mu      sync.Mutex
	running map[uint64]event.CompactionBegin
	jobs    int
	most    int
	errs    []string
}

func (c *jobChecker) OnCompactionBegin(b event.CompactionBegin) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range c.running {
		if r.Shard != b.Shard {
			continue
		}
		shared := b.Level == r.Level || b.Level == r.OutputLevel || b.OutputLevel == r.Level || b.OutputLevel == r.OutputLevel
		overlap := bytes.Compare(b.Smallest, r.Largest) <= 0 && bytes.Compare(r.Smallest, b.Largest) <= 0
		if shared && overlap || b.Level == 0 && r.Level == 0 {
			c.errs = append(c.errs, fmt.Sprintf("job %d (shard %d L%d→L%d %q..%q) began beside job %d (L%d→L%d %q..%q)",
				b.Job, b.Shard, b.Level, b.OutputLevel, b.Smallest, b.Largest,
				r.Job, r.Level, r.OutputLevel, r.Smallest, r.Largest))
		}
	}
	c.running[b.Job] = b
	c.jobs++
	c.most = max(c.most, len(c.running))
	if len(c.running) > compactionSlots {
		c.errs = append(c.errs, fmt.Sprintf("%d jobs running, over the %d slots", len(c.running), compactionSlots))
	}
}

func (c *jobChecker) OnCompactionEnd(e event.CompactionEnd) {
	c.mu.Lock()
	delete(c.running, e.Job)
	c.mu.Unlock()
}

// TestCompactionJobsDisjoint runs a randomized multi-writer load, at Shards 1
// and 4, under the job checker, then compares a full scan with a model.
func TestCompactionJobsDisjoint(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			c := &jobChecker{running: map[uint64]event.CompactionBegin{}}
			o := testOptions(PolicyMash)
			o.Shards = shards
			o.EventListener = c
			d, err := OpenAt(t.TempDir(), o)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()

			const writers, ops, keyspace = 4, 3000, 4000
			models := make([]map[string]string, writers)
			var wg sync.WaitGroup
			for w := range models {
				models[w] = map[string]string{}
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					for i := 0; i < ops; i++ {
						// Each writer owns the keys ≡ w mod writers, so the
						// models never disagree about a key.
						k := fmt.Sprintf("k%06d", rng.Intn(keyspace/writers)*writers+w)
						var err error
						if rng.Intn(10) == 0 {
							err = d.Delete([]byte(k))
							delete(models[w], k)
						} else {
							v := pipelineValue(i)
							err = d.Put([]byte(k), []byte(v))
							models[w][k] = v
						}
						if err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			if err := d.CompactAll(); err != nil {
				t.Fatal(err)
			}
			var want []string
			for _, m := range models {
				for k, v := range m {
					want = append(want, k+"="+v)
				}
			}
			sort.Strings(want)
			if got := scanAll(t, d); !slices.Equal(got, want) {
				t.Errorf("scan returned %d keys, the model has %d (or contents differ)", len(got), len(want))
			}
			c.mu.Lock()
			defer c.mu.Unlock()
			t.Logf("%d jobs, at most %d at once", c.jobs, c.most)
			for _, e := range c.errs {
				t.Error(e)
			}
			if c.jobs == 0 {
				t.Error("the load ran no compaction")
			}
		})
	}
}

// TestRelocateLandsMidCompaction is TestRelocateRetiredMidCopy the other way
// round: the relocation lands while a compaction that picked its tables is
// held. The compaction, which pinned the version it picked from, reads the
// copies on the old tier and installs; both tiers' copies are retired, and a
// scan equals the model.
func TestRelocateLandsMidCompaction(t *testing.T) {
	for _, tc := range []struct {
		name    string
		policy  Policy
		toCloud bool
	}{
		{"to cloud", PolicyCloudOnly, true},
		{"to local", PolicyMash, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := newLaneListener(func(e event.CompactionBegin) bool { return e.Level == 0 })
			o := testOptions(tc.policy)
			o.CloudBreaker.FailureThreshold = 100
			o.L0CompactTrigger = 3
			o.EventListener = l
			d, lf, cf, err := OpenAtChaosLocal(t.TempDir(), o, storage.FaultConfig{}, storage.FaultConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			defer l.releaseOnce()
			home, away, backlog := lf, cf, d.MisplacedTables
			if tc.toCloud {
				home, away = cf, lf
				backlog = func() int { n, _ := d.PendingCloudTables(); return n }
			}
			list := func(f *storage.Faulty) []string {
				names, err := f.List("sst/")
				if err != nil {
					t.Fatal(err)
				}
				sort.Strings(names)
				return names
			}

			// Three flushes land off home while the home tier refuses tables;
			// the third brings L0 to its trigger and the job that takes all
			// three is held before it opens them.
			home.SetHook(func(op, name string) error {
				if op == "PUT" && strings.HasPrefix(name, "sst/") {
					return errors.New("injected home-tier failure")
				}
				return nil
			})
			model := map[string]string{}
			for b := 0; b < 3; b++ {
				for i := 0; i < 60; i++ {
					k := fmt.Sprintf("k%02d-%04d", b, i)
					mustPut(t, d, k, pipelineValue(i))
					model[k] = pipelineValue(i)
				}
				if err := d.Flush(); err != nil {
					t.Fatalf("flush with the home tier failing must land off home: %v", err)
				}
			}
			l.awaitHeld(t)
			victims := list(away)
			if backlog() != 3 || len(victims) != 3 {
				t.Fatalf("off-home backlog %d, %d tables away, want 3 of each", backlog(), len(victims))
			}

			// The home tier recovers and the drainer moves all three while the
			// job is held.
			home.SetHook(nil)
			for moved := 0; moved < 3; {
				select {
				case <-l.uploaded:
					moved++
				case <-time.After(10 * time.Second):
					t.Fatalf("%d of 3 relocations landed while the compaction was held", moved)
				}
			}
			if backlog() != 0 || !slices.Equal(list(home), victims) {
				t.Fatalf("after the moves: backlog %d, home tier %v, want 0 and %v", backlog(), list(home), victims)
			}
			// The held job's pin keeps the copies it will read.
			if got := list(away); !slices.Equal(got, victims) {
				t.Fatalf("old tier holds %v under the held job's pin, want %v", got, victims)
			}

			l.releaseOnce()
			select {
			case e := <-l.ends:
				if e.Level != 0 {
					t.Fatalf("first job to end was L%d, want the held L0 job", e.Level)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("the held compaction did not finish")
			}
			waitFor(t, "both copies of the compacted tables to be retired", 10*time.Second, func() bool {
				all := append(list(home), list(away)...)
				return !slices.ContainsFunc(victims, func(n string) bool { return slices.Contains(all, n) })
			})
			checkTableObjects(t, d, "after the compaction over relocated tables")
			var want []string
			for k, v := range model {
				want = append(want, k+"="+v)
			}
			sort.Strings(want)
			if got := scanAll(t, d); !slices.Equal(got, want) {
				t.Errorf("scan returned %d keys, the model has %d (or contents differ)", len(got), len(want))
			}
		})
	}
}

// heldChecker runs the job checker over every job and then the lane
// listener's hold.
type heldChecker struct {
	*jobChecker
	lane *laneListener
}

func (h heldChecker) OnCompactionBegin(b event.CompactionBegin) {
	h.jobChecker.OnCompactionBegin(b)
	h.lane.OnCompactionBegin(b)
}

// TestCompactAllDeterministic: two identical loads that call CompactAll every
// 300 records, as the benchmark's set-up does, end in the same tree — same
// files, same numbers, same bounds. Halfway through, CompactAll starts while a
// background job is held: it must wait that job out before it flushes, and
// keep the lane paused after, so no two jobs ever run at once.
func TestCompactAllDeterministic(t *testing.T) {
	build := func() string {
		var armed atomic.Bool
		lane := newLaneListener(func(event.CompactionBegin) bool { return armed.Load() })
		c := &jobChecker{running: map[uint64]event.CompactionBegin{}}
		o := testOptions(PolicyMash)
		o.EventListener = heldChecker{c, lane}
		d, err := OpenAt(t.TempDir(), o)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		defer lane.releaseOnce()
		e := d.engines[0]
		put := func(from, to int) {
			for i := from; i < to; i++ {
				mustPut(t, d, fmt.Sprintf("k%06d", i*7919%6000), pipelineValue(i))
			}
		}
		for lo := 0; lo < 6000; lo += 300 {
			// A chunk of 300 records stays short of a full memtable, so only
			// Flush and CompactAll seal one.
			if lo != 3000 {
				put(lo, lo+300)
				if err := d.CompactAll(); err != nil {
					t.Fatal(err)
				}
				continue
			}
			// CompactAll leaves L0 at least one table short of its trigger of
			// two, so one of two flushes starts a background L0 job, held
			// before it opens its inputs. The rest of the chunk stays in the
			// memtable.
			armed.Store(true)
			for _, hi := range []int{lo + 100, lo + 200} {
				put(hi-100, hi)
				if err := d.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			lane.awaitHeld(t)
			put(lo+200, lo+300)
			mem := e.rs.Load().mem
			done := make(chan error, 1)
			go func() { done <- d.CompactAll() }()
			waitFor(t, "CompactAll to pause background picks", 10*time.Second, func() bool {
				e.compactionMu.Lock()
				defer e.compactionMu.Unlock()
				return e.paused > 0
			})
			select {
			case err := <-done:
				t.Fatalf("CompactAll returned (%v) while a background job was held", err)
			default:
			}
			if e.rs.Load().mem != mem {
				t.Fatal("CompactAll flushed while a background job was held")
			}
			lane.releaseOnce()
			within(t, "CompactAll after the held job", func() error { return <-done })
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		for _, e := range c.errs {
			t.Error(e)
		}
		if c.most != 1 {
			t.Errorf("%d jobs ran at once, want CompactAll's and the held job one at a time", c.most)
		}
		return levelShape(d)
	}
	a, b := build(), build()
	if a != b {
		t.Errorf("two identical loads gave different trees:\n%s\nvs\n%s", a, b)
	}
	if strings.Count(a, "\n") < 3 {
		t.Errorf("the load built only %q; the test wants several levels", a)
	}
}

// TestPickMinOverlapRatio: on a hand-built version, a level ≥ 1 job takes the
// source file that rewrites the fewest output-level bytes per byte it moves
// down, ties in key order; it passes over a file whose range, on either of its
// levels, a running job holds, counting on the output level the whole range
// of the tables it would rewrite, which may reach past the file's own; and
// scoring allocates nothing beyond the job it returns.
func TestPickMinOverlapRatio(t *testing.T) {
	meta := func(num uint64, lo, hi string, size uint64) *manifest.FileMetadata {
		return &manifest.FileMetadata{Num: num, Size: size,
			Smallest: keys.MakeInternalKey(nil, []byte(lo), 1, keys.KindSet),
			Largest:  keys.MakeInternalKey(nil, []byte(hi), 1, keys.KindSet)}
	}
	v := manifest.NewVersion()
	v.Levels[1] = []*manifest.FileMetadata{
		meta(1, "a", "c", 100), // overlaps 10, 11, 12: ratio 3
		meta(2, "d", "f", 100), // overlaps 13: ratio 0.5
		meta(3, "g", "i", 100), // overlaps 14: ratio 0.5, after 2 in key order
		meta(4, "j", "l", 100), // overlaps 15: ratio 2
		meta(5, "n", "p", 100), // overlaps 16, which reaches past it: ratio 0.5
	}
	v.Levels[2] = []*manifest.FileMetadata{
		meta(10, "a", "a", 100), meta(11, "b", "b", 100), meta(12, "c", "c", 100),
		meta(13, "e", "e", 50), meta(14, "h", "h", 50), meta(15, "j", "k", 200),
		meta(16, "m", "q", 50),
	}
	d := &engine{}
	running := func(level int, lo, hi string) *compaction {
		return &compaction{level: level, output: level + 1, lo: []byte(lo), hi: []byte(hi)}
	}
	for _, tc := range []struct {
		name    string
		running *compaction
		want    uint64 // 0: no job
	}{
		{"lowest ratio, ties in key order", nil, 2},
		{"source range held at L1", running(1, "d", "f"), 3},
		{"output range held at L2", running(2, "h", "h"), 5},
		{"overlap past the file held at L2", running(2, "q", "q"), 4},
		{"both levels held by an L0 job", running(0, "a", "z"), 0},
	} {
		if tc.running != nil {
			d.running = append(d.running, tc.running)
		}
		c := d.jobAt(v, 1)
		var got uint64
		if c != nil {
			got = c.inputs[0].Num
		}
		if got != tc.want {
			t.Fatalf("%s: picked L1 file %d, want %d (0: no job)", tc.name, got, tc.want)
		}
		if c == nil {
			continue
		}
		i, j := v.OverlapRange(2, keys.UserKey(c.inputs[0].Smallest), keys.UserKey(c.inputs[0].Largest))
		if want := v.Levels[2][i:j]; !slices.Equal(c.overlap, want) {
			t.Errorf("%s: overlap %v, want %v", tc.name, c.overlap, want)
		}
		job := testing.AllocsPerRun(100, func() { d.jobAt(v, 1) })
		winner := testing.AllocsPerRun(100, func() { newCompaction(v, 1, []*manifest.FileMetadata{c.inputs[0]}) })
		if job != winner {
			t.Errorf("%s: a pick allocates %.0f times, building the chosen job alone %.0f", tc.name, job, winner)
		}
	}
}

// stallListener is a laneListener that also reports each writer stall on L0.
type stallListener struct {
	*laneListener
	l0 chan struct{}
}

func (s stallListener) OnWriteStallBegin(e event.WriteStallBegin) {
	if e.Reason == "l0" {
		wake(s.l0)
	}
}

// TestCompactAllWakesL0StalledWriter: a writer stalls on L0 while CompactAll's
// job that drains L0 is held, with background picks paused so no background
// job can follow it. Once the job installs, the writer must go on.
func TestCompactAllWakesL0StalledWriter(t *testing.T) {
	l := stallListener{newLaneListener(func(e event.CompactionBegin) bool { return e.Level == 0 }), make(chan struct{}, 1)}
	o := testOptions(PolicyMash)
	o.L0StallFiles = 3
	o.EventListener = l
	d, err := OpenAt(t.TempDir(), o)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	defer l.releaseOnce()
	e := d.engines[0]
	// Pause background picks the way a CompactAll already running does; only
	// the CompactAll below compacts.
	e.compactionMu.Lock()
	e.paused++
	e.compactionMu.Unlock()

	next := 0
	put := func() error {
		next++
		return d.Put([]byte(fmt.Sprintf("k%06d", next)), []byte(pipelineValue(next)))
	}
	// Two flushed tables reach the L0 trigger; a third is in the memtable.
	for b := 0; b < 3; b++ {
		for i := 0; i < 100; i++ {
			if err := put(); err != nil {
				t.Fatal(err)
			}
		}
		if b < 2 {
			if err := d.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// CompactAll flushes the third, which puts L0 at its stall limit, and its
	// L0→L1 job is held.
	compacted := make(chan error, 1)
	go func() { compacted <- d.CompactAll() }()
	l.awaitHeld(t)

	// A writer fills the memtable and stalls on L0; it is done once it has
	// sealed that memtable.
	wrote := make(chan error, 1)
	go func() {
		for mem := e.rs.Load().mem; e.rs.Load().mem == mem; {
			if err := put(); err != nil {
				wrote <- err
				return
			}
		}
		wrote <- nil
	}()
	select {
	case <-l.l0:
	case err := <-wrote:
		t.Fatalf("the writer sealed a memtable (%v) with L0 at its stall limit", err)
	case <-time.After(10 * time.Second):
		t.Fatal("the writer never stalled on L0")
	}

	l.releaseOnce()
	within(t, "CompactAll", func() error { return <-compacted })
	within(t, "the writer stalled on L0", func() error { return <-wrote })
}

// TestRetireAfterSlot: a job retires its inputs only after it has given back
// its range and its slot. Job A's cloud DELETEs hang, and so, behind them,
// does the retirement of every job after it. Meanwhile a writer keeps L0 at
// its stall limit, and more L0→L1 jobs than there are slots must begin and
// end: each overlaps A's range on both levels, and the last could not start
// if the jobs stuck retiring still held their slots. Were A to retire before
// letting go of its range, none would, and the writer would stay stalled on
// L0.
func TestRetireAfterSlot(t *testing.T) {
	l := newLaneListener(func(event.CompactionBegin) bool { return false })
	o := testOptions(PolicyCloudOnly)
	o.L0StallFiles = 3
	o.EventListener = l
	d, err := OpenAt(t.TempDir(), o)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	e := d.engines[0]
	deleting, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	d.cloudSim.SetFailureHook(func(op, name string) error {
		if op == "DELETE" {
			once.Do(func() { close(deleting) })
			<-release
		}
		return nil
	})
	defer close(release)

	next := 0
	put := func() error {
		next++
		return d.Put([]byte(fmt.Sprintf("k%06d", next%200)), []byte(pipelineValue(next)))
	}
	// Two flushes reach the L0 trigger. Job A takes both, installs, and hangs
	// in the first DELETE of its inputs.
	for b := 0; b < 2; b++ {
		for i := 0; i < 100; i++ {
			if err := put(); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-deleting:
	case <-time.After(10 * time.Second):
		t.Fatal("job A never began deleting its inputs")
	}

	// A writer seals memtables over the same keys until stopped. Past three
	// flushes it stalls on L0 until an L0→L1 job drains it.
	stop, wrote := make(chan struct{}), make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				wrote <- nil
				return
			default:
			}
			for mem := e.rs.Load().mem; e.rs.Load().mem == mem; {
				if err := put(); err != nil {
					wrote <- err
					return
				}
			}
		}
	}()
	deadline := time.After(10 * time.Second)
	for l0Jobs := 0; l0Jobs <= compactionSlots; {
		select {
		case ev := <-l.ends:
			if ev.Level == 0 {
				l0Jobs++
			}
		case err := <-wrote:
			t.Fatalf("writer: %v", err)
		case <-deadline:
			t.Fatalf("with job A's DELETEs held, %d L0→L1 jobs ended (A's included), want %d", l0Jobs, compactionSlots+1)
		}
	}
	close(stop)
	within(t, "the writer stalled on L0", func() error { return <-wrote })
}
