package db

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"rocksmash/internal/batch"
	"rocksmash/internal/event"
)

// TestCommitPipelineVisibilitySoak runs concurrent writers and readers
// against the pipelined write path. Writer w commits batch j atomically
// containing data keys plus a "latest-w" marker set to j; a reader that
// observes latest-w == j at snapshot seq must find every key of every batch
// j' <= j at that snapshot. A violation means the pending ring published a
// sequence before an earlier one was applied (a visibility gap). Run under
// -race this doubles as the concurrency soak for the skiplist and arena.
func TestCommitPipelineVisibilitySoak(t *testing.T) {
	const (
		writers = 8
		batches = 60
		perB    = 5
	)
	d, _ := openTest(t, PolicyLocalOnly)
	defer d.Close()

	var writersWG, readersWG sync.WaitGroup
	stop := make(chan struct{})
	var violations atomic.Int32

	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for j := 1; j <= batches; j++ {
				b := batch.New()
				for k := 0; k < perB; k++ {
					b.Set([]byte(fmt.Sprintf("w%d-b%04d-k%d", w, j, k)), []byte(fmt.Sprintf("v%d", j)))
				}
				b.Set([]byte(fmt.Sprintf("latest-w%d", w)), []byte(fmt.Sprintf("%04d", j)))
				if err := d.Write(b); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}

	// Readers: snapshot, read a writer's marker, then verify a random
	// earlier batch of that writer is fully visible at the same snapshot.
	for r := 0; r < 4; r++ {
		readersWG.Add(1)
		go func(r int) {
			defer readersWG.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := d.GetSnapshot()
				w := rng.Intn(writers)
				val, err := s.Get([]byte(fmt.Sprintf("latest-w%d", w)))
				if err == ErrNotFound {
					s.Release()
					continue
				}
				if err != nil {
					t.Errorf("reader: %v", err)
					s.Release()
					return
				}
				var j int
				fmt.Sscanf(string(val), "%d", &j)
				probe := 1 + rng.Intn(j)
				for k := 0; k < perB; k++ {
					key := fmt.Sprintf("w%d-b%04d-k%d", w, probe, k)
					if _, err := s.Get([]byte(key)); err != nil {
						violations.Add(1)
						t.Errorf("visibility gap: latest-w%d=%d at seq %d but %s missing: %v",
							w, j, s.Seq(), key, err)
						s.Release()
						return
					}
				}
				s.Release()
			}
		}(r)
	}

	// Readers run until every writer is done, then drain.
	writersWG.Wait()
	close(stop)
	readersWG.Wait()

	if violations.Load() > 0 {
		t.Fatalf("%d visibility violations", violations.Load())
	}
	// All sequences were allocated and published: no holes on success.
	want := uint64(writers * batches * (perB + 1))
	if got := d.LastSequence(); got != want {
		t.Fatalf("lastSeq = %d, want %d", got, want)
	}
}

// TestCommitPipelineCrashEquivalence drives the same deterministic workload
// through the pipelined and serial write paths, crashes both mid-stream
// without a clean close, reopens, and requires identical recovered state —
// the ISSUE's serial-vs-pipeline recovery acceptance check.
func TestCommitPipelineCrashEquivalence(t *testing.T) {
	run := func(disable bool) []string {
		dir := t.TempDir()
		o := testOptions(PolicyLocalOnly)
		o.DisableCommitPipeline = disable
		d, err := OpenAt(dir, o)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 800; i++ {
			k := fmt.Sprintf("k%05d", rng.Intn(500))
			if i%11 == 10 {
				if err := d.Delete([]byte(k)); err != nil {
					t.Fatal(err)
				}
				continue
			}
			if err := d.Put([]byte(k), []byte(pipelineValue(i))); err != nil {
				t.Fatal(err)
			}
			if i%151 == 150 {
				if err := d.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		d.Crash()

		d2, err := OpenAt(dir, o)
		if err != nil {
			t.Fatal(err)
		}
		defer d2.Close()
		return scanAll(t, d2)
	}

	pipelined := run(false)
	serial := run(true)
	if len(pipelined) != len(serial) {
		t.Fatalf("recovered key counts differ: pipeline %d, serial %d", len(pipelined), len(serial))
	}
	for i := range pipelined {
		if pipelined[i] != serial[i] {
			t.Fatalf("recovered state diverges at %d: pipeline %q, serial %q", i, pipelined[i], serial[i])
		}
	}
}

// TestCommitPipelineDisabledServesWrites exercises the serial fallback path
// end to end: batched writes, flush, reads.
func TestCommitPipelineDisabledServesWrites(t *testing.T) {
	dir := t.TempDir()
	o := testOptions(PolicyLocalOnly)
	o.DisableCommitPipeline = true
	d, err := OpenAt(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 300; i++ {
		mustPut(t, d, fmt.Sprintf("k%04d", i), pipelineValue(i))
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		mustGet(t, d, fmt.Sprintf("k%04d", i), pipelineValue(i))
	}
	if n := d.Metrics().CommitGroups; n != 0 {
		t.Fatalf("serial path counted %d commit groups, want 0", n)
	}
}

// TestCommitGroupStatsAndEvents checks that concurrent committed batches
// produce CommitGroup events and counters that reconcile: batches across
// groups equals total Write calls, and with WALSync the amortized-fsync
// counter equals batches minus groups.
func TestCommitGroupStatsAndEvents(t *testing.T) {
	dir := t.TempDir()
	rec := &event.Recorder{}
	o := testOptions(PolicyLocalOnly)
	o.WALSync = true
	o.EventListener = rec
	d, err := OpenAt(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	const writers, puts = 6, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < puts; i++ {
				if err := d.Put([]byte(fmt.Sprintf("w%d-%04d", w, i)), []byte("v")); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	groups := d.Metrics().CommitGroups
	batches := d.Metrics().CommitGroupBatches
	amortized := d.Metrics().WALSyncsAmortized
	if groups == 0 {
		t.Fatal("no commit groups counted")
	}
	if batches != writers*puts {
		t.Fatalf("CommitGroupBatches = %d, want %d", batches, writers*puts)
	}
	if amortized != batches-groups {
		t.Fatalf("WALSyncsAmortized = %d, want batches-groups = %d", amortized, batches-groups)
	}
	if got := rec.Count(event.TCommitGroup); int64(got) != groups {
		t.Fatalf("recorded %d CommitGroup events, stats counted %d groups", got, groups)
	}
	ev, ok := rec.First(event.TCommitGroup)
	if !ok {
		t.Fatal("no CommitGroup event captured")
	}
	cg := ev.Payload.(event.CommitGroup)
	if cg.Batches < 1 || cg.Ops < 1 || !cg.Synced {
		t.Fatalf("malformed CommitGroup payload: %+v", cg)
	}
	m := d.Metrics()
	if m.CommitGroups != groups || m.CommitGroupBatches != batches || m.WALSyncsAmortized != amortized {
		t.Fatalf("Metrics disagrees with Stats: %+v", m)
	}
}

// TestCommitPipelineFlushDuringConcurrentWrites interleaves explicit flushes
// with parallel writers: every acked write must be readable afterwards even
// though memtables rotate mid-group.
func TestCommitPipelineFlushDuringConcurrentWrites(t *testing.T) {
	d, _ := openTest(t, PolicyLocalOnly)
	defer d.Close()

	const writers, puts = 4, 120
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < puts; i++ {
				if err := d.Put([]byte(fmt.Sprintf("w%d-%04d", w, i)), []byte(pipelineValue(i))); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				if w == 0 && i%25 == 24 {
					if err := d.Flush(); err != nil {
						t.Errorf("flush: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < puts; i++ {
			mustGet(t, d, fmt.Sprintf("w%d-%04d", w, i), pipelineValue(i))
		}
	}
}
