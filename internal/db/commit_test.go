package db

import (
	"fmt"
	"math/rand"
	"sort"
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

// crashTrace drives writer w's deterministic op stream into d and records
// every acked op in model: n ops over 500 keys of w's own, every 11th a
// delete, and a Flush after every 151st.
func crashTrace(d *DB, w, n int, model map[string]string) error {
	rng := rand.New(rand.NewSource(99 + int64(w)))
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("w%d-k%05d", w, rng.Intn(500))
		if i%11 == 10 {
			if err := d.Delete([]byte(k)); err != nil {
				return err
			}
			delete(model, k)
			continue
		}
		v := pipelineValue(i)
		if err := d.Put([]byte(k), []byte(v)); err != nil {
			return err
		}
		model[k] = v
		if i%151 == 150 {
			if err := d.Flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// TestCommitPipelineCrashEquivalence crashes the store mid-stream without a
// clean close, reopens it, and requires the recovered state to equal a model
// of the acked ops. Crash keeps what reached the WAL, so every acked write
// must come back and every acked delete must stay deleted — across memtable
// seals racing concurrent commit groups, and with the writes spread over
// several engines.
func TestCommitPipelineCrashEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name         string
		writers, ops int
	}{
		{"one-writer", 1, 800},
		{"four-writers", 4, 400},
	} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", tc.name, shards), func(t *testing.T) {
				dir := t.TempDir()
				o := testOptions(PolicyLocalOnly)
				o.Shards = shards
				d, err := OpenAt(dir, o)
				if err != nil {
					t.Fatal(err)
				}
				models := make([]map[string]string, tc.writers)
				var wg sync.WaitGroup
				for w := range models {
					models[w] = map[string]string{}
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						if err := crashTrace(d, w, tc.ops, models[w]); err != nil {
							t.Errorf("writer %d: %v", w, err)
						}
					}(w)
				}
				wg.Wait()
				d.Crash()
				if t.Failed() {
					return
				}

				d2, err := OpenAt(dir, o)
				if err != nil {
					t.Fatal(err)
				}
				defer d2.Close()
				var want []string
				for _, m := range models {
					for k, v := range m {
						want = append(want, k+"="+v)
					}
				}
				sort.Strings(want)
				got := scanAll(t, d2)
				if len(got) != len(want) {
					t.Fatalf("recovered %d keys, model has %d", len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("recovered state diverges from the model at %d: got %q, want %q", i, got[i], want[i])
					}
				}
			})
		}
	}
}

// TestCommitGroupStatsAndEvents checks that concurrent committed batches
// produce CommitGroup events and counters that reconcile: batches across
// groups equals total Write calls, and with WALSync the amortized-fsync
// counter equals batches minus groups.
func TestCommitGroupStatsAndEvents(t *testing.T) {
	dir := t.TempDir()
	rec := event.NewRecorder()
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
