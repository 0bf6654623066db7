package db

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rocksmash/internal/event"
	"rocksmash/internal/storage"
)

// openTraced opens a store under dir whose event listener appends every
// event to a JSONL trace at path; closeTraced closes the store, then the
// trace, failing the test on either error.
func openTraced(t *testing.T, dir string, o Options, path string) (d *DB, closeTraced func()) {
	t.Helper()
	tw, err := event.CreateTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	o.EventListener = tw
	if d, err = OpenAt(dir, o); err != nil {
		t.Fatal(err)
	}
	return d, func() {
		t.Helper()
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		if err := tw.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// eventWorkload drives enough writes through d to force several flushes,
// then compacts the whole tree.
func eventWorkload(t *testing.T, d *DB) {
	t.Helper()
	for i := 0; i < 3000; i++ {
		mustPut(t, d, fmt.Sprintf("k%06d", i), pipelineValue(i))
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}
}

// inputRecorder is a Recorder that also notes, at each CompactionBegin, the
// tables the job reserved as its inputs.
type inputRecorder struct {
	*event.Recorder
	d      atomic.Pointer[DB]
	mu     sync.Mutex
	inputs map[uint64]uint64 // table → the job that took it as an input
}

func (r *inputRecorder) OnCompactionBegin(b event.CompactionBegin) {
	e := r.d.Load().engines[b.Shard]
	e.compactionMu.Lock()
	r.mu.Lock()
	for _, c := range e.running {
		if c.job == b.Job {
			for _, f := range c.files() {
				r.inputs[f.Num] = b.Job
			}
		}
	}
	r.mu.Unlock()
	e.compactionMu.Unlock()
	r.Recorder.OnCompactionBegin(b)
}

// TestEventSequence runs a flush→compaction→upload cycle under an all-cloud
// Mash configuration and asserts the recorded event stream: pairing and
// ordering of begin/end events, uploads inside their owning operation, every
// compaction input deleted only after its job's CompactionEnd, and compaction
// stage timings that are nonzero and mutually consistent.
func TestEventSequence(t *testing.T) {
	rec := &inputRecorder{Recorder: event.NewRecorder(), inputs: map[uint64]uint64{}}
	o := testOptions(PolicyMash)
	o.LocalLevels = -1 // every level cloud: flushes upload and warm the pcache
	o.EventListener = rec
	d, err := OpenAt(t.TempDir(), o)
	if err != nil {
		t.Fatal(err)
	}
	rec.d.Store(d) // before the first write, so before any compaction
	eventWorkload(t, d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	events := rec.Events()
	idx := func(typ event.Type) int {
		for i, e := range events {
			if e.Type == typ {
				return i
			}
		}
		return -1
	}

	// Paired begin/end counts.
	for _, pair := range [][2]event.Type{
		{event.TFlushBegin, event.TFlushEnd},
		{event.TCompactionBegin, event.TCompactionEnd},
	} {
		nb, ne := rec.Count(pair[0]), rec.Count(pair[1])
		if nb == 0 || nb != ne {
			t.Errorf("%s=%d %s=%d, want equal and nonzero", pair[0], nb, pair[1], ne)
		}
	}
	if rec.Count(event.TFlushEnd) < 2 {
		t.Errorf("flushes = %d, want >= 2 (workload should seal several memtables)",
			rec.Count(event.TFlushEnd))
	}
	if n := rec.Count(event.TTableUploaded); n < rec.Count(event.TFlushEnd) {
		t.Errorf("table_uploaded = %d, want >= flush count %d", n, rec.Count(event.TFlushEnd))
	}
	for _, typ := range []event.Type{event.TTableDeleted, event.TPCacheAdmit} {
		if rec.Count(typ) == 0 {
			t.Errorf("no %s events", typ)
		}
	}

	// Ordering: the first flush brackets its own upload; compaction follows.
	fb, fe := idx(event.TFlushBegin), idx(event.TFlushEnd)
	up := idx(event.TTableUploaded)
	cb, ce := idx(event.TCompactionBegin), idx(event.TCompactionEnd)
	if !(fb < up && up < fe) {
		t.Errorf("first upload not inside first flush: begin=%d upload=%d end=%d", fb, up, fe)
	}
	if !(fe < cb && cb < ce) {
		t.Errorf("compaction not after first flush: flushEnd=%d begin=%d end=%d", fe, cb, ce)
	}
	// A compaction input is deleted only after the CompactionEnd of the job
	// that made it obsolete: the job retires its inputs last, once it has
	// given back its range and its slot.
	ended := map[uint64]bool{} // jobs whose CompactionEnd has been seen
	deleted := 0
	for i, ev := range events {
		switch p := ev.Payload.(type) {
		case event.CompactionEnd:
			ended[p.Job] = true
		case event.TableDeleted:
			job, ok := rec.inputs[p.Table]
			if !ok {
				continue
			}
			deleted++
			if !ended[job] {
				t.Errorf("table %d deleted at event %d, before the CompactionEnd of job %d, which took it as an input", p.Table, i, job)
			}
		}
	}
	if deleted == 0 {
		t.Error("no compaction input was deleted")
	}

	// Stage timings: nonzero and monotonic where containment holds.
	first, ok := rec.First(event.TCompactionEnd)
	if !ok {
		t.Fatal("no compaction_end event")
	}
	e := first.Payload.(event.CompactionEnd)
	if e.Inputs == 0 || e.Outputs == 0 || e.InputBytes == 0 || e.OutputBytes == 0 {
		t.Errorf("compaction_end missing shape: %+v", e)
	}
	if !(0 < e.ReadDur && e.ReadDur <= e.MergeDur && e.MergeDur <= e.Duration) {
		t.Errorf("stage timings not monotonic: read=%s merge=%s total=%s",
			e.ReadDur, e.MergeDur, e.Duration)
	}
	if e.UploadDur <= 0 {
		t.Errorf("UploadDur = %s, want > 0", e.UploadDur)
	}
	if e.InstallDur <= 0 {
		t.Errorf("InstallDur = %s, want > 0", e.InstallDur)
	}
}

// TestTracePathAcceptance runs a PolicyMash workload with a JSONL trace
// file as its event listener and verifies the trace decodes and covers
// flush, compaction (with stage timings), upload, and pcache activity.
func TestTracePathAcceptance(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.jsonl")
	o := testOptions(PolicyMash)
	o.LocalLevels = -1
	d, closeTraced := openTraced(t, dir, o, path)
	eventWorkload(t, d)
	closeTraced()

	recs, err := event.ReadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[event.Type]bool{}
	for i, rec := range recs {
		e, err := rec.Decode()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		seen[rec.Type] = true
		if ce, ok := e.(event.CompactionEnd); ok {
			if ce.ReadDur <= 0 || ce.MergeDur <= 0 || ce.UploadDur <= 0 || ce.InstallDur <= 0 {
				t.Errorf("record %d: compaction_end stage timing zero: %+v", i, ce)
			}
		}
	}
	for _, typ := range []event.Type{
		event.TFlushBegin, event.TFlushEnd,
		event.TCompactionBegin, event.TCompactionEnd,
		event.TTableUploaded, event.TTableDeleted, event.TPCacheAdmit,
	} {
		if !seen[typ] {
			t.Errorf("trace missing %s events (have %v)", typ, seen)
		}
	}
}

// metricsListener reads engine state from inside callbacks — allowed by the
// listener contract (events fire outside engine locks). The race detector
// turns any lock-ordering mistake into a failure here.
type metricsListener struct {
	event.NopListener
	d     atomic.Pointer[DB]
	fired atomic.Int64
}

func (l *metricsListener) observe() {
	l.fired.Add(1)
	if d := l.d.Load(); d != nil {
		_ = d.Metrics()
	}
}

func (l *metricsListener) OnFlushEnd(event.FlushEnd)           { l.observe() }
func (l *metricsListener) OnCompactionEnd(event.CompactionEnd) { l.observe() }
func (l *metricsListener) OnTableUploaded(event.TableUploaded) { l.observe() }
func (l *metricsListener) OnWriteStallEnd(event.WriteStallEnd) { l.observe() }
func (l *metricsListener) OnPCacheEvict(event.PCacheEvict)     { l.observe() }

// TestListenerConcurrentHammer drives concurrent reads and writes with a
// listener that calls Metrics() from every callback: no deadlock, no race.
func TestListenerConcurrentHammer(t *testing.T) {
	l := &metricsListener{}
	o := testOptions(PolicyMash)
	o.LocalLevels = -1
	o.EventListener = l
	d, err := OpenAt(t.TempDir(), o)
	if err != nil {
		t.Fatal(err)
	}
	l.d.Store(d)

	const (
		writers = 4
		readers = 4
		ops     = 500
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				k := fmt.Sprintf("w%02d-%05d", w, i)
				if err := d.Put([]byte(k), []byte(pipelineValue(i))); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				k := fmt.Sprintf("w%02d-%05d", i%writers, i)
				if _, err := d.Get([]byte(k)); err != nil && err != ErrNotFound {
					t.Errorf("get: %v", err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if l.fired.Load() == 0 {
		t.Error("listener never fired")
	}
}

// TestNilListenerZeroAllocs verifies the overhead policy: with no listener
// attached, every fire helper and the histogram recording path allocate
// nothing.
func TestNilListenerZeroAllocs(t *testing.T) {
	d, _ := openTest(t, PolicyLocalOnly)
	defer d.Close()
	if d.listener != nil {
		t.Fatal("test requires a nil listener")
	}
	retryErr := errors.New("transient")
	allocs := testing.AllocsPerRun(200, func() {
		d.evFlushBegin("memtable")
		d.evFlushEnd(1, 4096, storage.TierLocal, time.Millisecond)
		d.evCompactionBegin(event.CompactionBegin{Level: 0, OutputLevel: 1})
		d.evCompactionEnd(event.CompactionEnd{Level: 0, OutputLevel: 1})
		d.evTableUploaded(1, storage.TierCloud, 4096, 1, time.Millisecond, false)
		d.evTableDeleted(1, storage.TierCloud)
		d.evCloudRetry("put", "tables/000001.sst", 1, retryErr)
		d.evBreakerState("cloud", "closed", "open")
		d.lat.get.Record(time.Microsecond)
		d.lat.put.Record(time.Microsecond)
	})
	if allocs != 0 {
		t.Fatalf("nil-listener instrumentation allocates %.1f bytes-of-objects/op, want 0", allocs)
	}
}
