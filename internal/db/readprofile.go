package db

import (
	"sync"
	"sync/atomic"
	"time"

	"rocksmash/internal/event"
	"rocksmash/internal/manifest"
	"rocksmash/internal/readprof"
)

// Read-path profiling (see internal/readprof and DESIGN.md §5e). Every Get
// carries a pooled profile whose counter core (levels probed, tables, bloom,
// blocks by tier) is always recorded; 1 in profileSampleRate of them are
// also Timed — they alone read the clock, feed the Get latency histogram and
// the slow-read tracker — and DB.GetProfiled times the one read it makes.
// Profiles are recycled through a sync.Pool so the path stays
// allocation-free in steady state.

// profileSampleRate is how many Gets share one Timed profile.
const profileSampleRate = 64

var profilePool = sync.Pool{New: func() any { return readprof.New() }}

func getProfile() *readprof.Profile {
	p := profilePool.Get().(*readprof.Profile)
	p.Reset()
	return p
}

// sampled reports whether the n-th read (counting from 1) is one of the 1
// in profileSampleRate that are Timed. The first is, so the latency
// histogram has a sample from a store's first Get on. A Get counts itself
// with the engine's Reads counter, an iterator with profTick.
func sampled(n int64) bool { return n%profileSampleRate == 1 }

// newProfile returns an iterator's pooled profile, Timed when sampled.
func (d *engine) newProfile() *readprof.Profile {
	p := getProfile()
	p.Timed = sampled(d.profTick.Add(1))
	return p
}

// readAgg accumulates every Get's profile into lock-free totals. Point
// lookups and iterators aggregate separately so per-get read-amp math is
// not skewed by scans. The count of profiled Gets is the engine's Reads
// counter: every Get carries a profile.
type readAgg struct {
	timed atomic.Int64 // Gets that paid per-stage clock reads

	memServes   atomic.Int64 // Gets resolved by a memtable
	notFound    atomic.Int64 // Gets resolved nowhere
	levelProbes [manifest.NumLevels]atomic.Int64
	levelServes [manifest.NumLevels]atomic.Int64

	tables        atomic.Int64
	bloomChecked  atomic.Int64
	bloomNegative atomic.Int64

	blocks     [readprof.NumTiers]atomic.Int64
	bytes      [readprof.NumTiers]atomic.Int64
	fetchNanos [readprof.NumTiers]atomic.Int64 // Timed profiles only
	totalNanos atomic.Int64                    // Timed profiles only

	iterSeeks  atomic.Int64
	iterBlocks [readprof.NumTiers]atomic.Int64
	iterBytes  [readprof.NumTiers]atomic.Int64
	iterNanos  [readprof.NumTiers]atomic.Int64
}

// merge folds one Get's profile in. An untimed Get pays one add for each
// counter its profile holds — where it was served, the levels it probed, its
// tables, bloom checks and blocks — and none for a zero.
func (a *readAgg) merge(p *readprof.Profile) {
	if p.Timed {
		a.timed.Add(1)
		a.totalNanos.Add(p.TotalNanos)
		for t, ns := range p.FetchNanos {
			a.fetchNanos[t].Add(ns)
		}
	}
	switch p.LevelServed {
	case readprof.LevelMemtable:
		a.memServes.Add(1)
	case readprof.LevelNone:
		a.notFound.Add(1)
	default:
		if l := int(p.LevelServed); l >= 0 && l < manifest.NumLevels {
			a.levelServes[l].Add(1)
		}
	}
	if p.LevelMask != 0 {
		for l := 0; l < manifest.NumLevels; l++ {
			if p.Probed(l) {
				a.levelProbes[l].Add(1)
			}
		}
	}
	if p.Tables != 0 {
		a.tables.Add(int64(p.Tables))
	}
	if p.BloomChecked != 0 {
		a.bloomChecked.Add(int64(p.BloomChecked))
		if p.BloomNegative != 0 {
			a.bloomNegative.Add(int64(p.BloomNegative))
		}
	}
	for t := 0; t < readprof.NumTiers; t++ {
		if p.Blocks[t] != 0 {
			a.blocks[t].Add(int64(p.Blocks[t]))
			a.bytes[t].Add(p.Bytes[t])
		}
	}
}

// snapshot copies the aggregates into a ReadAmp, gets being the engine's
// Get count (pcache per-level counters are filled in by Metrics).
func (a *readAgg) snapshot(gets int64) ReadAmp {
	r := ReadAmp{
		ProfiledGets:  gets,
		TimedGets:     a.timed.Load(),
		MemServes:     a.memServes.Load(),
		NotFound:      a.notFound.Load(),
		Tables:        a.tables.Load(),
		BloomChecked:  a.bloomChecked.Load(),
		BloomNegative: a.bloomNegative.Load(),
		TotalNanos:    a.totalNanos.Load(),
		IterSeeks:     a.iterSeeks.Load(),
	}
	for l := 0; l < manifest.NumLevels; l++ {
		r.LevelProbes[l] = a.levelProbes[l].Load()
		r.LevelServes[l] = a.levelServes[l].Load()
	}
	for t := 0; t < readprof.NumTiers; t++ {
		r.Blocks[t] = a.blocks[t].Load()
		r.Bytes[t] = a.bytes[t].Load()
		r.FetchNanos[t] = a.fetchNanos[t].Load()
		r.IterBlocks[t] = a.iterBlocks[t].Load()
		r.IterBytes[t] = a.iterBytes[t].Load()
		r.IterNanos[t] = a.iterNanos[t].Load()
	}
	return r
}

// mergeIter folds an iterator's lifetime profile into the scan-side
// aggregates when the iterator closes.
func (a *readAgg) mergeIter(p *readprof.Profile, seeks int64) {
	a.iterSeeks.Add(seeks)
	for t := 0; t < readprof.NumTiers; t++ {
		if p.Blocks[t] != 0 {
			a.iterBlocks[t].Add(int64(p.Blocks[t]))
			a.iterBytes[t].Add(p.Bytes[t])
			a.iterNanos[t].Add(p.FetchNanos[t])
		}
	}
}

// finishProfile completes one Get's profile: folds it into the aggregates,
// offers a timed one to the slow-read tracker, and returns it to the pool.
func (d *engine) finishProfile(key []byte, p *readprof.Profile) {
	d.readAgg.merge(p)
	if p.Timed && d.listener != nil {
		d.slow.observe(d, key, p)
	}
	profilePool.Put(p)
}

// Slow-read tracking: a small top-K reservoir of the worst Timed Gets in
// each interval. When the interval rolls over (lazily, on the next timed
// Get, and at Close), the reservoir is emitted as event.SlowRead records
// through the regular listener plumbing.

const (
	defaultSlowKeep   = 8
	defaultSlowWindow = 10 * time.Second
	// slowKeyPrefix bounds the key bytes carried in a SlowRead record.
	slowKeyPrefix = 64
)

type slowRead struct {
	key  []byte
	prof readprof.Profile
}

type slowTracker struct {
	mu        sync.Mutex
	keep      int           // reservoir size (0 = default)
	window    time.Duration // interval length (0 = default)
	windowEnd time.Time
	entries   []slowRead
}

// observe offers one timed profile. Called only when a listener is
// attached; emission of an expired window happens outside the lock.
func (t *slowTracker) observe(d *engine, key []byte, p *readprof.Profile) {
	now := time.Now()
	var emit []slowRead
	t.mu.Lock()
	keep, window := t.keep, t.window
	if keep <= 0 {
		keep = defaultSlowKeep
	}
	if window <= 0 {
		window = defaultSlowWindow
	}
	if t.windowEnd.IsZero() {
		t.windowEnd = now.Add(window)
	} else if now.After(t.windowEnd) {
		emit = t.entries
		t.entries = nil
		t.windowEnd = now.Add(window)
	}
	if len(t.entries) < keep {
		t.entries = append(t.entries, slowRead{key: clipKey(key), prof: *p})
	} else {
		mi := 0
		for i := 1; i < len(t.entries); i++ {
			if t.entries[i].prof.TotalNanos < t.entries[mi].prof.TotalNanos {
				mi = i
			}
		}
		if p.TotalNanos > t.entries[mi].prof.TotalNanos {
			t.entries[mi] = slowRead{key: clipKey(key), prof: *p}
		}
	}
	t.mu.Unlock()
	for i := range emit {
		d.evSlowRead(&emit[i])
	}
}

func clipKey(key []byte) []byte {
	if len(key) > slowKeyPrefix {
		key = key[:slowKeyPrefix]
	}
	return append([]byte(nil), key...)
}

// flushSlowReads emits whatever the current window holds. Close calls it
// before the trace writer shuts down so buffered slow reads are not lost.
func (d *engine) flushSlowReads() {
	d.slow.mu.Lock()
	emit := d.slow.entries
	d.slow.entries = nil
	d.slow.windowEnd = time.Time{}
	d.slow.mu.Unlock()
	for i := range emit {
		d.evSlowRead(&emit[i])
	}
}

func (d *engine) evSlowRead(s *slowRead) {
	l := d.listener
	if l == nil {
		return
	}
	p := &s.prof
	e := event.SlowRead{
		Key:           string(s.key),
		Duration:      time.Duration(p.TotalNanos),
		LevelsProbed:  p.LevelsProbed(),
		LevelServed:   int(p.LevelServed),
		Tables:        int(p.Tables),
		BloomChecked:  int(p.BloomChecked),
		BloomNegative: int(p.BloomNegative),
		Path:          p.Path(),
	}
	for t := 0; t < readprof.NumTiers; t++ {
		e.Blocks[t] = int(p.Blocks[t])
		e.Bytes[t] = p.Bytes[t]
		e.FetchDur[t] = time.Duration(p.FetchNanos[t])
	}
	l.OnSlowRead(e)
}
