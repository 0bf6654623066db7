package db

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// TestVitalsOnByDefault: a store opened with VitalsInterval at its zero
// default samples every second, and its first sample is taken at Open.
func TestVitalsOnByDefault(t *testing.T) {
	d, _ := openTest(t, PolicyLocalOnly)
	opened := time.Now().UnixNano()
	defer d.Close()
	rep := d.Vitals().Report()
	if rep.IntervalSeconds != 1 || len(rep.Samples) == 0 || rep.Samples[0].UnixNano > opened {
		t.Fatalf("fresh store vitals: interval %vs, %d samples, none taken at Open", rep.IntervalSeconds, len(rep.Samples))
	}
}

// TestVitalsSamplerLifecycle: the store's one sampler accumulates ring
// samples at its interval, stops cleanly on Close (no goroutine
// leak), and stays readable afterwards.
func TestVitalsSamplerLifecycle(t *testing.T) {
	before := runtime.NumGoroutine()
	o := testOptions(PolicyLocalOnly)
	o.VitalsInterval = time.Millisecond
	d, err := OpenAt(t.TempDir(), o)
	if err != nil {
		t.Fatal(err)
	}
	v := d.Vitals()
	mustPut(t, d, "k", "v")
	mustGet(t, d, "k", "v")
	// Wait for a sample taken after the Get: the sampler runs from Open, so
	// the first few samples can all predate the workload.
	sawGet := func() bool {
		all := v.Samples()
		return len(all) > 0 && all[len(all)-1].Reads > 0
	}
	deadline := time.Now().Add(2 * time.Second)
	for (len(v.Samples()) < 3 || !sawGet()) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := len(v.Samples()); got < 3 || !sawGet() {
		t.Fatalf("sampler took %d samples, none after the Get", got)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// The ring stays readable (frozen) after Close, and the latest sample
	// reflects the workload.
	all := v.Samples()
	if len(all) == 0 {
		t.Fatal("ring unreadable after Close")
	}
	if last := all[len(all)-1]; last.Writes == 0 || last.Reads == 0 {
		t.Fatalf("final sample missed the workload: %+v", last)
	}
	// All background goroutines (sampler included) must be gone.
	deadline = time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines grew %d -> %d after Close", before, after)
	}
}

// TestVitalsSampleSnapshot takes a sample of a store with real traffic: it
// is timestamped, and the cumulative counters and level arrays it carries
// are populated coherently.
func TestVitalsSampleSnapshot(t *testing.T) {
	d, _ := openTest(t, PolicyLocalOnly)
	defer d.Close()
	fillKeys(t, d, 1500, 100)
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Get([]byte("key000001")); err != nil && err != ErrNotFound {
		t.Fatal(err)
	}
	s := d.VitalsSample()
	if s.UnixNano == 0 {
		t.Error("sample has no timestamp")
	}
	if s.Writes == 0 || s.BytesWritten == 0 || s.Flushes == 0 {
		t.Errorf("write counters empty: %+v", s)
	}
	if s.Compactions == 0 || s.CompactBytesOut == 0 {
		t.Errorf("compaction counters empty: %+v", s)
	}
	if len(s.LevelFiles) == 0 || len(s.LevelWriteAmp) != len(s.LevelFiles) {
		t.Errorf("level arrays inconsistent: files=%d in=%d", len(s.LevelFiles), len(s.LevelWriteAmp))
	}
	var in, out int64
	for _, lw := range s.LevelWriteAmp {
		in += lw.BytesInSource + lw.BytesInTarget
		out += lw.BytesOut
	}
	if in != s.CompactBytesIn || out != s.CompactBytesOut {
		t.Errorf("per-level compaction bytes (in=%d out=%d) != totals (in=%d out=%d)",
			in, out, s.CompactBytesIn, s.CompactBytesOut)
	}
	if len(s.Shards) != 0 {
		t.Errorf("unsharded store reported Shards: %v", s.Shards)
	}
}

// TestLevelWriteAmpReconciles: the per-level compaction ledger must sum
// exactly to the store-wide CompactBytesIn/Out counters, and the windowed
// write-amp identity (FlushBytes+CompactBytesOut)/BytesWritten must hold.
func TestLevelWriteAmpReconciles(t *testing.T) {
	for _, shards := range []int{1, 2} {
		name := "unsharded"
		if shards > 1 {
			name = "sharded"
		}
		t.Run(name, func(t *testing.T) {
			o := testOptions(PolicyLocalOnly)
			o.Shards = shards
			d, err := OpenAt(t.TempDir(), o)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			fillKeys(t, d, 2000, 100)
			if err := d.CompactAll(); err != nil {
				t.Fatal(err)
			}
			m := d.Metrics()
			if m.Compactions == 0 {
				t.Fatal("no compactions ran under test geometry")
			}
			if len(m.LevelWriteAmp) == 0 {
				t.Fatal("Metrics().LevelWriteAmp empty")
			}
			var count, in, out int64
			seen := false
			for _, lw := range m.LevelWriteAmp {
				count += lw.Count
				in += lw.BytesInSource + lw.BytesInTarget
				out += lw.BytesOut
				if lw.Count > 0 {
					seen = true
					if lw.Target != lw.Level+1 {
						t.Errorf("L%d target = %d, want %d", lw.Level, lw.Target, lw.Level+1)
					}
					if lw.WriteAmp() <= 0 {
						t.Errorf("L%d WriteAmp() = %v, want > 0", lw.Level, lw.WriteAmp())
					}
				}
			}
			if !seen {
				t.Fatal("no level recorded a compaction")
			}
			if count != m.Compactions {
				t.Errorf("per-level count sum = %d, Compactions = %d", count, m.Compactions)
			}
			if in != m.CompactBytesIn {
				t.Errorf("per-level bytes-in sum = %d, CompactBytesIn = %d", in, m.CompactBytesIn)
			}
			if out != m.CompactBytesOut {
				t.Errorf("per-level bytes-out sum = %d, CompactBytesOut = %d", out, m.CompactBytesOut)
			}
			if wa := m.WriteAmp(); wa < 1 {
				t.Errorf("cumulative WriteAmp() = %v, want >= 1 after flush+compact", wa)
			}
		})
	}
}

// TestCompactionDebtAndSpaceAmp: a fully-compacted tree owes nothing and
// has space amplification >= 1 (== total/deepest-level bytes).
func TestCompactionDebtAndSpaceAmp(t *testing.T) {
	d, _ := openTest(t, PolicyLocalOnly)
	defer d.Close()
	fillKeys(t, d, 2000, 100)
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}
	m := d.Metrics()
	if m.CompactionDebt != 0 {
		t.Errorf("CompactionDebt = %d after CompactAll, want 0", m.CompactionDebt)
	}
	if m.SpaceAmp < 1 {
		t.Errorf("SpaceAmp = %v, want >= 1", m.SpaceAmp)
	}
}

// TestAllocsWithSamplerRunning: the sampler and the detector it drives run
// off the hot paths, so with a sample every millisecond Put and Get still
// allocate exactly their pinned counts.
func TestAllocsWithSamplerRunning(t *testing.T) {
	o := testOptions(PolicyLocalOnly)
	o.MemtableBytes = 64 << 20 // no flushes during measurement
	o.VitalsInterval = time.Millisecond
	d, err := OpenAt(t.TempDir(), o)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const runs = 2000
	keys := make([][]byte, runs+1) // AllocsPerRun adds one warm-up call
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("vitals-alloc-%06d", i))
	}
	val := make([]byte, 100)
	i := 0
	put := testing.AllocsPerRun(runs, func() {
		if err := d.Put(keys[i], val); err != nil {
			t.Fatal(err)
		}
		i++
	})
	get := testing.AllocsPerRun(runs, func() {
		if _, err := d.Get(keys[0]); err != nil {
			t.Fatal(err)
		}
	})
	if raceEnabled {
		return
	}
	if put != putAllocs || get != getAllocsMemtable {
		t.Errorf("with the sampler running: Put allocates %.3f objects/op, Get %.3f; want %.0f, %.0f",
			put, get, putAllocs, getAllocsMemtable)
	}
}
