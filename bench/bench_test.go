package main

import (
	"path/filepath"
	"regexp"
	"sync"
	"testing"
	"time"

	"rocksmash/internal/storage"
	"rocksmash/internal/ycsb"
)

// smokeConfig is the benchmark at 1/50 scale against a zero-latency cloud.
func smokeConfig(t *testing.T, trace bool) config {
	return config{
		seed: 20210701, seconds: 0.1, trace: trace, scale: 50, latency: storage.LatencyModel{},
		kernel: time.Millisecond, drainCap: 200 * time.Millisecond, quiet: 40 * time.Millisecond,
		tmpRoot: t.TempDir(), outDir: t.TempDir(),
	}
}

func loadTestCatalogue(t *testing.T) *catalogue {
	t.Helper()
	cat, err := loadCatalogue(filepath.Join("..", catalogueFile))
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// TestSmoke runs all six workloads, untraced and traced, and checks that every
// metric BENCHMARK.json declares comes out once per workload, that no answer
// was wrong, and that the layers interact as the README predicts.
func TestSmoke(t *testing.T) {
	cat := loadTestCatalogue(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	if len(cat.Workloads) != len(workloads) {
		t.Fatalf("%s declares %d workloads, the benchmark has %d", catalogueFile, len(cat.Workloads), len(workloads))
	}
	// The workloads run side by side: set-up waits on fsync most of the time,
	// and nothing here is a timing. The group returns when all six have.
	var mu sync.Mutex
	layer := map[string]map[string]float64{}
	t.Run("workloads", func(t *testing.T) {
		for _, decl := range cat.Workloads {
			w, err := findWorkload(decl.Name)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(w.name, func(t *testing.T) {
				t.Parallel()
				for _, trace := range []bool{false, true} {
					c := smokeConfig(t, trace)
					r, err := w.scaled(c).measure(c, cat, t.TempDir())
					if err != nil {
						t.Fatalf("trace=%v: %v", trace, err)
					}
					want := cat.EndToEnd
					if trace {
						want = cat.PerLayer
					}
					if len(r.Metrics) != len(want) {
						t.Errorf("trace=%v: %d metrics, %d declared", trace, len(r.Metrics), len(want))
					}
					values := map[string]float64{}
					for _, d := range want {
						m, ok := r.Metrics[d.Name]
						if !ok || !name.MatchString(d.Name) || m.Unit != d.Unit {
							t.Errorf("trace=%v: metric %q missing, badly named or with the wrong unit", trace, d.Name)
						}
						if !trace && m.Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, m.Value)
						}
						values[d.Name] = m.Value
					}
					if trace {
						mu.Lock()
						layer[w.name] = values
						mu.Unlock()
					}
					if r.Failed != 0 || !r.Correct || r.Attempted == 0 {
						t.Errorf("trace=%v: attempted %d failed %d", trace, r.Attempted, r.Failed)
					}
				}
			})
		}
	})
	for _, check := range []struct {
		workload, metric string
		ok               func(float64) bool
		want             string
	}{
		{"get_hot", "storage.cloud.get.count_per_kop", func(x float64) bool { return x == 0 }, "0 after warm-up"},
		{"get_cold", "storage.cloud.get.count_per_kop", func(x float64) bool { return x > 100 }, "> 100"},
		{"fill", "storage.cloud.put.count_per_kop", func(x float64) bool { return x > 0 }, "> 0"},
		{"recover", "db.recovery.wal_mb_per_s", func(x float64) bool { return x > 0 }, "> 0"},
	} {
		if x := layer[check.workload][check.metric]; !check.ok(x) {
			t.Errorf("%s: %s = %v, want %s", check.workload, check.metric, x, check.want)
		}
	}
}

// TestCheckerCatchesWrongValue plants a value the model does not expect
// under the most popular key and requires the pass to count failures.
func TestCheckerCatchesWrongValue(t *testing.T) {
	c := smokeConfig(t, false)
	w, err := findWorkload("get_hot")
	if err != nil {
		t.Fatal(err)
	}
	sw := w.scaled(c)
	dir := t.TempDir()
	in := sw.generate(c)
	if err := sw.build(c, dir, in.keys); err != nil {
		t.Fatal(err)
	}
	s, err := openStore(dir, sw.options(c), c.latency, nil)
	if err != nil {
		t.Fatal(err)
	}
	wrong := make([]byte, valueLen)
	fillValue(wrong, 0, 7) // set-up wrote version 1
	if err := s.Put(in.keys.key(0), wrong); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := sw.pass(c, dir, in, false, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed == 0 {
		t.Fatalf("a wrong version under the hottest key went unnoticed in %d reads", r.attempted)
	}
}

func TestCheckRecord(t *testing.T) {
	keys := newKeyTable(4)
	m := newModel(4, 2)
	val := make([]byte, valueLen)
	fillValue(val, 1, 1)
	if !m.checkRecord(keys, ycsb.Key(1), val, len(val), true) {
		t.Error("a record as loaded was rejected")
	}
	for name, bad := range map[string]func() bool{
		"wrong key":      func() bool { return m.checkRecord(keys, ycsb.Key(2), val, len(val), true) },
		"short value":    func() bool { return m.checkRecord(keys, ycsb.Key(1), val, len(val)-1, true) },
		"unknown index":  func() bool { fillValue(val, 9, 1); return m.checkRecord(keys, ycsb.Key(1), val, len(val), false) },
		"future version": func() bool { fillValue(val, 1, 2); return m.checkRecord(keys, ycsb.Key(1), val, len(val), false) },
	} {
		if bad() {
			t.Errorf("%s was accepted", name)
		}
	}
}

func TestHistogram(t *testing.T) {
	var h hist
	for i := 1; i <= 100_000; i++ {
		h.record(time.Duration(i) * time.Microsecond)
	}
	for _, q := range []float64{0.5, 0.99, 0.999} {
		want := q * 100_000 * 1e3
		if got := h.quantile(q); got < want*0.99 || got > want*1.01 {
			t.Errorf("quantile(%v) = %v ns, want %v within 1%%", q, got, want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
}
