package histogram

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestEmpty(t *testing.T) {
	h := New()
	if h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 || h.Min() != 0 || h.Percentile(99) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestSingleObservation(t *testing.T) {
	h := New()
	h.Record(1 * time.Millisecond)
	if h.Count() != 1 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Mean() != time.Millisecond {
		t.Fatalf("mean = %s", h.Mean())
	}
	p := h.Percentile(50)
	if p < 900*time.Microsecond || p > 1200*time.Microsecond {
		t.Fatalf("p50 = %s, want ~1ms", p)
	}
}

func TestPercentilesAgainstExactQuantiles(t *testing.T) {
	h := New()
	rng := rand.New(rand.NewSource(3))
	var samples []int64
	for i := 0; i < 20000; i++ {
		ns := int64(rng.Intn(10_000_000) + 1000)
		samples = append(samples, ns)
		h.Record(time.Duration(ns))
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, p := range []float64{50, 90, 99} {
		exact := samples[int(p/100*float64(len(samples)))-1]
		got := h.Percentile(p).Nanoseconds()
		// Log-bucketed: allow ~12.5% relative error (1/subBuckets of a
		// power of two) plus slack.
		lo, hi := float64(exact)*0.85, float64(exact)*1.25
		if float64(got) < lo || float64(got) > hi {
			t.Fatalf("p%.0f = %d, exact %d", p, got, exact)
		}
	}
}

func TestMinMaxMean(t *testing.T) {
	h := New()
	for _, d := range []time.Duration{time.Microsecond, time.Millisecond, 10 * time.Millisecond} {
		h.Record(d)
	}
	if h.Min() != time.Microsecond {
		t.Fatalf("min = %s", h.Min())
	}
	if h.Max() != 10*time.Millisecond {
		t.Fatalf("max = %s", h.Max())
	}
	wantMean := (time.Microsecond + time.Millisecond + 10*time.Millisecond) / 3
	if h.Mean() != wantMean {
		t.Fatalf("mean = %s want %s", h.Mean(), wantMean)
	}
}

func TestMerge(t *testing.T) {
	a, b := New(), New()
	a.Record(time.Millisecond)
	b.Record(3 * time.Millisecond)
	b.Record(5 * time.Millisecond)
	a.Merge(b)
	if a.Count() != 3 {
		t.Fatalf("count = %d", a.Count())
	}
	if a.Max() < 5*time.Millisecond {
		t.Fatalf("max = %s", a.Max())
	}
	if a.Min() > time.Millisecond {
		t.Fatalf("min = %s", a.Min())
	}
}

func TestConcurrentRecord(t *testing.T) {
	h := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				h.Record(time.Duration(i%1000+1) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 80000 {
		t.Fatalf("count = %d", h.Count())
	}
}

func TestTinyAndHugeDurations(t *testing.T) {
	h := New()
	h.Record(0)               // clamped to 1ns
	h.Record(time.Hour * 100) // clamped to top bucket
	if h.Count() != 2 {
		t.Fatal("clamped observations lost")
	}
	if h.Percentile(100) == 0 {
		t.Fatal("top percentile zero")
	}
}

// bucketForShifting is bucketFor as first written, finding the exponent by
// shifting one bit at a time: the reference the bits.LeadingZeros64 form
// must match bucket for bucket.
func bucketForShifting(ns int64) int {
	if ns < 1 {
		ns = 1
	}
	x, lz := uint64(ns), 0
	for x&(1<<63) == 0 && lz < 64 {
		x <<= 1
		lz++
	}
	exp := 63 - lz
	if exp >= maxExp {
		return numBuckets - 1
	}
	var sub int64
	if exp > 0 {
		sub = (ns - (1 << exp)) * subBuckets >> exp
	}
	return min(exp*subBuckets+int(sub), numBuckets-1)
}

func TestBucketForMatchesShifting(t *testing.T) {
	vals := []int64{math.MinInt64, -1, 0, 1, math.MaxInt64}
	for k := 1; k < 63; k++ {
		vals = append(vals, 1<<k-1, 1<<k, 1<<k+1)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 10000; i++ {
		// Spread over every magnitude, not just the top few exponents.
		vals = append(vals, rng.Int63()>>rng.Intn(63))
	}
	for _, v := range vals {
		if got, want := bucketFor(v), bucketForShifting(v); got != want {
			t.Fatalf("bucketFor(%d) = %d, want %d", v, got, want)
		}
	}
}
