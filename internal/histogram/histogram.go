// Package histogram provides a concurrency-safe latency histogram with
// logarithmic buckets (HDR-style: power-of-two ranges split into linear
// sub-buckets), used by the benchmark harness for percentile reporting.
package histogram

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

const (
	subBuckets = 16
	// maxExp covers up to ~2^40 ns ≈ 18 minutes.
	maxExp     = 40
	numBuckets = maxExp * subBuckets
)

// H records durations. The zero value is not ready; use New.
type H struct {
	counts [numBuckets]atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64 // ns
	max    atomic.Int64 // ns
	min    atomic.Int64 // ns
}

// New returns an empty histogram.
func New() *H {
	h := &H{}
	h.min.Store(math.MaxInt64)
	return h
}

func bucketFor(ns int64) int {
	if ns < 1 {
		ns = 1
	}
	exp := 63 - bits.LeadingZeros64(uint64(ns))
	if exp >= maxExp {
		return numBuckets - 1
	}
	var sub int64
	if exp > 0 {
		sub = (ns - (1 << exp)) * subBuckets >> exp
	}
	idx := exp*subBuckets + int(sub)
	if idx >= numBuckets {
		idx = numBuckets - 1
	}
	return idx
}

// bucketUpper returns the representative (upper-bound) latency of bucket i.
func bucketUpper(i int) int64 {
	exp := i / subBuckets
	sub := int64(i%subBuckets) + 1
	return (1 << exp) + (sub << exp / subBuckets)
}

// Record adds one observation.
func (h *H) Record(d time.Duration) {
	ns := d.Nanoseconds()
	h.counts[bucketFor(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			break
		}
	}
	for {
		cur := h.min.Load()
		if ns >= cur || h.min.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *H) Count() int64 { return h.count.Load() }

// Mean returns the average latency.
func (h *H) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Max returns the largest observation.
func (h *H) Max() time.Duration {
	if h.count.Load() == 0 {
		return 0
	}
	return time.Duration(h.max.Load())
}

// Min returns the smallest observation.
func (h *H) Min() time.Duration {
	if h.count.Load() == 0 {
		return 0
	}
	return time.Duration(h.min.Load())
}

// Percentile returns the latency at quantile p in [0,100].
func (h *H) Percentile(p float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(p / 100 * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < numBuckets; i++ {
		cum += h.counts[i].Load()
		if cum >= rank {
			return time.Duration(bucketUpper(i))
		}
	}
	return time.Duration(h.max.Load())
}

// Merge folds other into h.
func (h *H) Merge(other *H) {
	for i := range h.counts {
		if n := other.counts[i].Load(); n != 0 {
			h.counts[i].Add(n)
		}
	}
	h.count.Add(other.count.Load())
	h.sum.Add(other.sum.Load())
	if m := other.max.Load(); m > h.max.Load() {
		h.max.Store(m)
	}
	if m := other.min.Load(); m < h.min.Load() {
		h.min.Store(m)
	}
}

// String summarizes the distribution.
func (h *H) String() string {
	return fmt.Sprintf("n=%d mean=%s p50=%s p95=%s p99=%s max=%s",
		h.Count(), h.Mean(), h.Percentile(50), h.Percentile(95), h.Percentile(99), h.Max())
}
