package main

import (
	"math/bits"
	"time"
)

// hist is a log-linear latency histogram: 128 linear sub-buckets per power
// of two, so a bucket is at most 1/128 (0.8 %) wide relative to its lower
// edge. It is preallocated, never allocates on record, and is owned by one
// client; clients' histograms are merged once the clock has stopped.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
	max    int64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	// Values up to 2^41 ns (≈ 37 min) fit; larger ones land in the last bucket.
	histBuckets = (41 - histSubBits + 1) * histSub
)

func histBucket(ns int64) int {
	if ns < histSub {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	exp := bits.Len64(uint64(ns)) - 1 // ≥ histSubBits
	sub := int(ns>>(exp-histSubBits)) & (histSub - 1)
	b := (exp-histSubBits+1)*histSub + sub
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// histLower returns the smallest value that lands in bucket b.
func histLower(b int) int64 {
	if b < histSub {
		return int64(b)
	}
	exp := b/histSub - 1 + histSubBits
	return (int64(histSub) + int64(b%histSub)) << (exp - histSubBits)
}

func (h *hist) record(d time.Duration) {
	ns := int64(d)
	h.counts[histBucket(ns)]++
	h.n++
	if ns > h.max {
		h.max = ns
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the q-quantile in nanoseconds, interpolated by rank
// inside its bucket so that two runs do not read the same quantised value.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := float64(histLower(b)), float64(histLower(b+1))
			if hi > float64(h.max) {
				hi = float64(h.max)
			}
			if hi < lo {
				hi = lo
			}
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	return float64(h.max)
}
