package pcache

import (
	"bytes"
	"testing"
)

// TestProbeDoesNotAccount verifies the compaction read path (Probe) serves
// data without perturbing statistics or heat — bulk merges must not look
// like workload traffic.
func TestProbeDoesNotAccount(t *testing.T) {
	both(t, func(t *testing.T, c *PCache) {
		body := bytes.Repeat([]byte("z"), 256)
		c.Put(3, 4096, body)

		got, ok := c.Probe(3, 4096)
		if !ok || !bytes.Equal(got, body) {
			t.Fatalf("probe = ok=%v", ok)
		}
		if _, ok := c.Probe(3, 9999); ok {
			t.Fatal("phantom probe hit")
		}
		s := c.Stats()
		if s.Hits.Load() != 0 || s.Misses.Load() != 0 {
			t.Fatalf("probe counted in stats: hits=%d misses=%d", s.Hits.Load(), s.Misses.Load())
		}
		if h := c.FileHeat(3); h != 0 {
			t.Fatalf("probe counted in heat: %d", h)
		}
	})
}

// TestGetHeatCountsMissesToo verifies heat measures read traffic, not
// cache luck: misses against a file still raise its heat so compaction can
// recognize actively-read ranges.
func TestGetHeatCountsMissesToo(t *testing.T) {
	both(t, func(t *testing.T, c *PCache) {
		for i := 0; i < 5; i++ {
			c.Get(9, uint64(i*1000)) // all misses
		}
		if h := c.FileHeat(9); h != 5 {
			t.Fatalf("heat = %d, want 5 (misses count)", h)
		}
	})
}
