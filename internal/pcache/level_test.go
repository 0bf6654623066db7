package pcache

import "testing"

func TestLevelBucketClamps(t *testing.T) {
	cases := []struct{ level, want int }{
		{0, 0}, {3, 3}, {6, 6},
		{-1, LevelUnknown}, {7, LevelUnknown}, {99, LevelUnknown},
	}
	for _, c := range cases {
		if got := LevelBucket(c.level); got != c.want {
			t.Errorf("LevelBucket(%d) = %d, want %d", c.level, got, c.want)
		}
	}
}

// sums returns the per-level hit and miss totals.
func sums(s *Stats) (hits, misses int64) {
	for b := 0; b < LevelBuckets; b++ {
		hits += s.LevelHits[b].Load()
		misses += s.LevelMisses[b].Load()
	}
	return hits, misses
}

func TestPerLevelHitMissCounters(t *testing.T) {
	both(t, func(t *testing.T, c *PCache) {
		body := []byte("per-level-block")

		// File 1 registered at L2: a hit and a miss land in bucket 2.
		c.SetLevel(1, 2)
		c.Put(1, 0, body)
		if _, ok := c.Get(1, 0); !ok {
			t.Fatal("expected hit")
		}
		if _, ok := c.Get(1, 999); ok {
			t.Fatal("expected miss")
		}
		// File 2 never registered: its miss lands in the unknown bucket.
		if _, ok := c.Get(2, 0); ok {
			t.Fatal("expected miss on unknown file")
		}

		s := c.Stats()
		if got := s.LevelHits[2].Load(); got != 1 {
			t.Errorf("L2 hits = %d, want 1", got)
		}
		if got := s.LevelMisses[2].Load(); got != 1 {
			t.Errorf("L2 misses = %d, want 1", got)
		}
		if got := s.LevelMisses[LevelUnknown].Load(); got != 1 {
			t.Errorf("unknown-bucket misses = %d, want 1", got)
		}

		// Re-registration moves future outcomes to the new bucket
		// (compaction installs the same file at a deeper level only via a
		// new file number, but SetLevel must still be last-write-wins).
		c.SetLevel(1, 5)
		c.Get(1, 0)
		if got := s.LevelHits[5].Load(); got != 1 {
			t.Errorf("L5 hits after re-register = %d, want 1", got)
		}

		// DropFile forgets the level: later misses are unknown.
		c.DropFile(1)
		if _, ok := c.Get(1, 0); ok {
			t.Fatal("hit after DropFile")
		}
		if got := s.LevelMisses[LevelUnknown].Load(); got != 2 {
			t.Errorf("unknown-bucket misses after drop = %d, want 2", got)
		}

		// Invariant the Metrics plumbing relies on: per-level buckets sum
		// to the global counters.
		hits, misses := sums(s)
		if hits != s.Hits.Load() || misses != s.Misses.Load() {
			t.Errorf("bucket sums (%d, %d) != globals (%d, %d)",
				hits, misses, s.Hits.Load(), s.Misses.Load())
		}
	})
}

func TestNullPerLevelConsistency(t *testing.T) {
	n, _ := New(Options{})
	n.SetLevel(1, 3) // no-op, but must not panic
	for i := 0; i < 5; i++ {
		if _, ok := n.Get(1, uint64(i)); ok {
			t.Fatal("null cache hit")
		}
	}
	s := n.Stats()
	hits, misses := sums(s)
	if hits != s.Hits.Load() || misses != s.Misses.Load() || misses != 5 {
		t.Errorf("null cache: bucket sums (%d, %d), globals (%d, %d)",
			hits, misses, s.Hits.Load(), s.Misses.Load())
	}
	if got := s.LevelMisses[LevelUnknown].Load(); got != 5 {
		t.Errorf("null cache misses land in unknown bucket: %d, want 5", got)
	}
}
