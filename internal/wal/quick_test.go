package wal

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"rocksmash/internal/storage"
)

// TestQuickReplayEqualsHistory is the WAL's fundamental property: whatever
// sequence of appends and rolls happened, replay returns exactly the
// appended payloads (order preserved within segments), for any parallelism.
func TestQuickReplayEqualsHistory(t *testing.T) {
	f := func(seed int64, nOps uint8, segBytesExp uint8, parallelism uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		be, err := storage.NewLocal(dir)
		if err != nil {
			return false
		}
		opts := DefaultOptions()
		opts.SegmentBytes = 1 << (segBytesExp%8 + 8) // 256B..32KB
		m, err := Open(be, opts, 1)
		if err != nil {
			return false
		}
		var history []string
		seq := uint64(0)
		for i := 0; i < int(nOps); i++ {
			if rng.Intn(10) == 0 {
				if err := m.Roll(); err != nil {
					return false
				}
				continue
			}
			seq++
			p := fmt.Sprintf("rec-%06d-%d", seq, rng.Int31())
			if _, err := appendOne(m, []byte(p), seq, seq); err != nil {
				return false
			}
			history = append(history, p)
		}
		if err := m.Close(); err != nil {
			return false
		}

		m2, err := Open(be, opts, 1)
		if err != nil {
			return false
		}
		par := int(parallelism%6) + 1
		var got []string
		var mu = make(chan struct{}, 1)
		mu <- struct{}{}
		_, err = m2.Replay(0, par, eachRecord(func(_ uint64, p []byte) error {
			<-mu
			got = append(got, string(p))
			mu <- struct{}{}
			return nil
		}))
		if err != nil {
			return false
		}
		if len(got) != len(history) {
			return false
		}
		sort.Strings(got)
		sort.Strings(history)
		for i := range got {
			if got[i] != history[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSkipWatermark verifies that for any flushed watermark, replay
// delivers a superset of the records above it and the skipped segments
// contain nothing above it.
func TestQuickSkipWatermark(t *testing.T) {
	f := func(seed int64, nRecs uint8, watermark uint8) bool {
		dir := t.TempDir()
		be, err := storage.NewLocal(dir)
		if err != nil {
			return false
		}
		opts := DefaultOptions()
		opts.SegmentBytes = 512
		m, err := Open(be, opts, 1)
		if err != nil {
			return false
		}
		n := int(nRecs%100) + 1
		for i := 1; i <= n; i++ {
			if _, err := appendOne(m, []byte(fmt.Sprintf("r%04d", i)), uint64(i), uint64(i)); err != nil {
				return false
			}
		}
		if err := m.Close(); err != nil {
			return false
		}
		wm := uint64(watermark) % uint64(n+1)

		m2, err := Open(be, opts, 1)
		if err != nil {
			return false
		}
		seen := map[string]bool{}
		done := make(chan struct{}, 1)
		done <- struct{}{}
		if _, err := m2.Replay(wm, 3, eachRecord(func(_ uint64, p []byte) error {
			<-done
			seen[string(p)] = true
			done <- struct{}{}
			return nil
		})); err != nil {
			return false
		}
		// Every record above the watermark must be present (the engine
		// filters the ≤wm ones itself).
		for i := int(wm) + 1; i <= n; i++ {
			if !seen[fmt.Sprintf("r%04d", i)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
