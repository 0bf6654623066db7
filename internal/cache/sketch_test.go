package cache

import (
	"sync"
	"testing"
)

func TestSketchCounts(t *testing.T) {
	s := NewSketch(1024)
	hot, warm, cold := Key{1, 0}, Key{1, 4096}, Key{2, 0}
	for i := 0; i < 9; i++ {
		s.Add(hot)
	}
	for i := 0; i < 3; i++ {
		s.Add(warm)
	}
	if got := s.Estimate(hot); got < 9 {
		t.Errorf("hot estimate %d, want at least 9", got)
	}
	if got := s.Estimate(warm); got < 3 || got >= s.Estimate(hot) {
		t.Errorf("warm estimate %d, want at least 3 and below hot's %d", got, s.Estimate(hot))
	}
	if got := s.Estimate(cold); got != 0 {
		t.Errorf("unread key estimated at %d, want 0", got)
	}
	for i := 0; i < 100; i++ {
		s.Add(hot)
	}
	if got := s.Estimate(hot); got != 15 {
		t.Errorf("estimate %d after 109 reads, want the counters' ceiling 15", got)
	}
}

// TestSketchSeparatesFrequencies adds a thousand keys with counts 1..7 and
// checks that the sketch ranks them: collisions may inflate an estimate but
// never deflate it, and at the store's sizing they rarely inflate it at all.
func TestSketchSeparatesFrequencies(t *testing.T) {
	const keys = 1000
	s := NewSketch(keys)
	for i := 0; i < keys; i++ {
		for n := 0; n <= i%7; n++ {
			s.Add(Key{uint64(i / 100), uint64(i%100) * 4096})
		}
	}
	exact := 0
	for i := 0; i < keys; i++ {
		got, want := s.Estimate(Key{uint64(i / 100), uint64(i%100) * 4096}), i%7+1
		if got < want {
			t.Fatalf("key %d estimated at %d, below its %d reads", i, got, want)
		}
		if got == want {
			exact++
		}
	}
	if exact < keys*9/10 {
		t.Errorf("%d of %d estimates exact, want at least 90%%", exact, keys)
	}
}

func TestSketchHalves(t *testing.T) {
	s := NewSketch(16) // a sample of 160 adds
	k := Key{7, 0}
	for i := 0; i < 12; i++ {
		s.Add(k)
	}
	for i := 0; s.adds.Load() < s.sample-1; i++ {
		s.Add(Key{8, uint64(i) * 4096})
	}
	if got := s.Estimate(k); got < 12 {
		t.Fatalf("estimate %d before the sample filled, want at least 12", got)
	}
	s.Add(Key{9, 0}) // the sample's last add halves every counter
	if got := s.Estimate(k); got < 6 || got > 7 {
		t.Errorf("estimate %d after halving 12 (or a collision-inflated count), want 6 or 7", got)
	}
	if got := s.adds.Load(); got != s.sample/2 {
		t.Errorf("%d adds counted after halving, want %d", got, s.sample/2)
	}
}

func TestSketchConcurrentAdds(t *testing.T) {
	s := NewSketch(1 << 12)
	k := Key{3, 8192}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				if i%500 == 0 {
					s.Add(k)
				}
				s.Add(Key{uint64(g + 10), uint64(i) * 4096})
				s.Estimate(k)
			}
		}(g)
	}
	wg.Wait()
	// 40 adds of k with halvings in between: whatever the interleaving, the
	// counter is above zero and at most saturated.
	if got := s.Estimate(k); got < 1 || got > 15 {
		t.Errorf("estimate %d after concurrent adds", got)
	}
}

func TestSketchAllocatesNothing(t *testing.T) {
	s := NewSketch(4096)
	k := Key{5, 4096}
	if n := testing.AllocsPerRun(1000, func() { s.Add(k); s.Estimate(k) }); n != 0 {
		t.Errorf("Add+Estimate allocate %.1f times, want 0", n)
	}
}

func BenchmarkSketchAdd(b *testing.B) {
	s := NewSketch(6144)
	for i := 0; i < b.N; i++ {
		s.Add(Key{uint64(i & 127), uint64(i) * 4096})
	}
}
