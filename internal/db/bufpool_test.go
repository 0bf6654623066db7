package db

import "testing"

// TestBufPoolClasses checks how the store's free list sizes and hands out
// buffers: one class at the benchmark's geometry and three at a wider one;
// a request takes the smallest class that holds it, a larger class only
// when it fills more than half of it; a class buffer comes back as it was
// put, and poisoned; a buffer of no class, or one past the bound, is
// dropped.
func TestBufPoolClasses(t *testing.T) {
	bench := DefaultOptions()
	bench.MemtableBytes, bench.TargetFileBytes, bench.Shards = 1<<20, 1<<20, 1
	if p := newBufPool(bench); len(p.classes) != 1 || p.classes[0].size != 9<<17 {
		t.Fatalf("benchmark geometry: %d classes, want one of %d bytes", len(p.classes), 9<<17)
	}

	o := DefaultOptions()
	o.MemtableBytes, o.TargetFileBytes, o.Shards = 16<<20, 4<<20, 1
	p := newBufPool(o)
	var sizes []int
	for _, c := range p.classes {
		sizes = append(sizes, c.size)
	}
	if want := []int{9 << 17, 9 << 19, 9 << 21}; len(sizes) != 3 || sizes[0] != want[0] || sizes[1] != want[1] || sizes[2] != want[2] {
		t.Fatalf("classes %v, want %v", sizes, want)
	}
	for _, c := range []struct{ n, cap int }{
		{100, 9 << 17},       // a small span or table: the smallest class
		{1 << 20, 9 << 17},   // a compaction span
		{2 << 20, 2 << 20},   // past the span class, half the next or less: its own size
		{4 << 20, 9 << 19},   // a compaction output
		{12 << 20, 9 << 21},  // a flush
		{8 << 20, 8 << 20},   // a small flush, half its class or less: its own size
		{20 << 20, 20 << 20}, // over every class
	} {
		if b := p.get(c.n); len(b) != 0 || cap(b) != c.cap {
			t.Errorf("get(%d): len %d cap %d, want 0 and %d", c.n, len(b), cap(b), c.cap)
		}
	}

	poisoned := poisonFreed
	poisonFreed = true
	defer func() { poisonFreed = poisoned }()
	b := p.get(1 << 20)
	b = append(b, "table bytes"...)
	p.put(b)
	p.put(make([]byte, 0, 1<<20)) // no class: dropped
	got := p.get(1 << 20)
	if &got[:1][0] != &b[:1][0] || len(got) != 0 {
		t.Fatalf("get after put: a different or non-empty buffer")
	}
	for i, c := range got[:cap(got)] {
		if c != poisonByte {
			t.Fatalf("returned buffer byte %d = %#x, want poison %#x", i, c, poisonByte)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a buffer returned twice did not panic")
			}
		}()
		p.put(got)
		p.put(got)
	}()

	c := p.classes[0]
	c.free = nil
	for i := 0; i < c.max+3; i++ {
		p.put(make([]byte, 0, c.size))
	}
	if len(c.free) != c.max {
		t.Fatalf("class keeps %d idle buffers, want its bound %d", len(c.free), c.max)
	}
}
