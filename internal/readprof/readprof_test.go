package readprof

import (
	"reflect"
	"testing"
)

type blockRead struct {
	tier  Tier
	bytes int
	nanos int64
}

// TestBlockAttribution: each block read lands on its own tier's counters and
// nowhere else, and the totals are the tiers summed.
func TestBlockAttribution(t *testing.T) {
	for _, tc := range []struct {
		name   string
		reads  []blockRead
		blocks [NumTiers]int32
		bytes  [NumTiers]int64
		nanos  [NumTiers]int64
	}{
		{name: "nothing read"},
		{
			name:   "one block-cache hit, untimed",
			reads:  []blockRead{{TierBlockCache, 4096, 0}},
			blocks: [NumTiers]int32{TierBlockCache: 1},
			bytes:  [NumTiers]int64{TierBlockCache: 4096},
		},
		{
			name:   "one block per tier",
			reads:  []blockRead{{TierBlockCache, 10, 1}, {TierPCache, 20, 2}, {TierLocal, 30, 3}, {TierCloud, 40, 4}},
			blocks: [NumTiers]int32{1, 1, 1, 1},
			bytes:  [NumTiers]int64{10, 20, 30, 40},
			nanos:  [NumTiers]int64{1, 2, 3, 4},
		},
		{
			name:   "repeats accumulate on their tier",
			reads:  []blockRead{{TierCloud, 100, 2_000_000}, {TierPCache, 50, 900}, {TierCloud, 300, 3_000_000}},
			blocks: [NumTiers]int32{TierPCache: 1, TierCloud: 2},
			bytes:  [NumTiers]int64{TierPCache: 50, TierCloud: 400},
			nanos:  [NumTiers]int64{TierPCache: 900, TierCloud: 5_000_000},
		},
	} {
		p := New()
		var blocks int
		var bytes int64
		for _, r := range tc.reads {
			p.Block(r.tier, r.bytes, r.nanos)
			blocks++
			bytes += int64(r.bytes)
		}
		if p.Blocks != tc.blocks || p.Bytes != tc.bytes || p.FetchNanos != tc.nanos {
			t.Errorf("%s: blocks=%v bytes=%v nanos=%v, want %v %v %v",
				tc.name, p.Blocks, p.Bytes, p.FetchNanos, tc.blocks, tc.bytes, tc.nanos)
		}
		if p.BlocksTotal() != blocks || p.BytesTotal() != bytes {
			t.Errorf("%s: totals %d blocks / %d bytes, want %d / %d",
				tc.name, p.BlocksTotal(), p.BytesTotal(), blocks, bytes)
		}
	}
}

// TestPath: the rendering names where the key resolved, then the tiers that
// fed the read, cheapest first, each once.
func TestPath(t *testing.T) {
	for _, tc := range []struct {
		served int8
		tiers  []Tier
		want   string
	}{
		{LevelNone, nil, "none"},
		{LevelNone, []Tier{TierLocal}, "none:local"}, // blocks read, key absent
		{LevelMemtable, nil, "mem"},
		{LevelMemtable, []Tier{TierCloud}, "mem"}, // a memtable serve names no tier
		{0, nil, "L0"},                            // resolved without a block read
		{0, []Tier{TierBlockCache}, "L0:block-cache"},
		{3, []Tier{TierCloud, TierPCache}, "L3:pcache+cloud"},
		{6, []Tier{TierCloud, TierCloud, TierLocal, TierBlockCache, TierPCache}, "L6:block-cache+pcache+local+cloud"},
	} {
		p := New()
		p.LevelServed = tc.served
		for _, tier := range tc.tiers {
			p.Block(tier, 1, 0)
		}
		if got := p.Path(); got != tc.want {
			t.Errorf("served=%d tiers=%v: Path() = %q, want %q", tc.served, tc.tiers, got, tc.want)
		}
	}
}

// TestLevelProbes: the mask records each level once, out-of-range levels
// not at all, and the memtable probe is always counted.
func TestLevelProbes(t *testing.T) {
	for _, tc := range []struct {
		probe  []int
		probed []int
		count  int
	}{
		{nil, nil, 1},
		{[]int{0}, []int{0}, 2},
		{[]int{2, 5, 2}, []int{2, 5}, 3},
		{[]int{-1, MaxLevels, 7}, []int{7}, 2},
	} {
		p := New()
		for _, l := range tc.probe {
			p.ProbeLevel(l)
		}
		want := map[int]bool{}
		for _, l := range tc.probed {
			want[l] = true
		}
		for l := -1; l <= MaxLevels; l++ {
			if p.Probed(l) != want[l] {
				t.Errorf("probe %v: Probed(%d) = %v", tc.probe, l, p.Probed(l))
			}
		}
		if p.LevelsProbed() != tc.count {
			t.Errorf("probe %v: LevelsProbed() = %d, want %d", tc.probe, p.LevelsProbed(), tc.count)
		}
	}
}

// TestResetZeroes: the engine pools profiles and Resets one before each use,
// so Reset must leave no field of the previous request behind — including a
// field added later, which is why every field is dirtied by reflection.
func TestResetZeroes(t *testing.T) {
	p := New()
	dirty(reflect.ValueOf(p).Elem())
	if reflect.DeepEqual(p, New()) {
		t.Fatal("dirty left the profile untouched")
	}
	p.Reset()
	if *p != *New() {
		t.Fatalf("Reset left %+v, want %+v", *p, *New())
	}
	if p.LevelServed != LevelNone || p.Path() != "none" {
		t.Fatalf("a reset profile reads as served at %d (%s)", p.LevelServed, p.Path())
	}
}

// dirty sets every field under v to a non-zero value.
func dirty(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			dirty(v.Field(i))
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			dirty(v.Index(i))
		}
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int8, reflect.Int32, reflect.Int64:
		v.SetInt(7)
	case reflect.Uint8:
		v.SetUint(7)
	default:
		panic("dirty: unhandled kind " + v.Kind().String())
	}
}

func TestTierString(t *testing.T) {
	for tier, want := range map[Tier]string{
		TierBlockCache: "block-cache", TierPCache: "pcache", TierLocal: "local", TierCloud: "cloud", NumTiers: "unknown",
	} {
		if got := tier.String(); got != want {
			t.Errorf("Tier(%d).String() = %q, want %q", tier, got, want)
		}
	}
}
