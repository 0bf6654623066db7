package db

import (
	"reflect"
	"testing"
	"time"
)

// TestOptionsFieldCount pins the size of the public configuration surface,
// so that a new knob is a reviewed decision and not a side effect.
func TestOptionsFieldCount(t *testing.T) {
	const want = 30
	got := 0
	typ := reflect.TypeOf(Options{})
	for i := 0; i < typ.NumField(); i++ {
		if typ.Field(i).IsExported() {
			got++
		}
	}
	if got != want {
		t.Fatalf("Options has %d exported fields, want %d. ROADMAP: \"an option exists because a paper "+
			"figure ablates it or an operator must decide it\" — if this change adds one, say in the PR which "+
			"of the two it is and update the count; if it removes one, lower the count.", got, want)
	}
}

// TestDrainEvery pins the drainer's period to a tenth of the shorter
// breaker cooldown, floored at 1ms, and the defaults a store runs with.
func TestDrainEvery(t *testing.T) {
	cooldowns := func(cloud, local time.Duration) Options {
		o := DefaultOptions()
		o.CloudBreaker.Cooldown = cloud
		o.LocalBreaker.Cooldown = local
		return o
	}
	for _, tc := range []struct {
		name string
		o    Options
		want time.Duration
	}{
		{"defaults", DefaultOptions(), 200 * time.Millisecond},
		{"250ms cooldowns", cooldowns(250*time.Millisecond, 250*time.Millisecond), 25 * time.Millisecond},
		{"testOptions floor", testOptions(PolicyMash), time.Millisecond},
		{"shorter local cooldown wins", cooldowns(0, 300*time.Millisecond), 30 * time.Millisecond},
	} {
		if got := drainEvery(tc.o); got != tc.want {
			t.Errorf("%s: drainEvery = %v, want %v", tc.name, got, tc.want)
		}
	}

	d, _ := openTest(t, PolicyLocalOnly)
	defer d.Close()
	if d.tables.maxOpen != 512 {
		t.Errorf("table cache caps %d open tables, want 512", d.tables.maxOpen)
	}
}
