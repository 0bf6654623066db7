package db

import (
	"reflect"
	"testing"
)

// TestOptionsFieldCount pins the size of the public configuration surface,
// so that a new knob is a reviewed decision and not a side effect.
func TestOptionsFieldCount(t *testing.T) {
	const want = 42
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
