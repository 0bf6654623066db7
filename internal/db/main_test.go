package db

import (
	"os"
	"testing"
)

// TestMain runs the package's tests with every buffer returned to the
// store's free list poisoned (bufpool.go): a table sink, flush, compaction,
// relocation, view splice or crash path that reads a table or span buffer
// after giving it back fails its checksums or its answers instead of
// passing on stale bytes.
func TestMain(m *testing.M) {
	poisonFreed = true
	os.Exit(m.Run())
}
