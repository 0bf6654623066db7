package storage

import (
	"bytes"
	"testing"

	"rocksmash/internal/histogram"
)

// TestReadAllCallerOwnsBuffer is the Backend.ReadAll contract every
// backend keeps: two ReadAlls of one object return distinct buffers, and
// neither changes when the other is written to or when the object is
// overwritten or deleted afterwards.
func TestReadAllCallerOwnsBuffer(t *testing.T) {
	wrappers := map[string]func(Backend) Backend{
		"plain":        func(b Backend) Backend { return b },
		"prefixed":     func(b Backend) Backend { return NewPrefix(b, "p/") },
		"instrumented": func(b Backend) Backend { return Instrument(b, histogram.New(), histogram.New()) },
		"reliable":     func(b Backend) Backend { return NewReliable(b, fastPolicy(), nil, nil, nil) },
		"faulty":       func(b Backend) Backend { return NewFaulty(b, FaultConfig{}) },
	}
	for tier, newBase := range map[string]func(*testing.T) Backend{
		"local": func(t *testing.T) Backend { return newTestLocal(t) },
		"cloud": func(t *testing.T) Backend { return newTestCloud(t) },
	} {
		for wname, wrap := range wrappers {
			t.Run(tier+"/"+wname, func(t *testing.T) {
				b := wrap(newBase(t))
				want := bytes.Repeat([]byte("segment!"), 512)
				if err := WriteObject(b, "wal/000001.log", want); err != nil {
					t.Fatal(err)
				}
				first, err := b.ReadAll("wal/000001.log")
				if err != nil {
					t.Fatal(err)
				}
				second, err := b.ReadAll("wal/000001.log")
				if err != nil {
					t.Fatal(err)
				}
				if &first[0] == &second[0] {
					t.Fatal("two ReadAlls returned the same buffer")
				}
				second[0] ^= 0xFF
				if err := WriteObject(b, "wal/000001.log", bytes.Repeat([]byte("rewrite!"), 1024)); err != nil {
					t.Fatal(err)
				}
				if err := b.Delete("wal/000001.log"); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(first, want) {
					t.Fatal("a returned buffer changed after the object was read again, overwritten and deleted")
				}
			})
		}
	}
}
