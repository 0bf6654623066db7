package db

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"rocksmash/internal/batch"
)

// TestRandomOpsMatchReferenceModel drives the engine with a random mix of
// puts, deletes, batches, point reads, scans, flushes, compactions, crashes
// and reopens, and checks it always agrees with an in-memory map — the
// strongest end-to-end invariant the store offers. The open-2 case serves at
// most two tables, so the reads and the background jobs race CLOCK
// evictions whose closes wait on their pins.
func TestRandomOpsMatchReferenceModel(t *testing.T) {
	for _, c := range []struct {
		name    string
		p       Policy
		maxOpen int
	}{
		{"mash", PolicyMash, maxOpenTables},
		{"cloud-lru", PolicyCloudLRU, maxOpenTables},
		{"mash-open-2", PolicyMash, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := testOptions(c.p)
			opts.WALSegmentBytes = 8 << 10
			open := func() (*DB, error) {
				d, err := OpenAt(dir, opts)
				if err == nil {
					d.tables.mu.Lock()
					d.tables.maxOpen = c.maxOpen
					d.tables.mu.Unlock()
				}
				return d, err
			}
			d, err := open()
			if err != nil {
				t.Fatal(err)
			}
			defer func() { d.Close() }()

			rng := rand.New(rand.NewSource(99))
			ref := map[string][]byte{}
			key := func() []byte { return []byte(fmt.Sprintf("key%04d", rng.Intn(400))) }

			for step := 0; step < 4000; step++ {
				switch r := rng.Intn(100); {
				case r < 55: // put
					k := key()
					v := make([]byte, rng.Intn(300)+1)
					rng.Read(v)
					if err := d.Put(k, v); err != nil {
						t.Fatal(err)
					}
					ref[string(k)] = v
				case r < 70: // delete
					k := key()
					if err := d.Delete(k); err != nil {
						t.Fatal(err)
					}
					delete(ref, string(k))
				case r < 80: // batch
					b := batch.New()
					var ks [][]byte
					var vs [][]byte
					for i := 0; i < rng.Intn(5)+1; i++ {
						k := key()
						v := []byte(fmt.Sprint(step, i))
						b.Set(k, v)
						ks, vs = append(ks, k), append(vs, v)
					}
					if err := d.Write(b); err != nil {
						t.Fatal(err)
					}
					for i := range ks {
						ref[string(ks[i])] = vs[i]
					}
				case r < 83: // random point check
					k := key()
					v, err := d.Get(k)
					want, ok := ref[string(k)]
					if ok {
						if err != nil || !bytes.Equal(v, want) {
							t.Fatalf("step %d: Get(%q) = %q, %v; want %q", step, k, v, err, want)
						}
					} else if !errors.Is(err, ErrNotFound) {
						t.Fatalf("step %d: Get(%q) = %q, %v; want ErrNotFound", step, k, v, err)
					}
				case r < 85: // scan of up to 10 keys
					k := key()
					var want []string
					for rk := range ref {
						if rk >= string(k) {
							want = append(want, rk)
						}
					}
					sort.Strings(want)
					want = want[:min(len(want), 10)]
					it, err := d.NewIterator()
					if err != nil {
						t.Fatal(err)
					}
					it.Seek(k)
					for _, wk := range want {
						if !it.Valid() || string(it.Key()) != wk || !bytes.Equal(it.Value(), ref[wk]) {
							t.Fatalf("step %d: scan from %q: at %q (valid %v, err %v), want %q", step, k, it.Key(), it.Valid(), it.Err(), wk)
						}
						it.Next()
					}
					if err := it.Close(); err != nil {
						t.Fatal(err)
					}
				case r < 90: // flush
					if err := d.Flush(); err != nil {
						t.Fatal(err)
					}
				case r < 93: // full compaction
					if err := d.CompactAll(); err != nil {
						t.Fatal(err)
					}
				case r < 97: // crash + recover
					d.CrashForTest()
					if d, err = open(); err != nil {
						t.Fatalf("step %d: reopen after crash: %v", step, err)
					}
				default: // clean close + reopen
					if err := d.Close(); err != nil {
						t.Fatal(err)
					}
					if d, err = open(); err != nil {
						t.Fatalf("step %d: reopen: %v", step, err)
					}
				}
			}

			// Final full comparison via iterator.
			it, err := d.NewIterator()
			if err != nil {
				t.Fatal(err)
			}
			defer it.Close()
			got := map[string][]byte{}
			for it.First(); it.Valid(); it.Next() {
				got[string(it.Key())] = append([]byte(nil), it.Value()...)
			}
			if it.Err() != nil {
				t.Fatal(it.Err())
			}
			if len(got) != len(ref) {
				var missing, extra []string
				for k := range ref {
					if _, ok := got[k]; !ok {
						missing = append(missing, k)
					}
				}
				for k := range got {
					if _, ok := ref[k]; !ok {
						extra = append(extra, k)
					}
				}
				sort.Strings(missing)
				sort.Strings(extra)
				t.Fatalf("key count: got %d want %d\nmissing: %v\nextra: %v",
					len(got), len(ref), missing, extra)
			}
			for k, v := range ref {
				if !bytes.Equal(got[k], v) {
					t.Fatalf("final scan: key %q = %x want %x", k, got[k], v)
				}
			}
		})
	}
}
