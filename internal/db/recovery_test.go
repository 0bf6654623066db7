package db

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"rocksmash/internal/batch"
)

// TestRecoveryRunsMatchModel crashes a store whose data lives only in a WAL
// of many segments, with keys overwritten and deleted across segments and
// inside one multi-op batch, and reopens it at RecoveryParallelism 1 and 4.
// Get, a forward scan and a reverse scan must match a model after Open
// (reads served by the recovered runs), after Flush (the runs drained into
// L0) and after a clean reopen.
func TestRecoveryRunsMatchModel(t *testing.T) {
	const keyspace = 150
	key := func(i int) string { return fmt.Sprintf("key%04d", i) }
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			dir := t.TempDir()
			o := testOptions(PolicyMash)
			o.MemtableBytes = 8 << 20 // nothing flushes, before the crash or at Open
			o.WALSegmentBytes = 4 << 10
			o.RecoveryParallelism = par
			d, err := OpenAt(dir, o)
			if err != nil {
				t.Fatal(err)
			}
			model := map[string]string{}
			var ops int64
			rng := rand.New(rand.NewSource(35))
			for i := 0; i < 1500; i++ {
				k := key(rng.Intn(keyspace))
				switch r := rng.Intn(10); {
				case r == 0:
					if err := d.Delete([]byte(k)); err != nil {
						t.Fatal(err)
					}
					delete(model, k)
					ops++
				case r == 1:
					// One batch sets, overwrites and deletes the same key,
					// and touches a second one.
					k2 := key(rng.Intn(keyspace))
					b := batch.New()
					b.Set([]byte(k), []byte(fmt.Sprintf("a%d", i)))
					b.Set([]byte(k2), []byte(fmt.Sprintf("b%d", i)))
					b.Delete([]byte(k))
					b.Set([]byte(k), []byte(fmt.Sprintf("c%d", i)))
					model[k2] = fmt.Sprintf("b%d", i)
					model[k] = fmt.Sprintf("c%d", i)
					if rng.Intn(2) == 0 {
						b.Delete([]byte(k2))
						delete(model, k2)
					}
					if err := d.Write(b); err != nil {
						t.Fatal(err)
					}
					ops += int64(b.Count())
				default:
					v := fmt.Sprintf("v%d-%s", i, k)
					if err := d.Put([]byte(k), []byte(v)); err != nil {
						t.Fatal(err)
					}
					model[k] = v
					ops++
				}
			}
			d.CrashForTest()

			d, err = OpenAt(dir, o)
			if err != nil {
				t.Fatal(err)
			}
			rep := d.RecoveryReport()
			if replayed := rep.WALSegments - rep.WALSkipped; replayed < 8 {
				t.Fatalf("replayed %d WAL segments, want >= 8", replayed)
			}
			if rep.RecoveredKeys != ops {
				t.Fatalf("recovered %d entries, wrote %d", rep.RecoveredKeys, ops)
			}
			checkStoreMatchesModel(t, d, model, keyspace, key, "after Open")
			if err := d.Flush(); err != nil {
				t.Fatal(err)
			}
			checkStoreMatchesModel(t, d, model, keyspace, key, "after Flush")
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			d, err = OpenAt(dir, o)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			checkStoreMatchesModel(t, d, model, keyspace, key, "after reopen")
		})
	}
}

// checkStoreMatchesModel requires Get of every key in the keyspace, a
// forward scan and a reverse scan of d to agree with model.
func checkStoreMatchesModel(t *testing.T, d *DB, model map[string]string, keyspace int, key func(int) string, when string) {
	t.Helper()
	for i := 0; i < keyspace; i++ {
		k := key(i)
		got, err := d.Get([]byte(k))
		want, ok := model[k]
		switch {
		case !ok && !errors.Is(err, ErrNotFound):
			t.Fatalf("%s: Get(%q) = %q, %v; want ErrNotFound", when, k, got, err)
		case ok && (err != nil || string(got) != want):
			t.Fatalf("%s: Get(%q) = %q, %v; want %q", when, k, got, err, want)
		}
	}
	var want []string
	for k, v := range model {
		want = append(want, k+"="+v)
	}
	slices.Sort(want)
	if got := scanAll(t, d); !slices.Equal(got, want) {
		t.Fatalf("%s: forward scan holds %d entries, model %d", when, len(got), len(want))
	}
	it, err := d.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var rev []string
	for it.Last(); it.Valid(); it.Prev() {
		rev = append(rev, string(it.Key())+"="+string(it.Value()))
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	slices.Reverse(rev)
	if !slices.Equal(rev, want) {
		t.Fatalf("%s: reverse scan holds %d entries, model %d", when, len(rev), len(want))
	}
}

// TestRecoveryRunsReassembledRecords recovers a WAL whose records span
// 32 KiB blocks — values up to 80 KiB, batches of several of them, beside
// small ones — so that some entries alias the segment image and the rest are
// copied out of reassembled records, and compares the store with a model
// after Open, after Flush, and after a second crash and Open that replays
// only what was written since the flush.
func TestRecoveryRunsReassembledRecords(t *testing.T) {
	const keyspace = 60
	key := func(i int) string { return fmt.Sprintf("big%03d", i) }
	dir := t.TempDir()
	o := testOptions(PolicyMash)
	o.MemtableBytes = 64 << 20
	o.WALSegmentBytes = 256 << 10
	o.RecoveryParallelism = 2
	d, err := OpenAt(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	model := map[string]string{}
	rng := rand.New(rand.NewSource(39))
	value := func(i int) string {
		sizes := []int{0, 10, 900, 31 << 10, 33 << 10, 80 << 10}
		return fmt.Sprintf("%d-", i) + strings.Repeat(string(rune('a'+i%26)), sizes[rng.Intn(len(sizes))])
	}
	write := func(from, to int) {
		for i := from; i < to; i++ {
			b := batch.New()
			for j := rng.Intn(3); j >= 0; j-- {
				k := key(rng.Intn(keyspace))
				if rng.Intn(6) == 0 {
					b.Delete([]byte(k))
					delete(model, k)
					continue
				}
				v := value(i)
				b.Set([]byte(k), []byte(v))
				model[k] = v
			}
			if err := d.Write(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	write(0, 150)
	d.CrashForTest()

	if d, err = OpenAt(dir, o); err != nil {
		t.Fatal(err)
	}
	if rep := d.RecoveryReport(); rep.WALSegments-rep.WALSkipped < 4 {
		t.Fatalf("replayed %d WAL segments, want >= 4", rep.WALSegments-rep.WALSkipped)
	}
	checkStoreMatchesModel(t, d, model, keyspace, key, "after Open")
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	checkStoreMatchesModel(t, d, model, keyspace, key, "after Flush")

	write(150, 200)
	d.CrashForTest()
	if d, err = OpenAt(dir, o); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	checkStoreMatchesModel(t, d, model, keyspace, key, "after a second Open")
}
