package db

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// TestPutReusedBuffersDoNotAlias: Put and Delete draw their batch from a
// pool, so nothing may keep the caller's key or value, or a batch, past
// the call. Writers that overwrite their key and value buffers right after
// each Put, concurrently so pooled batches change hands, must leave every
// key readable with the value it was given.
func TestPutReusedBuffersDoNotAlias(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			o := testOptions(PolicyLocalOnly)
			o.Shards = shards
			d, err := OpenAt(t.TempDir(), o)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			const writers, perWriter = 2, 1500
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					key := make([]byte, 0, 32)
					val := make([]byte, 0, 128)
					for i := 0; i < perWriter; i++ {
						key = fmt.Appendf(key[:0], "w%d-%05d", w, i)
						val = fmt.Appendf(val[:0], "value-%d-%05d-%090d", w, i, i)
						if err := d.Put(key, val); err != nil {
							t.Error(err)
							return
						}
						for j := range val {
							val[j] = 'X'
						}
						if i%5 == 0 {
							if err := d.Delete(key); err != nil {
								t.Error(err)
								return
							}
						}
						for j := range key {
							key[j] = 'X'
						}
					}
				}(w)
			}
			wg.Wait()
			for w := 0; w < writers; w++ {
				for i := 0; i < perWriter; i++ {
					k := fmt.Sprintf("w%d-%05d", w, i)
					if i%5 == 0 {
						mustMissing(t, d, k)
						continue
					}
					mustGet(t, d, k, fmt.Sprintf("value-%d-%05d-%090d", w, i, i))
				}
			}
		})
	}
}

// TestReplayAllocsPerRecord pins what recovery allocates per WAL record:
// nothing. The segment is read in one piece, each record is checksummed in
// place and its batch decoded on the stack, and its entries are recorded in
// the segment's sorted run by their offsets in the segment image; a record
// spanning blocks is joined in the reader's one buffer and copied into the
// run's one overflow buffer. What remains are per-segment and per-Open
// objects: 0.023 a record here, from 0.031 when the run copied every
// record and each reassembly allocated.
func TestReplayAllocsPerRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const records = 20000
	dir := t.TempDir()
	o := testOptions(PolicyLocalOnly)
	o.MemtableBytes = 256 << 20 // everything stays in the WAL
	d, err := OpenAt(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 100)
	for i := 0; i < records; i++ {
		if err := d.Put([]byte(fmt.Sprintf("replay-%06d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	d.Crash()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d2, err := OpenAt(dir, o)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got := d2.RecoveryReport().WALRecords; got != records {
		t.Fatalf("replayed %d records, want %d", got, records)
	}
	perRecord := float64(after.Mallocs-before.Mallocs) / records
	t.Logf("recovery allocated %.4f objects per record", perRecord)
	if perRecord > 0.025 {
		t.Fatalf("recovery allocates %.4f objects per record, want <= 0.025", perRecord)
	}
}
