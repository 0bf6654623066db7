package db

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// benchOptions is the fillrandom geometry: a memtable large enough that the
// run never seals, so the benchmark measures the commit path (WAL + memtable
// + visibility) rather than flush churn.
func benchOptions(pipeline, walSync bool) Options {
	o := testOptions(PolicyLocalOnly)
	o.MemtableBytes = 512 << 20
	o.L0StallFiles = 64
	o.WALSync = walSync
	o.DisableCommitPipeline = !pipeline
	return o
}

// BenchmarkConcurrentFillRandom measures commit throughput across writer
// counts for the pipeline×WALSync matrix — the ISSUE's headline numbers
// (pipeline vs serial at 8 writers, with and without per-commit fsync).
// Run with: go test -bench ConcurrentFillRandom -benchtime 2s ./internal/db/
func BenchmarkConcurrentFillRandom(b *testing.B) {
	for _, pipeline := range []bool{true, false} {
		for _, walSync := range []bool{false, true} {
			for _, writers := range []int{1, 2, 4, 8} {
				name := fmt.Sprintf("pipeline=%v/sync=%v/writers=%d", pipeline, walSync, writers)
				b.Run(name, func(b *testing.B) {
					d, err := OpenAt(b.TempDir(), benchOptions(pipeline, walSync))
					if err != nil {
						b.Fatal(err)
					}
					defer d.Close()
					val := make([]byte, 100)
					b.ResetTimer()
					var wg sync.WaitGroup
					per := b.N / writers
					for w := 0; w < writers; w++ {
						n := per
						if w == writers-1 {
							n = b.N - per*(writers-1)
						}
						wg.Add(1)
						go func(w, n int) {
							defer wg.Done()
							rng := rand.New(rand.NewSource(int64(w) + 1))
							key := make([]byte, 0, 24)
							for i := 0; i < n; i++ {
								key = fmt.Appendf(key[:0], "key%012d", rng.Intn(1<<20))
								if err := d.Put(key, val); err != nil {
									b.Error(err)
									return
								}
							}
						}(w, n)
					}
					wg.Wait()
					b.StopTimer()
					if g := d.Metrics().CommitGroups; g > 0 {
						bat := d.Metrics().CommitGroupBatches
						b.ReportMetric(float64(bat)/float64(g), "batches/group")
					}
				})
			}
		}
	}
}
