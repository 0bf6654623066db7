package memtable

import (
	"math/rand"
	"testing"

	"rocksmash/internal/keys"
	"rocksmash/internal/ycsb"
)

// BenchmarkMemtableAdd fills fresh memtables the way the fill workload does:
// YCSB keys drawn from a 2M keyspace, 400 B values, and a new memtable each
// time the current one reaches the flush size. The sizes are the benchmark
// store's memtable (1 MiB) and the default one (4 MiB).
func BenchmarkMemtableAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	ks := make([][]byte, 1<<14)
	for i := range ks {
		ks[i] = ycsb.Key(uint64(rng.Intn(2_000_000)))
	}
	val := make([]byte, 400)
	for _, sz := range []struct {
		name  string
		bytes int64
	}{{"1MiB", 1 << 20}, {"4MiB", 4 << 20}} {
		b.Run("ycsb-400B/"+sz.name, func(b *testing.B) {
			b.ReportAllocs()
			m := New()
			for i := 0; i < b.N; i++ {
				if m.ApproximateSize() >= sz.bytes {
					m = New()
				}
				m.Add(uint64(i+1), keys.KindSet, ks[i&(len(ks)-1)], val)
			}
		})
	}
}
