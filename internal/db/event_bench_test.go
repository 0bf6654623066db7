package db

import (
	"fmt"
	"math/rand"
	"testing"

	"rocksmash/internal/event"
	"rocksmash/internal/ycsb"
)

// benchDB opens a local-only store sized so the benchmark loop never
// flushes: the measurement isolates the per-op instrumentation cost.
func benchDB(b *testing.B, l event.Listener) *DB {
	b.Helper()
	o := testOptions(PolicyLocalOnly)
	o.MemtableBytes = 256 << 20
	o.EventListener = l
	d, err := OpenAt(b.TempDir(), o)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { d.Close() })
	return d
}

func benchKeys(n int) [][]byte {
	ks := make([][]byte, n)
	for i := range ks {
		ks[i] = []byte(fmt.Sprintf("bench-%08d", i))
	}
	return ks
}

// ycsbKeys returns n YCSB keys drawn from a 2M keyspace, as the fill
// workload writes them. Unlike benchKeys, whose keys all begin "bench-0",
// they mostly differ within their first 8 bytes.
func ycsbKeys(n int) [][]byte {
	rng := rand.New(rand.NewSource(7))
	ks := make([][]byte, n)
	for i := range ks {
		ks[i] = ycsb.Key(uint64(rng.Intn(2_000_000)))
	}
	return ks
}

func benchmarkPut(b *testing.B, l event.Listener, keys [][]byte, valueLen int) {
	d := benchDB(b, l)
	val := make([]byte, valueLen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Put(keys[i&(len(keys)-1)], val); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkGet(b *testing.B, l event.Listener) {
	d := benchDB(b, l)
	keys := benchKeys(1 << 12)
	val := make([]byte, 100)
	for _, k := range keys {
		if err := d.Put(k, val); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Get(keys[i&(len(keys)-1)]); err != nil {
			b.Fatal(err)
		}
	}
}

// The WithListener/nil pairs bound the listener tax on the hot path; the
// observability contract is that the delta stays under a few percent.
// BenchmarkPut/bench-100B is the pair's nil side. Its keys share their first
// 8 bytes, so the memtable's prefix compare settles none of their searches;
// ycsb-400B is the fill workload's key and value shape.
func BenchmarkPut(b *testing.B) {
	b.Run("bench-100B", func(b *testing.B) { benchmarkPut(b, nil, benchKeys(1<<12), 100) })
	b.Run("ycsb-400B", func(b *testing.B) { benchmarkPut(b, nil, ycsbKeys(1<<12), 400) })
}
func BenchmarkPutWithListener(b *testing.B) {
	benchmarkPut(b, event.NopListener{}, benchKeys(1<<12), 100)
}
func BenchmarkGet(b *testing.B)             { benchmarkGet(b, nil) }
func BenchmarkGetWithListener(b *testing.B) { benchmarkGet(b, event.NopListener{}) }
