package db

import (
	"path/filepath"
	"testing"
)

// benchDBFlight opens the no-flush benchmark store with or without a
// FlightDir, that is with or without the event ring on the listener chain.
// The pair bounds the ring's tax on the fill path.
func benchDBFlight(b *testing.B, on bool) *DB {
	b.Helper()
	o := testOptions(PolicyLocalOnly)
	o.MemtableBytes = 256 << 20
	if on {
		o.FlightDir = filepath.Join(b.TempDir(), "flight")
	}
	d, err := OpenAt(b.TempDir(), o)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { d.Close() })
	return d
}

func benchmarkPutFlight(b *testing.B, on bool) {
	d := benchDBFlight(b, on)
	keys := benchKeys(1 << 12)
	val := make([]byte, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Put(keys[i&(len(keys)-1)], val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPutFlightOff(b *testing.B) { benchmarkPutFlight(b, false) }
func BenchmarkPutFlightOn(b *testing.B)  { benchmarkPutFlight(b, true) }
