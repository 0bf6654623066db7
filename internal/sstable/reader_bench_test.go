package sstable

import (
	"bytes"
	"io"
	"slices"
	"testing"

	"rocksmash/internal/block"
	"rocksmash/internal/keys"
	"rocksmash/internal/readprof"
	"rocksmash/internal/ycsb"
)

// memFile is a table image held in memory: the Writer a Builder fills and
// the Reader Open reads back.
type memFile struct{ buf []byte }

func (m *memFile) Write(p []byte) (int, error) { m.buf = append(m.buf, p...); return len(p), nil }
func (m *memFile) Sync() error                 { return nil }
func (m *memFile) Close() error                { return nil }
func (m *memFile) Size() int64                 { return int64(len(m.buf)) }
func (m *memFile) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(m.buf)) {
		return 0, io.EOF
	}
	if n := copy(p, m.buf[off:]); n < len(p) {
		return n, io.EOF
	}
	return len(p), nil
}

// tableImage builds a table of es (sorted by internal key) in memory.
func tableImage(tb testing.TB, es []entry, opts BuilderOptions) *memFile {
	tb.Helper()
	f := &memFile{}
	b := NewBuilder(f, opts)
	for _, e := range es {
		if err := b.Add(e.ikey, e.value); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := b.Finish(); err != nil {
		tb.Fatal(err)
	}
	return f
}

// benchValueLen is the value size of the table BenchmarkReaderGet reads.
const benchValueLen = 400

// benchTable builds a table of YCSB keys 0 <= idx < n (sorted, each set at
// seq idx+1 with a benchValueLen-byte value) in memory under the default
// builder options, and opens it with every data block pre-verified and
// served from a map as a block cache holds it, with a cell for its seek
// table, so a lookup pays only the reader's own work.
func benchTable(tb testing.TB, n int) *Reader {
	tb.Helper()
	ks := make([][]byte, n)
	for i := range ks {
		ks[i] = ycsb.Key(uint64(i))
	}
	slices.SortFunc(ks, bytes.Compare)
	value := bytes.Repeat([]byte{'v'}, benchValueLen)
	es := make([]entry, n)
	for i, k := range ks {
		es[i] = entry{keys.MakeInternalKey(nil, k, uint64(i+1), keys.KindSet), value}
	}
	f := tableImage(tb, es, DefaultBuilderOptions())
	r, err := Open(f, 1)
	if err != nil {
		tb.Fatal(err)
	}
	type cached struct {
		body []byte
		cell block.Cell
	}
	hs := r.DataHandles()
	blocks := make(map[uint64]*cached, len(hs))
	for _, h := range hs {
		c := &cached{}
		if c.body, err = ReadRawBlock(f, h); err != nil {
			tb.Fatal(err)
		}
		blocks[h.Offset] = c
	}
	r.SetFetch(func(_ uint64, h Handle, _ *readprof.Profile) ([]byte, *block.Cell, error) {
		c := blocks[h.Offset]
		return c.body, &c.cell, nil
	})
	return r
}

// BenchmarkReaderGet is one table's point lookup: the bloom probe, the
// index search and the data-block seek over a 1 MiB table of YCSB keys
// whose blocks are already in memory, searched through their seek tables
// (built by the first lookups). A hit allocates once (the value copy), a
// miss not at all.
func BenchmarkReaderGet(b *testing.B) {
	const n = (1 << 20) / (benchValueLen + 32) // ~1 MiB of entries
	r := benchTable(b, n)
	for _, c := range []struct {
		name string
		base uint64 // key indexes base+i; the table holds [0, n)
		hit  bool
	}{{"hit", 0, true}, {"miss", n, false}} {
		b.Run(c.name, func(b *testing.B) {
			probes := make([][]byte, 1024)
			for i := range probes {
				probes[i] = keys.MakeSeekKey(nil, ycsb.Key(c.base+uint64(i*7919%n)), keys.MaxSequence)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, found, _, err := r.GetSeek(probes[i%len(probes)], nil)
				if err != nil || found != c.hit {
					b.Fatalf("GetSeek: found=%v err=%v, want found=%v", found, err, c.hit)
				}
			}
		})
	}
}

// TestReaderGetAllocs pins BenchmarkReaderGet's allocations: exactly one
// per hit (the value copy) and none per miss.
func TestReaderGetAllocs(t *testing.T) {
	r := benchTable(t, 2000)
	hit := keys.MakeSeekKey(nil, ycsb.Key(17), keys.MaxSequence)
	miss := keys.MakeSeekKey(nil, ycsb.Key(1<<40), keys.MaxSequence)
	for _, c := range []struct {
		name string
		seek []byte
		want float64
	}{{"hit", hit, 1}, {"miss", miss, 0}} {
		got := testing.AllocsPerRun(200, func() {
			if _, _, _, err := r.GetSeek(c.seek, nil); err != nil {
				t.Fatal(err)
			}
		})
		if got != c.want {
			t.Errorf("%s: %v allocations per GetSeek, want %v", c.name, got, c.want)
		}
	}
}
