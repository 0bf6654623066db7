package db

import (
	"fmt"
	"testing"

	"rocksmash/internal/keys"
	"rocksmash/internal/memtable"
	"rocksmash/internal/sstable"
)

// TestTableWriterFitsTable checks the sizes flushes and compactions give
// newTableWriter: a table built from a full memtable, or cut at the target
// size the way a compaction cuts its outputs, fits the buffer it started
// with, so building it never regrows (and re-zeroes) that buffer.
func TestTableWriterFitsTable(t *testing.T) {
	o := DefaultOptions()
	const target = 1 << 20
	for _, valueLen := range []int{16, 100, 1000} {
		t.Run(fmt.Sprintf("value%d", valueLen), func(t *testing.T) {
			value := make([]byte, valueLen)
			key := func(i int) []byte { return []byte(fmt.Sprintf("key%021d", i)) }
			build := func(w *memWriter, add func(b *sstable.Builder) error) {
				t.Helper()
				b := sstable.NewBuilder(w, sstable.BuilderOptions{BlockBytes: o.BlockBytes, BloomBitsPerKey: o.BloomBitsPerKey})
				if err := add(b); err != nil {
					t.Fatal(err)
				}
				if _, err := b.Finish(); err != nil {
					t.Fatal(err)
				}
			}

			// Flush: a memtable sealed at MemtableBytes.
			mem := memtable.New()
			for i := 0; mem.ApproximateSize() < target; i++ {
				mem.Add(uint64(i+1), keys.KindSet, key(i), value)
			}
			size := mem.ApproximateSize()
			w := newTableWriter(size + size/8)
			before := w.buf.Cap()
			build(w, func(b *sstable.Builder) error {
				it := &memIter{mem.NewIterator()}
				for it.First(); it.Valid(); it.Next() {
					if err := b.Add(it.Key(), it.Value()); err != nil {
						return err
					}
				}
				return nil
			})
			if got := w.buf.Cap(); got != before {
				t.Errorf("flush table of %d bytes from a %d-byte memtable regrew its buffer: cap %d -> %d", w.buf.Len(), size, before, got)
			}

			// Compaction: an output cut at the first user key past the target.
			w = newTableWriter(target + target/8)
			before = w.buf.Cap()
			build(w, func(b *sstable.Builder) error {
				for i := 0; int64(b.EstimatedSize()) < target; i++ {
					if err := b.Add(keys.MakeInternalKey(nil, key(i), uint64(i+1), keys.KindSet), value); err != nil {
						return err
					}
				}
				return nil
			})
			if got := w.buf.Cap(); got != before {
				t.Errorf("compaction output of %d bytes regrew its buffer: cap %d -> %d", w.buf.Len(), before, got)
			}
		})
	}
}
