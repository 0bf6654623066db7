package block

import (
	"bytes"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"rocksmash/internal/keys"
	"rocksmash/internal/ycsb"
)

// seekShapes are the blocks the seek-table tests and FuzzBlockSeek's seeds
// are made of: builder output over keys that exercise the table's corners.
// Each is a list of (user key, seq) in internal-key order.
var seekShapes = map[string][]struct {
	ukey string
	seq  uint64
}{
	// User keys shorter than the common prefix plus 8 bytes: zero padding
	// makes "a", "a\x00" and "a\x00\x00" tie on the prefix.
	"short-ties": {{"a", 9}, {"a\x00", 8}, {"a\x00\x00", 7}, {"ab", 6}, {"ab\x00", 5}, {"ab\x00\x01", 4}, {"b", 3}},
	// The last key runs on into its predecessor's trailer bytes: the first
	// key of its prefix run shares bytes the prefix cannot supply.
	"trailer-overlap": {{"k", 0x0105}, {"k\x01\x05", 3}, {"k\x01\x05\x01", 2}},
	// Keys that differ only after the 8-byte prefix.
	"past-prefix": {{"x123456789", 9}, {"x12345678a", 8}, {"x12345678b", 7}, {"x12345678c", 6}, {"y", 5}},
	// One user key in many versions across restart points, between two
	// neighbours.
	"versions": {{"kkkk0", 20}, {"kkkk1", 19}, {"kkkk1", 18}, {"kkkk1", 17}, {"kkkk1", 16}, {"kkkk1", 15},
		{"kkkk1", 14}, {"kkkk1", 13}, {"kkkk1", 12}, {"kkkk1", 11}, {"kkkk1", 10}, {"kkkk2", 9}},
	// A long common prefix; targets outside it sort before or after.
	"common": {{"common/apple", 5}, {"common/banana", 4}, {"common/cherry", 3}, {"common/damson", 2}},
}

// shapeBlock builds shape name at restart interval ri.
func shapeBlock(name string, ri int) []byte {
	b := NewBuilder(ri)
	for i, e := range seekShapes[name] {
		b.Add(ik(e.ukey, e.seq), []byte(fmt.Sprintf("v%d", i)))
	}
	return b.Finish()
}

// seekTargets returns targets around every key of the block: each entry's
// key, its user key at the newest and oldest sequence, and user keys just
// below and above, plus a few outside any common prefix.
func seekTargets(r *Reader) [][]byte {
	var ts [][]byte
	add := func(ukey []byte, seq uint64) { ts = append(ts, keys.MakeSeekKey(nil, ukey, seq)) }
	it := r.NewIter()
	for it.First(); it.Valid(); it.Next() {
		u := bytes.Clone(keys.UserKey(it.Key()))
		seq, _ := keys.DecodeTrailer(it.Key())
		for _, s := range []uint64{seq, seq + 1, seq - 1, keys.MaxSequence, 0} {
			add(u, s)
		}
		add(append(bytes.Clone(u), 0), keys.MaxSequence)
		if len(u) > 0 {
			add(u[:len(u)-1], keys.MaxSequence)
			v := bytes.Clone(u)
			v[len(v)-1]++
			add(v, keys.MaxSequence)
		}
	}
	for _, u := range []string{"", "\x00", "com", "common", "commom", "common/", "common/z", "zzzz", "\xff\xff"} {
		add([]byte(u), keys.MaxSequence)
	}
	return ts
}

// checkTableSeeks compares the seek table's point seek with Reader.SeekGE
// at every target.
func checkTableSeeks(t *testing.T, name string, r *Reader, st *SeekTable) {
	t.Helper()
	for _, target := range seekTargets(r) {
		wk, wv, wok, werr := r.SeekGE(target, nil)
		_, gk, gv, gok, gerr := st.SeekGE(target, nil)
		if gok != wok || (gerr != nil) != (werr != nil) || !bytes.Equal(gk, wk) || !bytes.Equal(gv, wv) {
			t.Fatalf("%s, target %q: table %q=%q ok=%v err=%v, raw %q=%q ok=%v err=%v",
				name, target, gk, gv, gok, gerr, wk, wv, wok, werr)
		}
	}
}

// TestSeekTableMatchesRawSeek: on every shape at several restart intervals
// the table lands where the raw seek does, and it keeps the fast path
// everywhere except where a run's first key shares trailer bytes (which it
// cannot at restart interval 1, where no key shares anything).
func TestSeekTableMatchesRawSeek(t *testing.T) {
	for name := range seekShapes {
		for _, ri := range []int{1, 3, 16} {
			data := shapeBlock(name, ri)
			r, err := NewReader(data)
			if err != nil {
				t.Fatal(err)
			}
			st, err := NewSeekTable(data)
			if err != nil {
				t.Fatalf("%s ri=%d: %v", name, ri, err)
			}
			if fast := st.ents != nil; fast != (name != "trailer-overlap" || ri == 1) {
				t.Errorf("%s ri=%d: fast path %v", name, ri, fast)
			}
			checkTableSeeks(t, fmt.Sprintf("%s ri=%d", name, ri), r, &st)
		}
	}
	// Keys out of order still seek as the raw bytes do: through them.
	b := NewBuilder(16)
	for _, k := range []string{"b", "a", "c"} {
		b.Add(ik(k, 1), []byte(k))
	}
	data := b.Finish()
	r, _ := NewReader(data)
	st, err := NewSeekTable(data)
	if err != nil || st.ents != nil {
		t.Fatalf("unsorted block: err=%v, fast path %v", err, st.ents != nil)
	}
	checkTableSeeks(t, "unsorted", r, &st)
}

// benchBlocks returns n blocks of the benchmark's shape: YCSB keys in
// order with 400-byte values, cut at 4 KiB with restart interval 16, and
// the internal keys each holds.
func benchBlocks(n int) ([][]byte, [][][]byte) {
	ks := make([][]byte, 12*n)
	for i := range ks {
		ks[i] = ycsb.Key(uint64(i))
	}
	slices.SortFunc(ks, bytes.Compare)
	value := bytes.Repeat([]byte{'v'}, 400)
	var blocks [][]byte
	var entries [][][]byte
	b := NewBuilder(16)
	var in [][]byte
	for i, k := range ks {
		ik := keys.MakeInternalKey(nil, k, uint64(i+1), keys.KindSet)
		b.Add(ik, value)
		in = append(in, ik)
		if b.EstimatedSize() >= 4096 {
			blocks = append(blocks, bytes.Clone(b.Finish()))
			entries = append(entries, in)
			b.Reset()
			in = nil
			if len(blocks) == n {
				break
			}
		}
	}
	return blocks, entries
}

// TestSeekTableBenchShape: at the benchmark's geometry the table takes the
// fast path, costs 16 B per entry in one allocation, and a seek through a
// cell allocates nothing once the table is built.
func TestSeekTableBenchShape(t *testing.T) {
	blocks, entries := benchBlocks(50)
	for i, data := range blocks {
		r, err := Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		st, _ := NewSeekTable(data)
		if st.ents == nil || len(st.ents) != len(entries[i]) || st.Bytes() != int64(16*len(entries[i])) {
			t.Fatalf("block %d: %d entries, %d bytes, fast path %v", i, len(st.ents), st.Bytes(), st.ents != nil)
		}
		checkTableSeeks(t, fmt.Sprintf("block %d", i), &r, &st)
	}
	if n := testing.AllocsPerRun(50, func() { _, _ = NewSeekTable(blocks[0]) }); n != 1 {
		t.Errorf("building a seek table allocates %.1f objects, want 1", n)
	}
	var cell Cell
	target := keys.MakeSeekKey(nil, keys.UserKey(entries[0][3]), keys.MaxSequence)
	if n := testing.AllocsPerRun(100, func() {
		var buf [keys.SeekBufLen]byte
		if _, _, ok, _ := cell.SeekGE(blocks[0], target, buf[:0]); !ok {
			t.Fatal("lost entry 3")
		}
	}); n != 0 {
		t.Errorf("a seek through a built cell allocates %.1f objects, want 0", n)
	}
}

// TestCellCharge: a cell charges its table once, when a point read builds
// it, and Drop hands the charge back and lets go of the table; a drop during
// the build leaves nothing charged and no table, and a dropped cell builds
// nothing.
func TestCellCharge(t *testing.T) {
	blocks, entries := benchBlocks(1)
	data := blocks[0]
	target := keys.MakeSeekKey(nil, keys.UserKey(entries[0][0]), keys.MaxSequence)
	want := int64(16 * len(entries[0]))
	var used atomic.Int64
	var c Cell
	c.ChargeTo(&used)
	for i := 0; i < 3; i++ {
		if _, _, ok, err := c.SeekGE(data, target, nil); !ok || err != nil {
			t.Fatalf("seek %d: ok=%v err=%v", i, ok, err)
		}
		if used.Load() != want {
			t.Fatalf("after seek %d: charged %d, want %d", i, used.Load(), want)
		}
	}
	if n := c.Drop(); n != want || c.Drop() != 0 {
		t.Fatalf("Drop returned %d, want %d once", n, want)
	}
	if c.table.Load() != nil {
		t.Fatal("a dropped cell keeps its table, and with it the block's bytes")
	}
	used.Store(0)

	var mid Cell
	mid.ChargeTo(&used)
	mid.state.Store(cellBuilding) // a read has begun the build
	if mid.Drop() != 0 {
		t.Fatal("a drop during the build handed back a charge")
	}
	if mid.build(data) == nil || used.Load() != 0 || mid.table.Load() != nil { // the build ends after the drop
		t.Fatalf("build after a drop left %d charged (table kept: %v)", used.Load(), mid.table.Load() != nil)
	}
	if _, _, ok, _ := mid.SeekGE(data, target, nil); !ok || used.Load() != 0 || mid.state.Load() != cellRaw {
		t.Fatalf("a dropped cell built a table (charged %d)", used.Load())
	}

	// A block the table cannot decode is searched raw and reports what the
	// raw seek reports.
	var bad Cell
	bad.ChargeTo(&used)
	if _, _, ok, err := bad.SeekGE(shortKeyBlock, ik("k", 1), nil); ok || err == nil {
		t.Fatalf("short-key block: ok=%v err=%v, want ErrCorrupt", ok, err)
	}
	if bad.state.Load() != cellRaw || used.Load() != 0 {
		t.Fatalf("short-key block: cell state %d, charged %d", bad.state.Load(), used.Load())
	}
}

// BenchmarkBlockSeekGE is a point seek in a cached data block of the
// benchmark's shape (YCSB keys, 400 B values, 4 KiB, restart interval 16):
// raw parses the block and searches its bytes, as a read without a seek
// table does; table searches the block's seek table through its cell.
func BenchmarkBlockSeekGE(b *testing.B) {
	blocks, entries := benchBlocks(1000)
	targets := make([][]byte, 4096)
	which := make([]int, len(targets))
	for i := range targets {
		which[i] = i * 7919 % len(blocks)
		es := entries[which[i]]
		targets[i] = keys.MakeSeekKey(nil, keys.UserKey(es[i%len(es)]), keys.MaxSequence)
	}
	cells := make([]Cell, len(blocks))
	seek := map[string]func(i int, buf []byte) bool{
		"raw": func(i int, buf []byte) bool {
			r, _ := Parse(blocks[which[i]])
			_, _, ok, _ := r.SeekGE(targets[i], buf)
			return ok
		},
		"table": func(i int, buf []byte) bool {
			_, _, ok, _ := cells[which[i]].SeekGE(blocks[which[i]], targets[i], buf)
			return ok
		},
	}
	for _, name := range []string{"raw", "table"} {
		b.Run(name, func(b *testing.B) {
			var buf [keys.SeekBufLen]byte
			for i := range targets {
				seek[name](i, buf[:0])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !seek[name](i&(len(targets)-1), buf[:0]) {
					b.Fatal("target not found")
				}
			}
		})
	}
}
