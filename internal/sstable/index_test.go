package sstable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rocksmash/internal/block"
	"rocksmash/internal/keys"
	"rocksmash/internal/ycsb"
)

// keyShapes generate user keys of the shapes the prefix search has edge
// cases for. Each returns one key; collisions are fine, callers dedupe.
var keyShapes = []struct {
	name string
	gen  func(rng *rand.Rand) []byte
}{
	// Shorter than the common prefix plus 8 bytes, so prefixes are
	// zero-padded, and some keys are prefixes of others.
	{"short", func(rng *rand.Rand) []byte { return randBytes(rng, "ab", rng.Intn(7), "abc") }},
	// 0x00 bytes, which zero padding must not confuse with a shorter key,
	// and 0xff bytes; some keys are empty.
	{"zeros", func(rng *rand.Rand) []byte { return randBytes(rng, "", rng.Intn(13), "\x00\x01\xff") }},
	// A 24-byte shared prefix: every prefix beyond it is what tells keys
	// apart.
	{"long-prefix", func(rng *rand.Rand) []byte {
		return randBytes(rng, "tenant-0042/table-users/", 1+rng.Intn(12), "\x00ab\xff")
	}},
	{"ycsb", func(rng *rand.Rand) []byte { return ycsb.Key(uint64(rng.Intn(1 << 20))) }},
	// One user key: separators differ only in their trailers.
	{"one-key", func(*rand.Rand) []byte { return []byte("same-user-key") }},
}

func randBytes(rng *rand.Rand, prefix string, n int, alphabet string) []byte {
	b := []byte(prefix)
	for i := 0; i < n; i++ {
		b = append(b, alphabet[rng.Intn(len(alphabet))])
	}
	return b
}

// sortedInternalKeys returns up to n distinct internal keys of one shape,
// in keys.Compare order, each user key at one to three sequence numbers.
func sortedInternalKeys(rng *rand.Rand, gen func(*rand.Rand) []byte, n int) [][]byte {
	var ks [][]byte
	for len(ks) < n {
		u := gen(rng)
		for v := rng.Intn(3); v >= 0; v-- {
			kind := keys.KindSet
			if rng.Intn(4) == 0 {
				kind = keys.KindDelete
			}
			ks = append(ks, keys.MakeInternalKey(nil, u, uint64(1+rng.Intn(1000)), kind))
		}
	}
	slices.SortFunc(ks, keys.Compare)
	return slices.CompactFunc(ks, func(a, b []byte) bool { return keys.Compare(a, b) == 0 })
}

// indexBody encodes seps as an index block at restart interval ri, block i
// at handle {i * 100, 90}.
func indexBody(seps [][]byte, ri int) []byte {
	b := block.NewBuilder(ri)
	for i, s := range seps {
		b.Add(s, Handle{Offset: uint64(i) * 100, Length: 90}.EncodeVarint(nil))
	}
	return b.Finish()
}

// seeksAround returns seek keys before, on, just around and between the
// separators, and past the last.
func seeksAround(rng *rand.Rand, gen func(*rand.Rand) []byte, seps [][]byte) [][]byte {
	trailer := func(ik []byte) uint64 { return binary.LittleEndian.Uint64(ik[len(ik)-keys.TrailerLen:]) }
	withTrailer := func(u []byte, t uint64) []byte {
		return binary.LittleEndian.AppendUint64(bytes.Clone(u), t)
	}
	seeks := [][]byte{
		keys.MakeSeekKey(nil, nil, keys.MaxSequence),
		withTrailer(nil, 0),
		keys.MakeSeekKey(nil, bytes.Repeat([]byte{0xff}, 40), 0),
	}
	for _, s := range seps {
		u, t := keys.UserKey(s), trailer(s)
		seeks = append(seeks, s, withTrailer(u, t+1), withTrailer(u, t-1),
			keys.MakeSeekKey(nil, append(bytes.Clone(u), 0), keys.MaxSequence),
			keys.MakeSeekKey(nil, append(bytes.Clone(u), 0xff), 0))
		if len(u) > 0 {
			seeks = append(seeks, keys.MakeSeekKey(nil, u[:len(u)-1], keys.MaxSequence))
		}
	}
	for i := 0; i < 50; i++ {
		seeks = append(seeks, keys.MakeSeekKey(nil, gen(rng), uint64(rng.Intn(1100))))
	}
	return seeks
}

// linearSearch is the reference for index.search.
func linearSearch(seps [][]byte, target []byte) int {
	for i, s := range seps {
		if keys.Compare(s, target) >= 0 {
			return i
		}
	}
	return len(seps)
}

func TestIndexSearchMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, shape := range keyShapes {
		for _, n := range []int{0, 1, 2, 3, 17, 300} {
			for _, ri := range []int{1, 16} {
				seps := sortedInternalKeys(rng, shape.gen, n)
				ix, err := decodeIndex(indexBody(seps, ri))
				if err != nil {
					t.Fatalf("%s n=%d ri=%d: %v", shape.name, n, ri, err)
				}
				if len(ix.ents) != len(seps) {
					t.Fatalf("%s n=%d ri=%d: %d entries, want %d", shape.name, n, ri, len(ix.ents), len(seps))
				}
				for i, s := range seps {
					if !bytes.Equal(ix.sep(i), s) || ix.ents[i].h != (Handle{uint64(i) * 100, 90}) {
						t.Fatalf("%s n=%d ri=%d: entry %d = %x %v, want %x", shape.name, n, ri, i, ix.sep(i), ix.ents[i].h, s)
					}
				}
				for _, seek := range seeksAround(rng, shape.gen, seps) {
					if got, want := ix.search(seek), linearSearch(seps, seek); got != want {
						t.Fatalf("%s n=%d ri=%d: search(%x) = %d, want %d (common prefix %q)",
							shape.name, n, ri, seek, got, want, ix.common)
					}
				}
			}
		}
	}
}

// TestReaderAgreesWithModel checks GetSeek at several snapshots and random
// iterator walks in both directions against a sorted slice of the entries.
func TestReaderAgreesWithModel(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, shape := range keyShapes {
		for _, blockBytes := range []int{64, 512} {
			name := fmt.Sprintf("%s/block%d", shape.name, blockBytes)
			ks := sortedInternalKeys(rng, shape.gen, 400)
			es := make([]entry, len(ks))
			for i, k := range ks {
				es[i] = entry{k, []byte(fmt.Sprintf("v%d", i))}
			}
			r, err := Open(tableImage(t, es, BuilderOptions{BlockBytes: blockBytes, RestartInterval: 1 + rng.Intn(16), BloomBitsPerKey: 10}), 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.index.ents) < 2 {
				t.Fatalf("%s: %d data blocks, want several", name, len(r.index.ents))
			}
			var probes [][]byte
			for _, k := range ks {
				probes = append(probes, keys.UserKey(k))
			}
			for i := 0; i < 100; i++ {
				probes = append(probes, shape.gen(rng))
			}
			for _, snap := range []uint64{0, 1, 300, 700, keys.MaxSequence} {
				for _, u := range probes {
					checkGet(t, name, r, es, u, snap)
				}
			}
			seeks := seeksAround(rng, shape.gen, ks)
			checkIterWalk(t, name, r.NewIter(), es, seeks, rng)
		}
	}
}

func checkGet(t *testing.T, name string, r *Reader, es []entry, u []byte, snap uint64) {
	t.Helper()
	seek := keys.MakeSeekKey(nil, u, snap)
	var want *entry
	if i, _ := slices.BinarySearchFunc(es, seek, func(e entry, k []byte) int { return keys.Compare(e.ikey, k) }); i < len(es) && bytes.Equal(keys.UserKey(es[i].ikey), u) {
		want = &es[i]
	}
	v, found, live, err := r.GetSeek(seek, nil)
	if err != nil {
		t.Fatalf("%s: GetSeek(%q @%d): %v", name, u, snap, err)
	}
	switch {
	case want == nil:
		if found {
			t.Fatalf("%s: GetSeek(%q @%d) found %q, want nothing", name, u, snap, v)
		}
	default:
		_, kind := keys.DecodeTrailer(want.ikey)
		if !found || live != (kind == keys.KindSet) || (live && !bytes.Equal(v, want.value)) {
			t.Fatalf("%s: GetSeek(%q @%d) = %q found=%v live=%v, want %x=%q", name, u, snap, v, found, live, want.ikey, want.value)
		}
	}
}

// checkIterWalk drives it through a random mix of moves, mirroring each on
// a position in es. Stepping off either end leaves both invalid until the
// next absolute move.
func checkIterWalk(t *testing.T, name string, it *Iter, es []entry, seeks [][]byte, rng *rand.Rand) {
	t.Helper()
	n := len(es)
	pos := -1
	firstGE := func(k []byte) int {
		i, _ := slices.BinarySearchFunc(es, k, func(e entry, k []byte) int { return keys.Compare(e.ikey, k) })
		return i
	}
	for step := 0; step < 3000; step++ {
		var op string
		switch r := rng.Intn(10); {
		case r == 0:
			op, pos = "First", 0
			it.First()
		case r == 1:
			op, pos = "Last", n-1
			it.Last()
		case r == 2:
			k := seeks[rng.Intn(len(seeks))]
			op, pos = fmt.Sprintf("SeekGE(%x)", k), firstGE(k)
			it.SeekGE(k)
		case r == 3:
			k := seeks[rng.Intn(len(seeks))]
			op, pos = fmt.Sprintf("SeekLT(%x)", k), firstGE(k)-1
			it.SeekLT(k)
		case r < 7:
			op = "Next"
			if pos >= 0 && pos < n {
				pos++
			}
			it.Next()
		default:
			op = "Prev"
			if pos >= 0 && pos < n {
				pos--
			}
			it.Prev()
		}
		valid := pos >= 0 && pos < n
		if it.Valid() != valid || it.Err() != nil {
			t.Fatalf("%s: step %d %s: valid=%v err=%v, want valid=%v", name, step, op, it.Valid(), it.Err(), valid)
		}
		if valid && (!bytes.Equal(it.Key(), es[pos].ikey) || !bytes.Equal(it.Value(), es[pos].value)) {
			t.Fatalf("%s: step %d %s: at %x, want %x", name, step, op, it.Key(), es[pos].ikey)
		}
		if !valid {
			pos = -1 // invalid is invalid, whichever end
		}
	}
}

// corruptTable is a table image with the given index body and no data or
// filter blocks: enough for Open, which reads only metadata.
func corruptTable(idx []byte) *memFile {
	var img []byte
	img = sealBlock(img, idx, CompressionNone)
	ih := Handle{0, uint64(len(img) - blockTrailerLen)}
	start := len(img)
	img = sealBlock(img, Properties{}.encode(), CompressionNone)
	ph := Handle{uint64(start), uint64(len(img) - start - blockTrailerLen)}
	img = append(img, footer{index: ih, props: ph}.encode()...)
	return &memFile{buf: img}
}

func TestOpenRejectsCorruptIndex(t *testing.T) {
	a := keys.MakeInternalKey(nil, []byte("a"), 1, keys.KindSet)
	b := keys.MakeInternalKey(nil, []byte("b"), 1, keys.KindSet)
	h := Handle{0, 10}.EncodeVarint(nil)
	raw := func(add func(*block.Builder)) []byte {
		bb := block.NewBuilder(1)
		add(bb)
		return bb.Finish()
	}
	for _, c := range []struct {
		name string
		body []byte
	}{
		{"unsorted", indexBody([][]byte{b, a}, 1)},
		{"duplicate", indexBody([][]byte{a, a}, 1)},
		{"short separator", raw(func(bb *block.Builder) { bb.Add([]byte("short"), h) })},
		{"bad handle", raw(func(bb *block.Builder) { bb.Add(a, []byte{0x80}) })},
		{"bad trailer", []byte{1, 2}},
	} {
		if _, err := Open(corruptTable(c.body), 1); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Open = %v, want ErrCorrupt", c.name, err)
		}
	}
	if _, err := Open(corruptTable(indexBody([][]byte{a, b}, 1)), 1); err != nil {
		t.Fatalf("sound index: %v", err)
	}
}

// TestIndexDecodeAllocs bounds what decoding a table's index costs at
// open: the entry array, sized from the restart count, and nothing per
// separator.
func TestIndexDecodeAllocs(t *testing.T) {
	r := benchTable(t, 2400)
	f := r.File().(*memFile)
	ftr, err := decodeFooter(f.buf[len(f.buf)-footerLen:])
	if err != nil {
		t.Fatal(err)
	}
	body, err := ReadRawBlock(f, ftr.index)
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() { _, _ = decodeIndex(body) }); got > 2 {
		t.Fatalf("decodeIndex: %v allocations, want at most 2", got)
	}
	if len(r.index.ents) < 100 || cap(r.index.ents) != len(r.index.ents) {
		t.Fatalf("%d entries in an array of %d", len(r.index.ents), cap(r.index.ents))
	}
}

// FuzzIndexDecode feeds arbitrary bytes to the index decoder as an index
// block body: nothing may panic, and when the body decodes, the prefix
// search must agree with a linear keys.Compare scan and with a block.Iter
// seek over the same bytes, and every entry with the iterator's. The seed
// corpus in testdata/fuzz/FuzzIndexDecode (builder output at restart
// intervals 1 and 16, truncated, bit-flipped, unsorted and short-key
// bodies) is replayed by a plain `go test`.
func FuzzIndexDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, body, ukey []byte, trailer uint64) {
		ix, err := decodeIndex(body)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decodeIndex error %v is not ErrCorrupt", err)
			}
			return
		}
		br, err := block.Parse(body)
		if err != nil {
			t.Fatalf("decodeIndex accepted a body block.NewReader rejects: %v", err)
		}
		var seps [][]byte
		it := br.NewIter()
		for it.First(); it.Valid(); it.Next() {
			i := len(seps)
			if i >= len(ix.ents) || !bytes.Equal(it.Key(), ix.sep(i)) {
				t.Fatalf("entry %d: iterator %x, decoded %d entries", i, it.Key(), len(ix.ents))
			}
			if h, err := DecodeHandle(it.Value()); err != nil || h != ix.ents[i].h {
				t.Fatalf("entry %d: iterator handle %v (%v), decoded %v", i, h, err, ix.ents[i].h)
			}
			seps = append(seps, bytes.Clone(it.Key()))
		}
		if it.Err() != nil || len(seps) != len(ix.ents) {
			t.Fatalf("iterator walked %d entries (err %v), decoded %d", len(seps), it.Err(), len(ix.ents))
		}
		target := binary.LittleEndian.AppendUint64(bytes.Clone(ukey), trailer)
		got := ix.search(target)
		if want := linearSearch(seps, target); got != want {
			t.Fatalf("search(%x) = %d, linear scan %d", target, got, want)
		}
		it.SeekGE(target)
		if it.Valid() != (got < len(seps)) || (it.Valid() && !bytes.Equal(it.Key(), seps[got])) {
			t.Fatalf("search(%x) = %d of %d, block.Iter valid=%v at %x", target, got, len(seps), it.Valid(), it.Key())
		}
	})
}
