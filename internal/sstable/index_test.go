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

// linearSearch is the reference for the index search.
func linearSearch(seps [][]byte, target []byte) int {
	for i, s := range seps {
		if keys.Compare(s, target) >= 0 {
			return i
		}
	}
	return len(seps)
}

// TestIndexSearchMatchesLinearScan: over indexes of every key shape and
// size, the table Open builds holds one entry per separator with its
// handle, and its search lands where a linear scan does. An index block
// written at restart interval 16 whose separators share bytes is not one
// Builder writes and fails to open.
func TestIndexSearchMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, shape := range keyShapes {
		for _, n := range []int{0, 1, 2, 3, 17, 300} {
			for _, ri := range []int{1, 16} {
				seps := sortedInternalKeys(rng, shape.gen, n)
				shared := false
				for i := 1; i < len(seps); i++ {
					shared = shared || (i%ri != 0 && seps[i-1][0] == seps[i][0])
				}
				r, err := Open(corruptTable(indexBody(seps, ri)), 1)
				if shared {
					if !errors.Is(err, ErrCorrupt) {
						t.Fatalf("%s n=%d ri=%d: prefix-compressed index opened (err %v), want ErrCorrupt", shape.name, n, ri, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s n=%d ri=%d: %v", shape.name, n, ri, err)
				}
				es := r.IndexEntries()
				if r.index.Len() != len(seps) || len(es) != len(seps) {
					t.Fatalf("%s n=%d ri=%d: %d entries (%d walked), want %d", shape.name, n, ri, r.index.Len(), len(es), len(seps))
				}
				for i, s := range seps {
					if h := (Handle{uint64(i) * 100, 90}); !bytes.Equal(es[i].Sep, s) || es[i].H != h || r.DataHandle(i) != h {
						t.Fatalf("%s n=%d ri=%d: entry %d = %x %v (DataHandle(i) %v), want %x", shape.name, n, ri, i, es[i].Sep, es[i].H, r.DataHandle(i), s)
					}
				}
				for _, seek := range seeksAround(rng, shape.gen, seps) {
					if got, _, _, _, _ := r.index.SeekGE(seek, nil); got != linearSearch(seps, seek) {
						t.Fatalf("%s n=%d ri=%d: search(%x) = %d, want %d", shape.name, n, ri, seek, got, linearSearch(seps, seek))
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
			if r.index.Len() < 2 {
				t.Fatalf("%s: %d data blocks, want several", name, r.index.Len())
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
// filter blocks: enough for Open, which reads only metadata, whether the
// index is sound or not.
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
		{"prefix-compressed", indexBody([][]byte{a, keys.MakeInternalKey(nil, []byte("ab"), 1, keys.KindSet)}, 16)},
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

// TestIndexDecodeAllocs bounds what reading a table's index costs at open:
// the seek table's entry array, 16 B per data block, and nothing per
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
	if got := testing.AllocsPerRun(100, func() { _, _ = readIndex(body) }); got > 1 {
		t.Fatalf("readIndex: %v allocations, want at most 1", got)
	}
	if n := r.index.Len(); n < 100 || r.index.Bytes() != int64(16*n) {
		t.Fatalf("%d entries in %d bytes", n, r.index.Bytes())
	}
}

// FuzzIndexDecode feeds arbitrary bytes to readIndex as an index block
// body: nothing may panic, every rejection is ErrCorrupt, and a body is
// accepted exactly when Walk reads it as an index Builder could write —
// separators that share no bytes with their predecessors, strictly
// increasing, each with a handle. For an accepted body, the search lands
// on the ordinal a linear keys.Compare scan of Walk's separators gives and
// a block.Iter seek over the same bytes reaches, and returns that entry's
// handle. The seed corpus in testdata/fuzz/FuzzIndexDecode (builder output
// at restart intervals 1 and 16, truncated, bit-flipped, unsorted and
// short-key bodies) is replayed by a plain `go test`; the restart-interval
// 16 seeds are prefix-compressed and must be rejected.
func FuzzIndexDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, body, ukey []byte, trailer uint64) {
		ix, err := readIndex(body)
		var seps [][]byte
		var hs []Handle
		sound := false
		br, perr := block.Parse(body)
		if perr == nil {
			sound = br.Walk(func(shared, keyOff, valOff, end int) error {
				sep := body[keyOff:valOff]
				h, herr := DecodeHandle(body[valOff:end])
				if shared != 0 || herr != nil || (len(seps) > 0 && keys.Compare(seps[len(seps)-1], sep) >= 0) {
					return errors.New("not an index Builder writes")
				}
				seps, hs = append(seps, sep), append(hs, h)
				return nil
			}) == nil
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("readIndex error %v is not ErrCorrupt", err)
			}
			if sound {
				t.Fatalf("readIndex rejected a sound index: %v", err)
			}
			return
		}
		if !sound || ix.Len() != len(seps) {
			t.Fatalf("readIndex accepted %d entries, Walk reads %d (sound %v)", ix.Len(), len(seps), sound)
		}
		target := binary.LittleEndian.AppendUint64(bytes.Clone(ukey), trailer)
		got, _, v, ok, _ := ix.SeekGE(target, nil)
		if want := linearSearch(seps, target); got != want || ok != (want < len(seps)) {
			t.Fatalf("search(%x) = %d (ok %v), linear scan %d", target, got, ok, want)
		}
		if h, err := DecodeHandle(v); ok && (err != nil || h != hs[got]) {
			t.Fatalf("search(%x) = %d with handle %v (%v), want %v", target, got, h, err, hs[got])
		}
		it := br.NewIter()
		it.SeekGE(target)
		if it.Valid() != ok || (ok && !bytes.Equal(it.Key(), seps[got])) {
			t.Fatalf("search(%x) = %d of %d, block.Iter valid=%v at %x", target, got, len(seps), it.Valid(), it.Key())
		}
	})
}
