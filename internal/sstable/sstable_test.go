package sstable

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"rocksmash/internal/block"
	"rocksmash/internal/bloom"
	"rocksmash/internal/keys"
	"rocksmash/internal/readprof"
	"rocksmash/internal/storage"
)

func newLocal(t *testing.T) *storage.Local {
	t.Helper()
	l, err := storage.NewLocal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// buildTable writes entries (already sorted by internal key) and opens a
// reader over the result.
func buildTable(t *testing.T, be storage.Backend, name string, opts BuilderOptions, entries []entry) (*Reader, Properties) {
	t.Helper()
	w, err := be.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(w, opts)
	for _, e := range entries {
		if err := b.Add(e.ikey, e.value); err != nil {
			t.Fatal(err)
		}
	}
	props, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := be.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r, props
}

type entry struct {
	ikey  []byte
	value []byte
}

func seqEntries(n int, valSize int) []entry {
	var es []entry
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key%06d", i)
		v := bytes.Repeat([]byte{byte(i)}, valSize)
		es = append(es, entry{keys.MakeInternalKey(nil, []byte(k), uint64(i+1), keys.KindSet), v})
	}
	return es
}

func TestBuildAndGet(t *testing.T) {
	be := newLocal(t)
	es := seqEntries(1000, 32)
	r, props := buildTable(t, be, "t.sst", DefaultBuilderOptions(), es)
	if props.NumEntries != 1000 {
		t.Fatalf("entries = %d", props.NumEntries)
	}
	for i := 0; i < 1000; i += 37 {
		k := []byte(fmt.Sprintf("key%06d", i))
		v, found, live, err := r.Get(k, keys.MaxSequence)
		if err != nil {
			t.Fatal(err)
		}
		if !found || !live {
			t.Fatalf("key%06d missing", i)
		}
		if !bytes.Equal(v, bytes.Repeat([]byte{byte(i)}, 32)) {
			t.Fatalf("key%06d wrong value", i)
		}
	}
	// Missing keys.
	if _, found, _, _ := r.Get([]byte("nope"), keys.MaxSequence); found {
		t.Fatal("found nonexistent key")
	}
	if _, found, _, _ := r.Get([]byte("key9999999"), keys.MaxSequence); found {
		t.Fatal("found key past the end")
	}
}

func TestTombstoneVisible(t *testing.T) {
	be := newLocal(t)
	es := []entry{
		{keys.MakeInternalKey(nil, []byte("a"), 5, keys.KindDelete), nil},
		{keys.MakeInternalKey(nil, []byte("a"), 3, keys.KindSet), []byte("old")},
	}
	r, _ := buildTable(t, be, "t.sst", DefaultBuilderOptions(), es)
	_, found, live, err := r.Get([]byte("a"), keys.MaxSequence)
	if err != nil || !found || live {
		t.Fatalf("expected tombstone: found=%v live=%v err=%v", found, live, err)
	}
	v, found, live, err := r.Get([]byte("a"), 3)
	if err != nil || !found || !live || string(v) != "old" {
		t.Fatalf("old snapshot read failed: %q %v %v %v", v, found, live, err)
	}
}

func TestIterFullScan(t *testing.T) {
	be := newLocal(t)
	es := seqEntries(500, 16)
	r, _ := buildTable(t, be, "t.sst", BuilderOptions{BlockBytes: 256, RestartInterval: 4, BloomBitsPerKey: 10}, es)
	it := r.NewIter()
	i := 0
	for it.First(); it.Valid(); it.Next() {
		want := fmt.Sprintf("key%06d", i)
		if got := string(keys.UserKey(it.Key())); got != want {
			t.Fatalf("entry %d = %q want %q", i, got, want)
		}
		i++
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if i != 500 {
		t.Fatalf("scanned %d entries", i)
	}
}

func TestIterSeekGE(t *testing.T) {
	be := newLocal(t)
	var es []entry
	for i := 0; i < 100; i += 2 {
		k := fmt.Sprintf("k%04d", i)
		es = append(es, entry{keys.MakeInternalKey(nil, []byte(k), 1, keys.KindSet), []byte("v")})
	}
	r, _ := buildTable(t, be, "t.sst", BuilderOptions{BlockBytes: 128}, es)
	it := r.NewIter()
	it.SeekGE(keys.MakeSeekKey(nil, []byte("k0013"), keys.MaxSequence))
	if !it.Valid() || string(keys.UserKey(it.Key())) != "k0014" {
		t.Fatalf("seek landed on valid=%v", it.Valid())
	}
	it.SeekGE(keys.MakeSeekKey(nil, []byte("zzz"), keys.MaxSequence))
	if it.Valid() {
		t.Fatal("seek past end should be invalid")
	}
}

func TestPropertiesRoundTrip(t *testing.T) {
	be := newLocal(t)
	es := []entry{
		{keys.MakeInternalKey(nil, []byte("aaa"), 10, keys.KindSet), []byte("v1")},
		{keys.MakeInternalKey(nil, []byte("bbb"), 12, keys.KindDelete), nil},
		{keys.MakeInternalKey(nil, []byte("ccc"), 11, keys.KindSet), []byte("v3")},
	}
	r, props := buildTable(t, be, "t.sst", DefaultBuilderOptions(), es)
	got := r.Properties()
	if got.NumEntries != 3 || got.NumDeletes != 1 {
		t.Fatalf("props = %+v", got)
	}
	if got.MinSeq != 10 || got.MaxSeq != 12 {
		t.Fatalf("seq range = [%d,%d]", got.MinSeq, got.MaxSeq)
	}
	if !bytes.Equal(keys.UserKey(got.Smallest), []byte("aaa")) ||
		!bytes.Equal(keys.UserKey(got.Largest), []byte("ccc")) {
		t.Fatalf("bounds = %q..%q", got.Smallest, got.Largest)
	}
	if props.NumEntries != got.NumEntries {
		t.Fatal("builder props disagree with file props")
	}
}

func TestNoFilterStillWorks(t *testing.T) {
	be := newLocal(t)
	es := seqEntries(50, 8)
	opts := DefaultBuilderOptions()
	opts.BloomBitsPerKey = 0
	r, _ := buildTable(t, be, "t.sst", opts, es)
	if !r.MayContain(bloom.Hash([]byte("anything")), nil) {
		t.Fatal("filterless table must not reject keys")
	}
	v, found, live, err := r.Get([]byte("key000007"), keys.MaxSequence)
	if err != nil || !found || !live || len(v) != 8 {
		t.Fatalf("get = %v %v %v %v", v, found, live, err)
	}
}

func TestDataHandlesCoverFile(t *testing.T) {
	be := newLocal(t)
	es := seqEntries(300, 64)
	r, _ := buildTable(t, be, "t.sst", BuilderOptions{BlockBytes: 512}, es)
	hs := r.DataHandles()
	if len(hs) < 10 {
		t.Fatalf("expected many blocks, got %d", len(hs))
	}
	// Handles must be ascending and non-overlapping.
	for i := 1; i < len(hs); i++ {
		if hs[i].Offset < hs[i-1].Offset+hs[i-1].Length {
			t.Fatalf("handles overlap at %d", i)
		}
	}
}

func TestFetchHookInterposition(t *testing.T) {
	be := newLocal(t)
	es := seqEntries(200, 32)
	r, _ := buildTable(t, be, "t.sst", BuilderOptions{BlockBytes: 512}, es)
	calls := 0
	r.SetFetch(func(fileNum uint64, h Handle, prof *readprof.Profile) ([]byte, *block.Cell, error) {
		calls++
		return r.read(nil, h, prof)
	})
	if _, found, _, err := r.Get([]byte("key000050"), keys.MaxSequence); err != nil || !found {
		t.Fatalf("get via hook failed: %v %v", found, err)
	}
	if calls != 1 {
		t.Fatalf("fetch hook called %d times", calls)
	}
}

func TestCorruptBlockDetected(t *testing.T) {
	be := newLocal(t)
	es := seqEntries(100, 32)
	_, _ = buildTable(t, be, "t.sst", DefaultBuilderOptions(), es)
	data, err := be.ReadAll("t.sst")
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the first data block.
	data[10] ^= 0xff
	if err := storage.WriteObject(be, "bad.sst", data); err != nil {
		t.Fatal(err)
	}
	f, err := be.Open("bad.sst")
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(f, 2)
	if err != nil {
		t.Fatal(err) // metadata is at the end; still intact
	}
	defer r.Close()
	_, _, _, err = r.Get([]byte("key000000"), keys.MaxSequence)
	if err == nil {
		t.Fatal("corrupt data block should fail the read")
	}
}

func TestTruncatedFileRejected(t *testing.T) {
	be := newLocal(t)
	if err := storage.WriteObject(be, "tiny.sst", []byte("not a table")); err != nil {
		t.Fatal(err)
	}
	f, _ := be.Open("tiny.sst")
	if _, err := Open(f, 3); err == nil {
		t.Fatal("tiny file should fail to open")
	}
}

func TestHandleEncoding(t *testing.T) {
	f := func(off, ln uint64) bool {
		h := Handle{Offset: off, Length: ln}
		dec, err := DecodeHandle(h.EncodeVarint(nil))
		return err == nil && dec == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTableRoundTrip(t *testing.T) {
	be := newLocal(t)
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		m := map[string][]byte{}
		for i := 0; i < int(n%300)+1; i++ {
			v := make([]byte, rng.Intn(100))
			rng.Read(v)
			m[fmt.Sprintf("k%05d", rng.Intn(5000))] = v
		}
		var ks []string
		for k := range m {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		var es []entry
		for i, k := range ks {
			es = append(es, entry{keys.MakeInternalKey(nil, []byte(k), uint64(i+1), keys.KindSet), m[k]})
		}
		name := fmt.Sprintf("q%d.sst", seed)
		w, err := be.Create(name)
		if err != nil {
			return false
		}
		b := NewBuilder(w, BuilderOptions{BlockBytes: 256})
		for _, e := range es {
			if b.Add(e.ikey, e.value) != nil {
				return false
			}
		}
		if _, err := b.Finish(); err != nil {
			return false
		}
		w.Close()
		fr, err := be.Open(name)
		if err != nil {
			return false
		}
		r, err := Open(fr, 9)
		if err != nil {
			return false
		}
		defer r.Close()
		for _, k := range ks {
			v, found, live, err := r.Get([]byte(k), keys.MaxSequence)
			if err != nil || !found || !live || !bytes.Equal(v, m[k]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestMetadataBytesPositive checks the figure counts what the reader pins: the bloom filter, the index body and the index's seek table,
// 16 B per data block.
func TestMetadataBytesPositive(t *testing.T) {
	be := newLocal(t)
	es := seqEntries(500, 16)
	r, _ := buildTable(t, be, "t.sst", DefaultBuilderOptions(), es)
	want := len(r.filter) + cap(r.indexBody) + 16*r.index.Len()
	if got := r.MetadataBytes(); got != want || len(r.filter) == 0 || r.index.Len() == 0 {
		t.Fatalf("MetadataBytes = %d, want %d (filter %d B, %d index entries)", got, want, len(r.filter), r.index.Len())
	}
}

// bodyless stands in for a table body that must not be read: opened over
// a tail image, a table reads all its metadata from the image.
type bodyless struct{ size int64 }

func (b bodyless) ReadAt([]byte, int64) (int, error) { return 0, fmt.Errorf("read below the tail") }
func (b bodyless) Size() int64                       { return b.size }
func (b bodyless) Close() error                      { return nil }

// TestOpenOverTailImageCopiesNoBlock: Open over a TailReader verifies the
// footer's blocks in place and keeps them as sub-slices of the tail image,
// where any other reader gets a copy of each. The pinned metadata figure is
// the same either way, and the open copies nothing out of the image.
func TestOpenOverTailImageCopiesNoBlock(t *testing.T) {
	img := tableImage(t, seqEntries(500, 16), DefaultBuilderOptions())
	tailOff, tail, err := MetaTail(img)
	if err != nil {
		t.Fatal(err)
	}
	ftr, err := readFooter(img)
	if err != nil {
		t.Fatal(err)
	}
	overTail := func() *Reader {
		r, err := Open(NewTailReader(bodyless{int64(tailOff) + int64(len(tail))}, int64(tailOff), tail), 1)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	copied, err := Open(img, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := overTail()
	if &r.indexBody[0] != &tail[ftr.index.Offset-tailOff] || &r.filter[0] != &tail[ftr.filter.Offset-tailOff] {
		t.Fatal("the index or filter block is a copy, not a sub-slice of the tail image")
	}
	if &copied.indexBody[0] == &img.buf[ftr.index.Offset] {
		t.Fatal("a plain reader's index block aliases the file's bytes")
	}
	if got, want := r.MetadataBytes(), copied.MetadataBytes(); got != want {
		t.Fatalf("MetadataBytes over the tail image = %d, want %d as over the table", got, want)
	}
	if r.DataBlocks() != copied.DataBlocks() || r.Properties().NumEntries != copied.Properties().NumEntries {
		t.Fatal("the two opens disagree on the table")
	}
	// The TailReader and its boxed body, the Reader and the index's seek
	// table: no footer, block or bound is copied, and no fetch hook is made.
	if n := testing.AllocsPerRun(100, func() { overTail() }); n > 4 {
		t.Fatalf("opening over a tail image made %v allocations, want at most 4", n)
	}
}

// discardWriter is a storage.Writer that keeps nothing.
type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (discardWriter) Sync() error                 { return nil }
func (discardWriter) Close() error                { return nil }

// TestBuilderAllocatesPerTableNotPerBlock: once a table is under way, adding
// entries across many uncompressed blocks costs no allocation per block. The
// index key, the encoded handle and the sealed block are built in scratch the
// builder reuses; what grows with the table (bloom hashes, the index block)
// grows by doubling, far less than once per block.
func TestBuilderAllocatesPerTableNotPerBlock(t *testing.T) {
	const (
		runs     = 1000
		perBlock = 6 // entries per Add round: enough to seal one 512-byte block
	)
	ikeys := make([][]byte, (runs+1)*perBlock)
	for i := range ikeys {
		ikeys[i] = keys.MakeInternalKey(nil, []byte(fmt.Sprintf("key%08d", i)), uint64(i+1), keys.KindSet)
	}
	value := bytes.Repeat([]byte("v"), 100)
	opts := DefaultBuilderOptions()
	opts.BlockBytes = 512
	b := NewBuilder(discardWriter{}, opts)
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		for i := 0; i < perBlock; i++ {
			if err := b.Add(ikeys[next], value); err != nil {
				t.Fatal(err)
			}
			next++
		}
	})
	if b.numBlocks < runs {
		t.Fatalf("%d blocks sealed over %d rounds; the test wants at least one a round", b.numBlocks, runs)
	}
	if allocs != 0 {
		t.Errorf("Add allocates %.0f objects per block, want 0", allocs)
	}
}

// sliceWriter is a storage.Writer that keeps what it is given.
type sliceWriter struct{ b []byte }

func (w *sliceWriter) Write(p []byte) (int, error) { w.b = append(w.b, p...); return len(p), nil }
func (w *sliceWriter) Sync() error                 { return nil }
func (w *sliceWriter) Close() error                { return nil }

// TestBuilderResetMatchesFresh builds tables one after another with one
// Builder, re-targeted by Reset — after a finished table and after one
// abandoned mid-build — and requires each to be byte for byte, properties
// included, the table a fresh Builder writes from the same entries.
func TestBuilderResetMatchesFresh(t *testing.T) {
	opts := DefaultBuilderOptions()
	opts.BlockBytes = 512
	build := func(b *Builder, es []entry) Properties {
		for _, e := range es {
			if err := b.Add(e.ikey, e.value); err != nil {
				t.Fatal(err)
			}
		}
		props, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return props
	}
	all := seqEntries(900, 40)
	tables := [][]entry{all[:300], all[300:310], all[310:900]}
	reused := &sliceWriter{}
	b := NewBuilder(reused, opts)
	for i, es := range tables {
		if i == 2 {
			// Abandon a table half built: Reset forgets it.
			b.Reset(&sliceWriter{})
			for _, e := range all[:50] {
				if err := b.Add(e.ikey, e.value); err != nil {
					t.Fatal(err)
				}
			}
		}
		if i > 0 {
			reused = &sliceWriter{}
			b.Reset(reused)
		}
		got := build(b, es)
		fresh := &sliceWriter{}
		want := build(NewBuilder(fresh, opts), es)
		if !bytes.Equal(reused.b, fresh.b) {
			t.Fatalf("table %d: %d bytes from a reset Builder differ from %d from a fresh one", i, len(reused.b), len(fresh.b))
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("table %d: properties %+v, want %+v", i, got, want)
		}
		if b.MetaOffset() == 0 || b.NumEntries() != uint64(len(es)) {
			t.Fatalf("table %d: meta offset %d, %d entries", i, b.MetaOffset(), b.NumEntries())
		}
	}
}

// TestReadRawSpanInto reads the table in spans of 7 blocks into one buffer
// and one bodies slice, both reused from span to span, the buffer dirty from
// the last: the bodies equal ReadRawBlock's, alias the buffer and fill the
// slice passed in. A buffer of the wrong length is refused.
func TestReadRawSpanInto(t *testing.T) {
	opts := DefaultBuilderOptions()
	opts.BlockBytes = 256
	r, _ := buildTable(t, newLocal(t), "span.sst", opts, seqEntries(500, 30))
	var raw []byte
	bodies := make([][]byte, 0, 7)
	for all := r.DataHandles(); len(all) > 0; {
		hs := all[:min(7, len(all))]
		all = all[len(hs):]
		n := SpanBytes(hs)
		if cap(raw) < n {
			raw = make([]byte, n)
		}
		raw = raw[:n]
		for i := range raw {
			raw[i] = 0xA5
		}
		got, err := ReadRawSpanInto(r.File(), hs, raw, bodies)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(hs) || &got[:1][0] != &bodies[:1][0] {
			t.Fatalf("%d bodies for %d blocks, in the slice passed in: %v", len(got), len(hs), &got[:1][0] == &bodies[:1][0])
		}
		for i, h := range hs {
			want, err := ReadRawBlock(r.File(), h)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got[i], want) {
				t.Fatalf("block at %d: span body differs from ReadRawBlock's", h.Offset)
			}
			if &got[i][0] != &raw[h.Offset-hs[0].Offset] {
				t.Fatalf("block at %d: body does not alias the span buffer", h.Offset)
			}
		}
		if _, err := ReadRawSpanInto(r.File(), hs, raw[:n-1], bodies); err == nil {
			t.Fatal("a span buffer one byte short was accepted")
		}
	}
}
