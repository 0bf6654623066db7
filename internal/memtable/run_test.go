package memtable

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rocksmash/internal/keys"
	"rocksmash/internal/wal"
)

// runModel is a Run's reference: its entries as internal keys and values,
// sorted with keys.Compare.
type runModel struct {
	ikeys, vals [][]byte
}

func (m *runModel) add(seq uint64, kind keys.Kind, ukey, value []byte) {
	if kind == keys.KindDelete {
		value = nil
	}
	m.ikeys = append(m.ikeys, keys.MakeInternalKey(nil, ukey, seq, kind))
	m.vals = append(m.vals, value)
}

func (m *runModel) sort() {
	idx := make([]int, len(m.ikeys))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int { return keys.Compare(m.ikeys[a], m.ikeys[b]) })
	ik, vs := make([][]byte, len(idx)), make([][]byte, len(idx))
	for i, j := range idx {
		ik[i], vs[i] = m.ikeys[j], m.vals[j]
	}
	m.ikeys, m.vals = ik, vs
}

// lowerBound is the index of the first model entry >= k.
func (m *runModel) lowerBound(k []byte) int {
	i, _ := slices.BinarySearchFunc(m.ikeys, k, keys.Compare)
	return i
}

// get is GetSeek by linear scan: the newest entry of ukey at or below snap.
func (m *runModel) get(ukey []byte, snap uint64) (value []byte, seq uint64, found, live bool) {
	for i, ik := range m.ikeys {
		s, kind := keys.DecodeTrailer(ik)
		if !bytes.Equal(keys.UserKey(ik), ukey) || s > snap {
			continue
		}
		if !found || s > seq {
			found, seq, live, value = true, s, kind == keys.KindSet, m.vals[i]
		}
	}
	if !live {
		value = nil
	}
	return value, seq, found, live
}

// checkAt requires it to sit on model entry i (any i outside the model
// meaning invalid).
func checkAt(t *testing.T, m *runModel, it *RunIterator, i int, what string) {
	t.Helper()
	if i < 0 || i >= len(m.ikeys) {
		if it.Valid() {
			t.Fatalf("%s: valid at %q, want invalid", what, it.Key())
		}
		return
	}
	if !it.Valid() {
		t.Fatalf("%s: invalid, want %q", what, m.ikeys[i])
	}
	if !bytes.Equal(it.Key(), m.ikeys[i]) || !bytes.Equal(it.Value(), m.vals[i]) {
		t.Fatalf("%s: at (%q, %q), want (%q, %q)", what, it.Key(), it.Value(), m.ikeys[i], m.vals[i])
	}
}

// checkRun compares every read of r with the model: the size, a full walk
// in both directions, SeekGE and SeekLT (each followed by a step both
// ways) and GetSeek at every snapshot in snaps, for every user key in
// probes.
func checkRun(t *testing.T, r *Run, m *runModel, probes [][]byte, snaps []uint64) {
	t.Helper()
	if r.Len() != len(m.ikeys) || r.Empty() != (len(m.ikeys) == 0) {
		t.Fatalf("Len %d Empty %v, model holds %d", r.Len(), r.Empty(), len(m.ikeys))
	}
	var size int64
	for i := range m.ikeys {
		size += int64(len(m.ikeys[i]) + len(m.vals[i]))
	}
	if r.ApproximateSize() != size {
		t.Fatalf("ApproximateSize %d, want %d", r.ApproximateSize(), size)
	}

	it := r.NewIterator()
	if it.Valid() {
		t.Fatal("a new iterator is positioned")
	}
	it.First()
	for i := range m.ikeys {
		checkAt(t, m, it, i, "First+Next")
		it.Next()
	}
	checkAt(t, m, it, len(m.ikeys), "Next past the end")
	it.Last()
	for i := len(m.ikeys) - 1; i >= 0; i-- {
		checkAt(t, m, it, i, "Last+Prev")
		it.Prev()
	}
	checkAt(t, m, it, -1, "Prev past the start")

	for _, uk := range probes {
		for _, snap := range snaps {
			seek := keys.MakeSeekKey(nil, uk, snap)
			what := fmt.Sprintf("%q@%d", uk, snap)
			ge := m.lowerBound(seek)
			for _, step := range []int{0, 1, -1} {
				it.SeekGE(seek)
				checkAt(t, m, it, ge, "SeekGE "+what)
				if it.Valid() && step == 1 {
					it.Next()
					checkAt(t, m, it, ge+1, "SeekGE+Next "+what)
				}
				if it.Valid() && step == -1 {
					it.Prev()
					checkAt(t, m, it, ge-1, "SeekGE+Prev "+what)
				}
				it.SeekLT(seek)
				checkAt(t, m, it, ge-1, "SeekLT "+what)
				if it.Valid() && step == 1 {
					it.Next()
					checkAt(t, m, it, ge, "SeekLT+Next "+what)
				}
				if it.Valid() && step == -1 {
					it.Prev()
					checkAt(t, m, it, ge-2, "SeekLT+Prev "+what)
				}
			}

			v, seq, found, live := r.GetSeek(seek)
			wv, wseq, wfound, wlive := m.get(uk, snap)
			if found != wfound || live != wlive || (found && seq != wseq) || !bytes.Equal(v, wv) {
				t.Fatalf("GetSeek %s = (%q, %d, %v, %v), want (%q, %d, %v, %v)",
					what, v, seq, found, live, wv, wseq, wfound, wlive)
			}
		}
	}
}

// runInput is one entry a test adds to a run and to its model.
type runInput struct {
	seq         uint64
	kind        keys.Kind
	ukey, value []byte
	alias       bool // AddAt over the image; otherwise Add copies it
}

// buildRun lays the aliased inputs' keys and values out in an image, each
// behind pad filler bytes (the record headers of a WAL image), and adds
// every input to a run over that image — AddAt for aliased ones, Add for the
// rest, in input order — and to a model. It returns the finished run, the
// sorted model and the image.
func buildRun(t testing.TB, in []runInput, pad int) (*Run, *runModel, []byte) {
	t.Helper()
	var img []byte
	offs := make([][2]int, len(in))
	for i, e := range in {
		if e.alias {
			img = append(img, bytes.Repeat([]byte{0xEE}, pad)...)
			offs[i][0] = len(img)
			img = append(img, e.ukey...)
			offs[i][1] = len(img)
			img = append(img, e.value...)
		}
	}
	r, m := NewRun(img, len(in)), &runModel{}
	for i, e := range in {
		var err error
		if e.alias {
			err = r.AddAt(e.seq, e.kind, offs[i][0], len(e.ukey), offs[i][1], len(e.value))
		} else {
			err = r.Add(e.seq, e.kind, e.ukey, e.value)
		}
		if err != nil {
			t.Fatal(err)
		}
		m.add(e.seq, e.kind, e.ukey, e.value)
	}
	r.Finish()
	m.sort()
	return r, m, img
}

// userKeys lists the distinct user keys of in, and a few neighbours of
// each, as probes for checkRun.
func userKeys(in []runInput) [][]byte {
	seen := map[string]bool{}
	var probes [][]byte
	for _, e := range in {
		for _, k := range []string{string(e.ukey), string(e.ukey) + "\x00", string(e.ukey[:len(e.ukey)/2])} {
			if !seen[k] {
				seen[k] = true
				probes = append(probes, []byte(k))
			}
		}
	}
	return probes
}

// sameArray reports whether a and b start at the same byte.
func sameArray(a, b []byte) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

func TestRunEmpty(t *testing.T) {
	r := NewRun(nil, 0)
	r.Finish()
	checkRun(t, r, &runModel{}, [][]byte{nil, []byte("a")}, []uint64{0, 1, keys.MaxSequence})
}

func TestRunOneEntry(t *testing.T) {
	for _, kind := range []keys.Kind{keys.KindSet, keys.KindDelete} {
		for _, alias := range []bool{false, true} {
			r, m, _ := buildRun(t, []runInput{{7, kind, []byte("k"), []byte("v"), alias}}, 3)
			checkRun(t, r, m, [][]byte{nil, []byte("j"), []byte("k"), []byte("k\x00"), []byte("l")}, []uint64{6, 7, 8, keys.MaxSequence})
		}
	}
}

// TestRunBufferSizing checks the memory a finished run holds. A run that
// addresses at least half of its image keeps the image and aliases it: a
// value read back is a slice of the image. A run addressing less (a segment
// straddling the flushed watermark) copies its bytes out in Finish and holds
// no part of the image, and a run nothing was added to holds nothing. A run
// whose records were all reassembled makes its overflow buffer its image
// without copying it. Every way a run holds at most twice ApproximateSize.
func TestRunBufferSizing(t *testing.T) {
	held := func(r *Run) int64 { return int64(cap(r.img) + cap(r.over)) }

	r := NewRun(make([]byte, 1<<20), 0)
	r.Finish()
	if held(r) != 0 {
		t.Fatalf("empty run over a 1 MiB image holds %d bytes", held(r))
	}

	// Straddling: one entry of a 1 MiB image is live.
	in := []runInput{{7, keys.KindSet, []byte("k"), []byte("v"), true}}
	r, m, img := buildRun(t, in, 1<<20)
	if sameArray(r.img, img) || held(r) > 2*r.ApproximateSize() {
		t.Fatalf("straddling run holds %d bytes (image kept: %v) for %d live", held(r), sameArray(r.img, img), r.ApproximateSize())
	}
	checkRun(t, r, m, [][]byte{[]byte("k")}, []uint64{7})

	// Well used: the entries fill the image but for 2-byte pads, plus
	// overflow entries.
	in = nil
	for i := 0; i < 500; i++ {
		in = append(in, runInput{uint64(i + 1), keys.KindSet, []byte(fmt.Sprintf("key%05d", i)), bytes.Repeat([]byte{byte(i)}, 100), i%10 != 0})
	}
	r, m, img = buildRun(t, in, 2)
	if !sameArray(r.img, img) {
		t.Fatal("a run addressing most of its image copied it")
	}
	if held(r) > 2*r.ApproximateSize() {
		t.Fatalf("run holds %d bytes for %d live", held(r), r.ApproximateSize())
	}
	v, _, found, _ := r.GetSeek(keys.MakeSeekKey(nil, []byte("key00001"), keys.MaxSequence))
	if !found || !sameArray(v, img[2+8:]) {
		t.Fatalf("value of an aliased entry is not a slice of the image (found %v)", found)
	}
	checkRun(t, r, m, userKeys(in), []uint64{0, 250, keys.MaxSequence})

	// Every record reassembled, as in a segment of records larger than a
	// WAL block: the first Add sizes the overflow buffer for the segment's
	// records of its size, no later Add reallocates it, and Finish makes it
	// the image without copying it.
	img = make([]byte, 1<<20)
	r, m = NewRun(img, 0), &runModel{}
	var over []byte
	for i := 0; i < 20; i++ {
		k, v := []byte(fmt.Sprintf("big%05d", 19-i)), bytes.Repeat([]byte{byte(i)}, 48<<10)
		if err := r.Add(uint64(i+1), keys.KindSet, k, v); err != nil {
			t.Fatal(err)
		}
		m.add(uint64(i+1), keys.KindSet, k, v)
		if i == 0 {
			over = r.over
		}
	}
	if !sameArray(r.over, over) {
		t.Fatal("the overflow buffer was reallocated for records of one size")
	}
	r.Finish()
	m.sort()
	if sameArray(r.img, img) || !sameArray(r.img, over) || held(r) > 2*r.ApproximateSize() {
		t.Fatalf("reassembled run holds %d bytes for %d live (segment image kept: %v, overflow buffer kept: %v)",
			held(r), r.ApproximateSize(), sameArray(r.img, img), sameArray(r.img, over))
	}
	checkRun(t, r, m, [][]byte{[]byte("big00000"), []byte("big00019")}, []uint64{5, keys.MaxSequence})

	// Mostly reassembled, a few entries aliased in a mostly dead image: the
	// aliased bytes move to the overflow buffer, which becomes the image.
	in = nil
	for i := 0; i < 40; i++ {
		in = append(in, runInput{uint64(i + 1), keys.KindSet, []byte(fmt.Sprintf("mix%05d", i)), bytes.Repeat([]byte{byte(i)}, 5000), i%8 == 0})
	}
	r, m, img = buildRun(t, in, 64<<10)
	if sameArray(r.img, img) || held(r) > 2*r.ApproximateSize() {
		t.Fatalf("mixed run holds %d bytes for %d live (image kept: %v)", held(r), r.ApproximateSize(), sameArray(r.img, img))
	}
	checkRun(t, r, m, userKeys(in), []uint64{0, 20, keys.MaxSequence})
}

// TestRunBlockIsWALBlock pins the block size the overflow buffer is sized
// by to the WAL's.
func TestRunBlockIsWALBlock(t *testing.T) {
	if walBlock != wal.BlockSize {
		t.Fatalf("walBlock = %d, wal.BlockSize = %d", walBlock, wal.BlockSize)
	}
}

// TestRunVersionsOfOneKey adds many sequence numbers of one user key, sets
// and deletes, out of order, beside neighbours sharing its 8-byte prefix:
// the order among them is the trailer's alone. 20 versions are ordered by
// the tie pass's insertion sort, 64 by its sort of a large group.
func TestRunVersionsOfOneKey(t *testing.T) {
	for _, versions := range []int{20, 64} {
		rng := rand.New(rand.NewSource(int64(versions)))
		ukey := []byte("user0000key")
		var in []runInput
		var snaps []uint64
		for _, seq := range rng.Perm(versions) {
			s := uint64(seq) + 10
			kind := keys.KindSet
			if seq%5 == 0 {
				kind = keys.KindDelete
			}
			in = append(in, runInput{s, kind, ukey, []byte(fmt.Sprintf("v%d", s)), seq%3 != 0})
			snaps = append(snaps, s)
		}
		for i, k := range []string{"user0000ke", "user0000kez", "user0000"} {
			in = append(in, runInput{uint64(100 + i), keys.KindSet, []byte(k), []byte(k), i != 1})
		}
		r, m, _ := buildRun(t, in, 5)
		snaps = append(snaps, 0, 9, uint64(versions+10), 100, 101, 102, keys.MaxSequence)
		checkRun(t, r, m, [][]byte{ukey, []byte("user0000ke"), []byte("user0000kez"), []byte("user0000"), []byte("user")}, snaps)
	}
}

// TestRunSharedPrefix adds groups of distinct keys that agree on their
// first 8 bytes — short of, at and past the tie pass's insertion bound —
// between neighbours whose prefixes differ in the last byte, so that the
// tie pass alone orders each group.
func TestRunSharedPrefix(t *testing.T) {
	for _, group := range []int{2, tieSortMax, tieSortMax + 1, 300} {
		rng := rand.New(rand.NewSource(int64(group)))
		var in []runInput
		seqs := rng.Perm(group)
		for i := 0; i < group; i++ {
			suffix := make([]byte, rng.Intn(6))
			for j := range suffix {
				suffix[j] = "\x00az\xff"[rng.Intn(4)]
			}
			k := append([]byte("sharedpf"), suffix...)
			in = append(in, runInput{uint64(seqs[i] + 1), keys.Kind(rng.Intn(2)), k, k, rng.Intn(2) == 0})
		}
		for i, k := range []string{"sharedpe", "sharedpe\xff", "sharedpg", "sharedp"} {
			in = append(in, runInput{uint64(2000 + i), keys.KindSet, []byte(k), nil, true})
		}
		rng.Shuffle(len(in), func(i, j int) { in[i], in[j] = in[j], in[i] })
		r, m, _ := buildRun(t, in, 1)
		checkRun(t, r, m, userKeys(in), []uint64{0, uint64(group / 2), keys.MaxSequence})
	}
}

// TestRunMatchesModel builds runs of random sets and deletes over a small
// keyspace — keys shorter and longer than the 8-byte prefix, keys that are
// prefixes of others, keys with zero bytes — some aliasing the image and
// some copied, and compares every read.
func TestRunMatchesModel(t *testing.T) {
	alphabet := []string{"", "\x00", "a", "a\x00", "ab", "abcdefg", "abcdefgh", "abcdefgh\x00", "abcdefghi", "abcdefgz", "b", "user0000000001", "user0000000002", "zz"}
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		n := rng.Intn(200)
		var in []runInput
		for i, seq := range rng.Perm(n) {
			kind := keys.KindSet
			if rng.Intn(4) == 0 {
				kind = keys.KindDelete
			}
			in = append(in, runInput{uint64(seq) + 1, kind, []byte(alphabet[rng.Intn(len(alphabet))]), bytes.Repeat([]byte{byte(i)}, rng.Intn(40)), rng.Intn(4) != 0})
		}
		r, m, _ := buildRun(t, in, rng.Intn(8))
		probes := [][]byte{[]byte("abcdefgh\x00\x00"), []byte("c")}
		for _, a := range alphabet {
			probes = append(probes, []byte(a))
		}
		snaps := []uint64{0, 1, uint64(n / 2), uint64(n), keys.MaxSequence}
		checkRun(t, r, m, probes, snaps)
	}
}

// TestRunRandomKeys sorts runs of random keys over a four-byte alphabet
// (zero bytes included), 0 to 11 bytes long: prefixes that differ in any
// of their eight bytes, in several at once, and tie.
func TestRunRandomKeys(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		var in []runInput
		for i, seq := range rng.Perm(1000) {
			k := make([]byte, rng.Intn(12))
			for j := range k {
				k[j] = "\x00\x01\x80\xff"[rng.Intn(4)]
			}
			in = append(in, runInput{uint64(seq + 1), keys.Kind(rng.Intn(2)), k, []byte{byte(i), byte(i >> 8)}, rng.Intn(3) != 0})
		}
		r, m, _ := buildRun(t, in, 0)
		probes := userKeys(in)
		if len(probes) > 200 {
			probes = probes[:200]
		}
		checkRun(t, r, m, probes, []uint64{0, 500, keys.MaxSequence})
	}
}

// TestRunAddAtOutsideImage requires AddAt to refuse a key or value that does
// not lie in the image.
func TestRunAddAtOutsideImage(t *testing.T) {
	r := NewRun(make([]byte, 10), 0)
	for _, c := range [][4]int{{8, 3, 0, 0}, {0, 1, 5, 6}, {-1, 1, 0, 0}, {0, 1, 0, -1}} {
		if err := r.AddAt(1, keys.KindSet, c[0], c[1], c[2], c[3]); err == nil {
			t.Fatalf("AddAt(%v) over a 10-byte image succeeded", c)
		}
	}
	if err := r.AddAt(1, keys.KindDelete, 0, 10, 50, 50); err != nil {
		t.Fatalf("AddAt of a delete checked the value it ignores: %v", err)
	}
}
