package memtable

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rocksmash/internal/keys"
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

// addBoth adds one entry to the run and to its model.
func addBoth(t *testing.T, r *Run, m *runModel, seq uint64, kind keys.Kind, ukey, value []byte) {
	t.Helper()
	if err := r.Add(seq, kind, ukey, value); err != nil {
		t.Fatal(err)
	}
	m.add(seq, kind, ukey, value)
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

func TestRunEmpty(t *testing.T) {
	r := NewRun(0)
	r.Finish()
	checkRun(t, r, &runModel{}, [][]byte{nil, []byte("a")}, []uint64{0, 1, keys.MaxSequence})
}

func TestRunOneEntry(t *testing.T) {
	for _, kind := range []keys.Kind{keys.KindSet, keys.KindDelete} {
		r, m := NewRun(64), &runModel{}
		addBoth(t, r, m, 7, kind, []byte("k"), []byte("v"))
		r.Finish()
		m.sort()
		checkRun(t, r, m, [][]byte{nil, []byte("j"), []byte("k"), []byte("k\x00"), []byte("l")}, []uint64{6, 7, 8, keys.MaxSequence})
	}
}

// TestRunBufferSizing checks that a run nothing is added to allocates no
// buffer, and that Finish gives back most of a size hint a run did not use.
func TestRunBufferSizing(t *testing.T) {
	r := NewRun(1 << 20)
	r.Finish()
	if cap(r.buf) != 0 {
		t.Fatalf("empty run holds a %d-byte buffer", cap(r.buf))
	}
	r, m := NewRun(1<<20), &runModel{}
	addBoth(t, r, m, 7, keys.KindSet, []byte("k"), []byte("v"))
	r.Finish()
	m.sort()
	if cap(r.buf) > 2*len(r.buf) {
		t.Fatalf("run of %d bytes holds a %d-byte buffer", len(r.buf), cap(r.buf))
	}
	checkRun(t, r, m, [][]byte{[]byte("k")}, []uint64{7})
}

// TestRunVersionsOfOneKey adds many sequence numbers of one user key, sets
// and deletes, out of order, beside neighbours sharing its 8-byte prefix:
// the order among them is the trailer's alone.
func TestRunVersionsOfOneKey(t *testing.T) {
	r, m := NewRun(0), &runModel{}
	rng := rand.New(rand.NewSource(1))
	ukey := []byte("user0000key")
	var snaps []uint64
	for _, seq := range rng.Perm(64) {
		s := uint64(seq) + 10
		kind := keys.KindSet
		if seq%5 == 0 {
			kind = keys.KindDelete
		}
		val := []byte(fmt.Sprintf("v%d", s))
		addBoth(t, r, m, s, kind, ukey, val)
		snaps = append(snaps, s)
	}
	for i, k := range []string{"user0000ke", "user0000kez", "user0000"} {
		addBoth(t, r, m, uint64(100+i), keys.KindSet, []byte(k), []byte(k))
	}
	r.Finish()
	m.sort()
	snaps = append(snaps, 0, 9, 74, 100, 101, 102, keys.MaxSequence)
	checkRun(t, r, m, [][]byte{ukey, []byte("user0000ke"), []byte("user0000kez"), []byte("user0000"), []byte("user")}, snaps)
}

// TestRunMatchesModel builds runs of random sets and deletes over a small
// keyspace — keys shorter and longer than the 8-byte prefix, keys that are
// prefixes of others, keys with zero bytes — and compares every read.
func TestRunMatchesModel(t *testing.T) {
	alphabet := []string{"", "\x00", "a", "a\x00", "ab", "abcdefg", "abcdefgh", "abcdefgh\x00", "abcdefghi", "abcdefgz", "b", "user0000000001", "user0000000002", "zz"}
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		n := rng.Intn(200)
		r, m := NewRun(rng.Intn(4096)), &runModel{}
		for i, seq := range rng.Perm(n) {
			uk := []byte(alphabet[rng.Intn(len(alphabet))])
			kind := keys.KindSet
			if rng.Intn(4) == 0 {
				kind = keys.KindDelete
			}
			val := bytes.Repeat([]byte{byte(i)}, rng.Intn(40))
			addBoth(t, r, m, uint64(seq)+1, kind, uk, val)
		}
		r.Finish()
		m.sort()
		probes := [][]byte{[]byte("abcdefgh\x00\x00"), []byte("c")}
		for _, a := range alphabet {
			probes = append(probes, []byte(a))
		}
		snaps := []uint64{0, 1, uint64(n / 2), uint64(n), keys.MaxSequence}
		checkRun(t, r, m, probes, snaps)
	}
}
