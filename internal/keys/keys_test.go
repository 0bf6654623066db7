package keys

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPackUnpackTrailer(t *testing.T) {
	cases := []struct {
		seq  uint64
		kind Kind
	}{
		{0, KindDelete},
		{1, KindSet},
		{MaxSequence, KindSet},
		{123456789, KindDelete},
	}
	for _, c := range cases {
		seq, kind := UnpackTrailer(PackTrailer(c.seq, c.kind))
		if seq != c.seq || kind != c.kind {
			t.Errorf("round trip (%d,%v) -> (%d,%v)", c.seq, c.kind, seq, kind)
		}
	}
}

func TestMakeAndDecodeInternalKey(t *testing.T) {
	ik := MakeInternalKey(nil, []byte("hello"), 42, KindSet)
	if got := UserKey(ik); !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("user key = %q", got)
	}
	seq, kind := DecodeTrailer(ik)
	if seq != 42 || kind != KindSet {
		t.Fatalf("trailer = (%d,%v)", seq, kind)
	}
	if !Valid(ik) {
		t.Fatal("key should be valid")
	}
	if Valid([]byte("short")) {
		t.Fatal("5-byte key should be invalid")
	}
}

func TestCompareOrdering(t *testing.T) {
	// Same user key: higher seq sorts first.
	a := MakeInternalKey(nil, []byte("k"), 10, KindSet)
	b := MakeInternalKey(nil, []byte("k"), 5, KindSet)
	if Compare(a, b) >= 0 {
		t.Error("seq 10 should sort before seq 5")
	}
	// Different user keys dominate.
	c := MakeInternalKey(nil, []byte("a"), 1, KindSet)
	d := MakeInternalKey(nil, []byte("b"), 100, KindSet)
	if Compare(c, d) >= 0 {
		t.Error("user key a should sort before b")
	}
	// Equal keys compare equal.
	if Compare(a, append([]byte(nil), a...)) != 0 {
		t.Error("identical keys should compare equal")
	}
	// Same (key, seq): KindSet sorts before KindDelete (descending kind).
	e := MakeInternalKey(nil, []byte("k"), 7, KindSet)
	f := MakeInternalKey(nil, []byte("k"), 7, KindDelete)
	if Compare(e, f) >= 0 {
		t.Error("SET should sort before DEL at equal seq")
	}
}

func TestSeekKeyPositionsBeforeEntries(t *testing.T) {
	// A seek key at snapshot s must compare <= every entry with seq <= s
	// for the same user key, and > entries with seq > s.
	seek := MakeSeekKey(nil, []byte("k"), 50)
	older := MakeInternalKey(nil, []byte("k"), 50, KindSet)
	newer := MakeInternalKey(nil, []byte("k"), 51, KindSet)
	if Compare(seek, older) > 0 {
		t.Error("seek key must not sort after a visible entry")
	}
	if Compare(seek, newer) <= 0 {
		t.Error("seek key must sort after an invisible (newer) entry")
	}
}

func TestSeparatorProperties(t *testing.T) {
	check := func(au, bu string, aseq, bseq uint64) {
		a := MakeInternalKey(nil, []byte(au), aseq, KindSet)
		b := MakeInternalKey(nil, []byte(bu), bseq, KindSet)
		if bytes.Compare([]byte(au), []byte(bu)) >= 0 {
			return
		}
		sep := AppendSeparator(nil, a, b)
		if Compare(a, sep) > 0 {
			t.Errorf("AppendSeparator(%q,%q): a > sep", au, bu)
		}
		if Compare(sep, b) >= 0 {
			t.Errorf("AppendSeparator(%q,%q): sep >= b", au, bu)
		}
	}
	check("abc", "abf", 5, 9)
	check("abc", "abcd", 5, 9)
	check("a", "z", 1, 1)
	check("axyz", "b", 3, 3)
	check("ab\xff", "ac", 1, 2)

	// Appending keeps what dst held and builds the same, shorter key behind it.
	a := MakeInternalKey(nil, []byte("axyz"), 3, KindSet)
	b := MakeInternalKey(nil, []byte("c"), 3, KindSet)
	want := AppendSeparator(nil, a, b)
	if got := AppendSeparator([]byte("pre"), a, b); string(got) != "pre"+string(want) || len(want) >= len(a) {
		t.Errorf("AppendSeparator onto %q = %q, want the prefix then %q, shorter than %q", "pre", got, want, a)
	}
}

func TestSuccessorProperties(t *testing.T) {
	for _, u := range []string{"abc", "\xff\xff", "a\xffb", ""} {
		a := MakeInternalKey(nil, []byte(u), 9, KindSet)
		s := Successor(a)
		if Compare(a, s) > 0 {
			t.Errorf("Successor(%q) sorts before input", u)
		}
	}
}

func TestSeparatorQuick(t *testing.T) {
	f := func(au, bu []byte, aseq, bseq uint64) bool {
		aseq &= MaxSequence
		bseq &= MaxSequence
		if bytes.Compare(au, bu) >= 0 {
			return true
		}
		a := MakeInternalKey(nil, au, aseq, KindSet)
		b := MakeInternalKey(nil, bu, bseq, KindSet)
		sep := AppendSeparator(nil, a, b)
		return Compare(a, sep) <= 0 && Compare(sep, b) < 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestCompareQuickAntisymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	gen := func() []byte {
		k := make([]byte, rng.Intn(8))
		rng.Read(k)
		return MakeInternalKey(nil, k, uint64(rng.Intn(100)), Kind(rng.Intn(2)))
	}
	for i := 0; i < 5000; i++ {
		a, b := gen(), gen()
		if Compare(a, b) != -Compare(b, a) {
			t.Fatalf("antisymmetry violated for %x %x", a, b)
		}
	}
}

func TestCompareTransitivity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	gen := func() []byte {
		k := make([]byte, rng.Intn(4))
		rng.Read(k)
		return MakeInternalKey(nil, k, uint64(rng.Intn(8)), Kind(rng.Intn(2)))
	}
	for i := 0; i < 5000; i++ {
		a, b, c := gen(), gen(), gen()
		if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
			t.Fatalf("transitivity violated: %x %x %x", a, b, c)
		}
	}
}

// TestPrefixOrder: the 8-byte prefix never contradicts bytewise order, so a
// search may settle any compare whose prefixes differ without the key
// bytes. Short alphabets make ties, zero bytes and shared heads common.
func TestPrefixOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	key := func() []byte {
		b := make([]byte, rng.Intn(12))
		for i := range b {
			b[i] = "\x00\x01a"[rng.Intn(3)]
		}
		return b
	}
	for i := 0; i < 100000; i++ {
		a, b := key(), key()
		pa, pb := Prefix(a), Prefix(b)
		if c := bytes.Compare(a, b); pa < pb && c >= 0 || pa > pb && c <= 0 {
			t.Fatalf("Prefix(%q) = %#x, Prefix(%q) = %#x, but bytes.Compare = %d", a, pa, b, pb, c)
		}
	}
}
