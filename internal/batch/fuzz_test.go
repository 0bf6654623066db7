package batch

import (
	"bytes"
	"errors"
	"testing"
	"unsafe"

	"rocksmash/internal/keys"
)

// FuzzBatchIterate feeds arbitrary bytes to the batch decoder, which WAL
// recovery runs over every byte it replays: nothing may panic, every op's
// key and value must lie inside the payload, sequence numbers must count up
// from the header's, a payload that decodes without error must hold as
// many ops as its header says, and IterateAt (the decoder recovery calls)
// must report the same ops at offsets that slice out Iterate's keys and
// values. A batch built with Set and Delete from
// script (three bytes an op: kind bit, key length, value length) and
// stamped with seq must iterate back the same ops and sequence numbers.
// The seed corpus in testdata/fuzz/FuzzBatchIterate (valid batches, a
// truncated one, an unknown kind, an overlong varint, a count mismatch) is
// replayed by a plain `go test`.
func FuzzBatchIterate(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload, script []byte, seq uint64) {
		checkDecode(t, payload)

		b := New()
		var want []Op
		for i := 0; i+2 < len(script) && len(want) < 64; i += 3 {
			key := bytes.Repeat([]byte{script[i+1]}, int(script[i+1]%32))
			if script[i]&1 == 1 {
				b.Delete(key)
				want = append(want, Op{Kind: keys.KindDelete, Key: key})
				continue
			}
			val := bytes.Repeat([]byte{script[i+2]}, int(script[i+2]))
			b.Set(key, val)
			want = append(want, Op{Kind: keys.KindSet, Key: key, Value: val})
		}
		b.SetSeq(seq)
		if b.Count() != uint32(len(want)) {
			t.Fatalf("Count %d after %d ops", b.Count(), len(want))
		}
		rb, err := FromPayload(b.Payload())
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		err = rb.Iterate(func(op Op) error {
			w := want[i]
			if op.Kind != w.Kind || op.Seq != seq+uint64(i) || !bytes.Equal(op.Key, w.Key) || !bytes.Equal(op.Value, w.Value) {
				t.Fatalf("op %d = {%d %d %q %q}, want {%d %d %q %q}", i, op.Kind, op.Seq, op.Key, op.Value, w.Kind, seq+uint64(i), w.Key, w.Value)
			}
			i++
			return nil
		})
		if err != nil || i != len(want) {
			t.Fatalf("iterated %d of %d ops: %v", i, len(want), err)
		}
	})
}

// checkDecode iterates an arbitrary payload and checks every op against it.
func checkDecode(t *testing.T, payload []byte) {
	b, err := FromPayload(payload)
	if err != nil {
		if !errors.Is(err, ErrCorrupt) || len(payload) >= headerLen {
			t.Fatalf("FromPayload of %d bytes: %v", len(payload), err)
		}
		return
	}
	var ops []OpAt
	atErr := IterateAt(payload, func(op OpAt) error {
		ops = append(ops, op)
		return nil
	})
	var n uint32
	err = b.Iterate(func(op Op) error {
		if int(n) >= len(ops) {
			t.Fatalf("Iterate reports op %d, IterateAt %d ops", n, len(ops))
		}
		at := ops[n]
		if at.Kind != op.Kind || at.Seq != op.Seq || !bytes.Equal(payload[at.KeyOff:at.KeyOff+at.KeyLen], op.Key) || !bytes.Equal(payload[at.ValOff:at.ValOff+at.ValLen], op.Value) {
			t.Fatalf("op %d: IterateAt %+v, Iterate {%d %d %q %q}", n, at, op.Kind, op.Seq, op.Key, op.Value)
		}
		if op.Kind != keys.KindSet && op.Kind != keys.KindDelete {
			t.Fatalf("op %d has kind %d", n, op.Kind)
		}
		if op.Kind == keys.KindDelete && op.Value != nil {
			t.Fatalf("delete op %d carries a value", n)
		}
		if op.Seq != b.Seq()+uint64(n) {
			t.Fatalf("op %d has seq %d, base %d", n, op.Seq, b.Seq())
		}
		within(t, payload, op.Key, "key")
		within(t, payload, op.Value, "value")
		n++
		return nil
	})
	if (err == nil) != (atErr == nil) || int(n) != len(ops) {
		t.Fatalf("Iterate: %d ops, %v; IterateAt: %d ops, %v", n, err, len(ops), atErr)
	}
	switch {
	case err != nil && !errors.Is(err, ErrCorrupt):
		t.Fatalf("Iterate: %v, want nil or ErrCorrupt", err)
	case err == nil && n != b.Count():
		t.Fatalf("Iterate succeeded with %d ops, header says %d", n, b.Count())
	}
}

// within requires s to be empty or to lie inside payload's bytes.
func within(t *testing.T, payload, s []byte, what string) {
	t.Helper()
	if len(s) == 0 {
		return
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(payload)))
	p := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	if p < lo || p+uintptr(len(s)) > lo+uintptr(len(payload)) {
		t.Fatalf("%s of %d bytes lies outside the payload", what, len(s))
	}
}
