package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
)

// refWriter is the record encoder as it was before RecordWriter encoded
// into its own buffer: a Write for the header and another for the payload
// of every physical record, a made slice of zeros for block padding, and
// the checksum taken over a copy of type byte and payload. It stays as the
// reference the in-place encoder must match byte for byte.
type refWriter struct {
	w   io.Writer
	off int
}

func (rw *refWriter) Append(payload []byte) error {
	first := true
	for {
		avail := BlockSize - rw.off
		if avail < headerLen {
			if avail > 0 {
				if _, err := rw.w.Write(make([]byte, avail)); err != nil {
					return err
				}
			}
			rw.off = 0
			avail = BlockSize
		}
		n := len(payload)
		if n > avail-headerLen {
			n = avail - headerLen
		}
		var typ byte
		last := n == len(payload)
		switch {
		case first && last:
			typ = typeFull
		case first:
			typ = typeFirst
		case last:
			typ = typeLast
		default:
			typ = typeMiddle
		}
		var hdr [headerLen]byte
		crc := crc32.Checksum(append([]byte{typ}, payload[:n]...), castagnoli)
		binary.LittleEndian.PutUint32(hdr[0:4], crc)
		binary.LittleEndian.PutUint16(hdr[4:6], uint16(n))
		hdr[6] = typ
		if _, err := rw.w.Write(hdr[:]); err != nil {
			return err
		}
		if _, err := rw.w.Write(payload[:n]); err != nil {
			return err
		}
		rw.off += headerLen + n
		payload = payload[n:]
		first = false
		if last {
			return nil
		}
	}
}

// countingWriter counts the Write calls that reach it.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestEncoderMatchesReference: for random groups of 1–64 records of 0–100
// KiB, starting with 0–6 bytes left in the block, encoding the group and
// flushing it once emits exactly the bytes the two-Write reference emits
// record by record, in one Write, and encode reports every byte it added.
func TestEncoderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 60; iter++ {
		tail := iter % headerLen // bytes left in the first block: 0..6
		lead := make([]byte, BlockSize-headerLen-tail)
		group := make([][]byte, 1+rng.Intn(64))
		for i := range group {
			n := rng.Intn(256)
			if rng.Intn(8) == 0 {
				n = rng.Intn(100 << 10)
			}
			group[i] = make([]byte, n)
			rng.Read(group[i])
		}

		var want bytes.Buffer
		ref := &refWriter{w: &want}
		var got countingWriter
		rw := NewRecordWriter(&got)
		if err := ref.Append(lead); err != nil {
			t.Fatal(err)
		}
		if err := rw.Append(lead); err != nil {
			t.Fatal(err)
		}
		if rw.blockOffset() != BlockSize-tail {
			t.Fatalf("lead record left %d bytes in the block, want %d", BlockSize-rw.blockOffset(), tail)
		}
		emitted := 0
		for _, p := range group {
			if err := ref.Append(p); err != nil {
				t.Fatal(err)
			}
			emitted += rw.encode(p)
		}
		if err := rw.flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("iter %d (tail %d, %d records): encoder output differs from the reference", iter, tail, len(group))
		}
		if got.writes != 2 {
			t.Fatalf("iter %d: %d Writes for the lead record and one group, want 2", iter, got.writes)
		}
		if emitted != got.Len()-len(lead)-headerLen {
			t.Fatalf("iter %d: encode reported %d bytes, the group took %d", iter, emitted, got.Len()-len(lead)-headerLen)
		}
	}
}

// TestFlushDropsOversizedBuffer: a buffer that grew past maxKeptBuf is not
// kept after its flush; an ordinary one is reused.
func TestFlushDropsOversizedBuffer(t *testing.T) {
	rw := NewRecordWriter(io.Discard)
	if err := rw.Append(make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if cap(rw.buf) == 0 {
		t.Fatal("small buffer was dropped")
	}
	if err := rw.Append(make([]byte, maxKeptBuf+1)); err != nil {
		t.Fatal(err)
	}
	if rw.buf != nil {
		t.Fatalf("kept a %d-byte buffer", cap(rw.buf))
	}
}

func TestRecordRoundTripSmall(t *testing.T) {
	var buf bytes.Buffer
	w := NewRecordWriter(&buf)
	payloads := [][]byte{[]byte("one"), []byte("two"), {}, []byte("four")}
	for _, p := range payloads {
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	r := NewRecordReader(buf.Bytes())
	for i, want := range payloads {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d mismatch", i)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestRecordSpansBlocks(t *testing.T) {
	var buf bytes.Buffer
	w := NewRecordWriter(&buf)
	big := make([]byte, BlockSize*3+123)
	for i := range big {
		big[i] = byte(i)
	}
	if err := w.Append(big); err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("after")); err != nil {
		t.Fatal(err)
	}
	r := NewRecordReader(buf.Bytes())
	got, err := r.Next()
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("big record: err=%v match=%v", err, bytes.Equal(got, big))
	}
	got, err = r.Next()
	if err != nil || string(got) != "after" {
		t.Fatalf("after record: %q %v", got, err)
	}
}

func TestBlockBoundaryPadding(t *testing.T) {
	var buf bytes.Buffer
	w := NewRecordWriter(&buf)
	// Fill to within <7 bytes of a block boundary, forcing padding.
	p1 := make([]byte, BlockSize-headerLen-3)
	if err := w.Append(p1); err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("next-block")); err != nil {
		t.Fatal(err)
	}
	if w.blockOffset() == 0 {
		t.Fatal("writer should be inside the second block")
	}
	r := NewRecordReader(buf.Bytes())
	if got, err := r.Next(); err != nil || len(got) != len(p1) {
		t.Fatalf("p1: len=%d err=%v", len(got), err)
	}
	if got, err := r.Next(); err != nil || string(got) != "next-block" {
		t.Fatalf("p2: %q %v", got, err)
	}
}

func TestTornTailTolerated(t *testing.T) {
	var buf bytes.Buffer
	w := NewRecordWriter(&buf)
	w.Append([]byte("intact"))
	w.Append([]byte("will-be-torn"))
	data := buf.Bytes()
	// Chop the last few bytes to simulate a crash mid-write.
	data = data[:len(data)-5]
	r := NewRecordReader(data)
	got, err := r.Next()
	if err != nil || string(got) != "intact" {
		t.Fatalf("first record: %q %v", got, err)
	}
	if _, err := r.Next(); err != io.ErrUnexpectedEOF {
		t.Fatalf("torn tail should give ErrUnexpectedEOF, got %v", err)
	}
}

func TestMidLogCorruptionDetected(t *testing.T) {
	var buf bytes.Buffer
	w := NewRecordWriter(&buf)
	w.Append(bytes.Repeat([]byte("a"), 100))
	w.Append(bytes.Repeat([]byte("b"), 100))
	data := append([]byte(nil), buf.Bytes()...)
	// Flip a payload byte of the first record.
	data[headerLen+10] ^= 0xff
	r := NewRecordReader(data)
	_, err := r.Next()
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("expected ErrCorrupt, got %v", err)
	}
}

func TestZeroFilledTailIsEOF(t *testing.T) {
	var buf bytes.Buffer
	w := NewRecordWriter(&buf)
	w.Append([]byte("rec"))
	data := append(buf.Bytes(), make([]byte, 64)...) // preallocated zeros
	r := NewRecordReader(data)
	if got, err := r.Next(); err != nil || string(got) != "rec" {
		t.Fatalf("%q %v", got, err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("zero tail should be clean EOF, got %v", err)
	}
}

func TestQuickRecordRoundTrip(t *testing.T) {
	f := func(seed int64, count uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var buf bytes.Buffer
		w := NewRecordWriter(&buf)
		var payloads [][]byte
		for i := 0; i < int(count); i++ {
			p := make([]byte, rng.Intn(3*BlockSize))
			rng.Read(p)
			payloads = append(payloads, p)
			if err := w.Append(p); err != nil {
				return false
			}
		}
		r := NewRecordReader(buf.Bytes())
		for _, want := range payloads {
			got, err := r.Next()
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		_, err := r.Next()
		return err == io.EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
