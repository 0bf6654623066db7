package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"testing"
)

// FuzzRecordReader feeds arbitrary bytes to the record decoder: nothing may
// panic, every Next must consume bytes, and a record Next returns must be
// the payloads of the physical records it consumed, each of whose checksum
// verifies (recomputed here over a copy, not in place). Writer output must
// round-trip: lens cuts records (little-endian uint16 lengths, so they reach
// across blocks) that are encoded as one group, read back whole, read back
// as a prefix from any torn cut of the image, and read back whole past a
// zero-filled tail. The seed corpus in testdata/fuzz/FuzzRecordReader
// (writer output within and across blocks, torn and bit-flipped copies, a
// zero-filled tail, and lens that fragment records into FIRST/MIDDLE/LAST)
// is replayed by a plain `go test`.
func FuzzRecordReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, image, lens []byte) {
		checkDecode(t, image)

		var payloads [][]byte
		for i := 0; i+1 < len(lens) && len(payloads) < 16; i += 2 {
			p := make([]byte, binary.LittleEndian.Uint16(lens[i:]))
			for j := range p {
				p[j] = byte(i + j)
			}
			payloads = append(payloads, p)
		}
		var out countingWriter
		rw := NewRecordWriter(&out)
		for _, p := range payloads {
			rw.encode(p)
		}
		if err := rw.flush(); err != nil {
			t.Fatal(err)
		}
		if len(payloads) > 0 && out.writes != 1 {
			t.Fatalf("a group of %d records took %d Writes", len(payloads), out.writes)
		}
		data := out.Bytes()
		readBack(t, data, payloads, false)
		// A cut anywhere is a torn tail: a prefix of the records, never
		// corruption.
		cut := 0
		if len(image) > 0 {
			cut = int(image[0]) * len(data) / 255
		}
		readBack(t, data[:cut], payloads, true)
		// Zeros past the end (a preallocated tail) are a clean end: enough of
		// them to hold a header even after padding out the last block.
		readBack(t, append(data, make([]byte, 2*headerLen)...), payloads, false)
	})
}

// checkDecode walks image with the decoder and re-verifies every record it
// returns against the physical records it consumed, and the offset it
// reports for a record in one block against the image.
func checkDecode(t *testing.T, image []byte) {
	rr := NewRecordReader(image)
	for {
		from := rr.off
		rec, off, err := rr.next()
		if err != nil {
			if err != io.EOF && err != io.ErrUnexpectedEOF && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Next returned %v", err)
			}
			return
		}
		if rr.off <= from {
			t.Fatalf("Next returned a record without consuming bytes at %d", from)
		}
		var joined []byte
		for off := from; off < rr.off; {
			if tail := BlockSize - off%BlockSize; tail < headerLen {
				off += tail
				continue
			}
			n := int(binary.LittleEndian.Uint16(image[off+4:]))
			typ := image[off+6]
			payload := image[off+headerLen : off+headerLen+n]
			if crc32.Checksum(append([]byte{typ}, payload...), castagnoli) != binary.LittleEndian.Uint32(image[off:]) {
				t.Fatalf("record ending at %d includes a physical record at %d whose checksum does not verify", rr.off, off)
			}
			joined = append(joined, payload...)
			off += headerLen + n
		}
		if !bytes.Equal(joined, rec) {
			t.Fatalf("record ending at %d is not the payloads it consumed", rr.off)
		}
		if off != Reassembled && (off < from || off+len(rec) > rr.off || !bytes.Equal(image[off:off+len(rec)], rec)) {
			t.Fatalf("record ending at %d reported at offset %d, which does not hold it", rr.off, off)
		}
	}
}

// readBack decodes data and checks it yields want in order; when torn it
// may stop early, but only at a torn tail or a clean end.
func readBack(t *testing.T, data []byte, want [][]byte, torn bool) {
	rr := NewRecordReader(data)
	for i := 0; ; i++ {
		rec, err := rr.Next()
		if err != nil {
			if torn && (err == io.EOF || err == io.ErrUnexpectedEOF) {
				return
			}
			if err == io.EOF && i == len(want) {
				return
			}
			t.Fatalf("record %d of %d: %v", i, len(want), err)
		}
		if i >= len(want) || !bytes.Equal(rec, want[i]) {
			t.Fatalf("record %d of %d does not round-trip", i, len(want))
		}
	}
}
