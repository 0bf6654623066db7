package sstable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

// footerTable is a small sound table image with a filter, so its footer
// names three blocks.
func footerTable(tb testing.TB) *memFile {
	tb.Helper()
	return tableImage(tb, seqEntries(200, 32), DefaultBuilderOptions())
}

// TestOpenRejectsFlippedFooterLengths flips, one at a time, every bit of
// each of the footer's three Length fields. The footer has no checksum, so
// each flip must be caught by the extent check or by the named block's own
// checksum: Open and MetaTail return ErrCorrupt, never a block read (or an
// allocation) sized by the flipped field.
func TestOpenRejectsFlippedFooterLengths(t *testing.T) {
	img := footerTable(t)
	foot := len(img.buf) - footerLen
	for _, field := range []struct {
		name string
		at   int
	}{{"filter", 8}, {"index", 24}, {"props", 40}} {
		for bit := 0; bit < 64; bit++ {
			buf := bytes.Clone(img.buf)
			at := foot + field.at
			binary.LittleEndian.PutUint64(buf[at:], binary.LittleEndian.Uint64(buf[at:])^1<<bit)
			if _, err := Open(&memFile{buf: buf}, 1); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s length, bit %d flipped: Open = %v, want ErrCorrupt", field.name, bit, err)
			}
			if _, _, err := MetaTail(&memFile{buf: buf}); bit >= 32 && !errors.Is(err, ErrCorrupt) {
				// MetaTail verifies no block: a small flip can still name
				// bytes inside the table, and the tail it returns fails its
				// checksums when opened. A large one must be refused.
				t.Errorf("%s length, bit %d flipped: MetaTail = %v, want ErrCorrupt", field.name, bit, err)
			}
		}
	}
}

// FuzzFooterDecode puts arbitrary bytes where a sound table's footer goes.
// Nothing may panic; readFooter, Open and MetaTail either fail with
// ErrCorrupt or succeed, and a footer readFooter accepts names blocks that
// lie, trailer included, inside the table ahead of the footer. The seeds,
// added below, are the sound footer and each of its six fields set to a
// value past the table, to one at its end and to the largest there is.
func FuzzFooterDecode(f *testing.F) {
	img := footerTable(f)
	body, sound := img.buf[:len(img.buf)-footerLen], img.buf[len(img.buf)-footerLen:]
	f.Add(bytes.Clone(sound))
	for field := 0; field < 6; field++ {
		for _, v := range []uint64{1 << 40, uint64(len(body)), math.MaxUint64} {
			ftr := bytes.Clone(sound)
			binary.LittleEndian.PutUint64(ftr[8*field:], v)
			f.Add(ftr)
		}
	}
	f.Fuzz(func(t *testing.T, ftr []byte) {
		tbl := &memFile{buf: append(bytes.Clone(body), ftr...)}
		size := uint64(len(tbl.buf))
		corrupt := func(what string, err error) {
			if err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: %v is not ErrCorrupt", what, err)
			}
		}
		d, err := readFooter(tbl)
		corrupt("readFooter", err)
		if err == nil {
			for i, h := range []Handle{d.filter, d.index, d.props} {
				if i == 0 && h.Length == 0 {
					continue // no filter
				}
				if h.Offset+h.Length+blockTrailerLen > size-footerLen || h.Offset+h.Length < h.Offset {
					t.Fatalf("accepted handle %+v in a %d-byte table", h, size)
				}
			}
		}
		_, err = Open(tbl, 1)
		corrupt("Open", err)
		tailOff, tail, err := MetaTail(tbl)
		corrupt("MetaTail", err)
		if err == nil && tailOff+uint64(len(tail)) != size {
			t.Fatalf("MetaTail: tail [%d, +%d) in a %d-byte table", tailOff, len(tail), size)
		}
	})
}
