// Package sstable implements the sorted-string-table file format:
//
//	[data block]*
//	[filter block]      bloom filter over user keys
//	[index block]       separator key -> data block handle
//	[properties block]  table statistics
//	[footer]            fixed-size: filter/index/properties handles + magic
//
// Every block is followed by a 5-byte trailer (compression type byte +
// crc32c). Blocks use the prefix-compressed format from internal/block.
package sstable

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"rocksmash/internal/storage"
)

const (
	// blockTrailerLen is the compression byte + crc32 suffix on each block.
	blockTrailerLen = 5
	// footerLen is the fixed footer size.
	footerLen = 3*16 + 8
	// tableMagic marks a valid table footer.
	tableMagic = 0x726f636b6d617368 // "rockmash"
)

// Compression selects the per-block compression codec.
type Compression uint8

// Supported codecs. Compressed blocks that fail to shrink are stored raw.
const (
	CompressionNone  Compression = 0
	CompressionFlate Compression = 1
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a malformed or checksum-failing table structure.
var ErrCorrupt = errors.New("sstable: corrupt table")

// Handle locates a block within a table file. Length excludes the trailer.
type Handle struct {
	Offset uint64
	Length uint64
}

// EncodeVarint appends the handle in varint form (used in index values).
func (h Handle) EncodeVarint(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, h.Offset)
	return binary.AppendUvarint(dst, h.Length)
}

// DecodeHandle parses a varint-encoded handle.
func DecodeHandle(p []byte) (Handle, error) {
	off, n1 := binary.Uvarint(p)
	if n1 <= 0 {
		return Handle{}, ErrCorrupt
	}
	ln, n2 := binary.Uvarint(p[n1:])
	if n2 <= 0 {
		return Handle{}, ErrCorrupt
	}
	return Handle{Offset: off, Length: ln}, nil
}

type footer struct {
	filter Handle
	index  Handle
	props  Handle
}

func (f footer) encode() []byte {
	buf := make([]byte, footerLen)
	binary.LittleEndian.PutUint64(buf[0:], f.filter.Offset)
	binary.LittleEndian.PutUint64(buf[8:], f.filter.Length)
	binary.LittleEndian.PutUint64(buf[16:], f.index.Offset)
	binary.LittleEndian.PutUint64(buf[24:], f.index.Length)
	binary.LittleEndian.PutUint64(buf[32:], f.props.Offset)
	binary.LittleEndian.PutUint64(buf[40:], f.props.Length)
	binary.LittleEndian.PutUint64(buf[48:], tableMagic)
	return buf
}

// tailOffset returns where the metadata tail — the first of the filter,
// index and properties blocks — begins.
func (f footer) tailOffset() uint64 {
	off := min(f.index.Offset, f.props.Offset)
	if f.filter.Length > 0 {
		off = min(off, f.filter.Offset)
	}
	return off
}

func decodeFooter(buf []byte) (footer, error) {
	if len(buf) != footerLen || binary.LittleEndian.Uint64(buf[48:]) != tableMagic {
		return footer{}, fmt.Errorf("%w: bad footer", ErrCorrupt)
	}
	return footer{
		filter: Handle{binary.LittleEndian.Uint64(buf[0:]), binary.LittleEndian.Uint64(buf[8:])},
		index:  Handle{binary.LittleEndian.Uint64(buf[16:]), binary.LittleEndian.Uint64(buf[24:])},
		props:  Handle{binary.LittleEndian.Uint64(buf[32:]), binary.LittleEndian.Uint64(buf[40:])},
	}, nil
}

// readFooter reads and decodes the footer of table f. The footer carries no
// checksum of its own, so every block it names must lie, trailer included,
// between the start of the table and the footer: a flipped bit then reads as
// ErrCorrupt, never as a read or an allocation sized by the garbage. The
// metadata tail it implies lies inside the table too.
func readFooter(f storage.Reader) (footer, error) {
	size := f.Size()
	if size < footerLen {
		return footer{}, fmt.Errorf("%w: file too small (%d bytes)", ErrCorrupt, size)
	}
	var buf []byte
	if t, ok := f.(*TailReader); ok {
		buf, _ = t.image(size-footerLen, footerLen)
	}
	if buf == nil {
		buf = make([]byte, footerLen)
		if _, err := f.ReadAt(buf, size-footerLen); err != nil && err != io.EOF {
			return footer{}, err
		}
	}
	ftr, err := decodeFooter(buf)
	if err != nil {
		return footer{}, err
	}
	end := uint64(size) - footerLen
	for i, h := range [...]Handle{ftr.filter, ftr.index, ftr.props} {
		if i == 0 && h.Length == 0 {
			continue // no filter
		}
		if n := h.Length + blockTrailerLen; n < h.Length || h.Offset > end || n > end-h.Offset {
			return footer{}, fmt.Errorf("%w: footer names block [%d, +%d) outside a %d-byte table", ErrCorrupt, h.Offset, h.Length, size)
		}
	}
	return ftr, nil
}

// Properties summarizes a table's contents; stored in the properties block
// and kept in memory (on the local tier) for every open table.
type Properties struct {
	NumEntries  uint64
	NumDeletes  uint64
	RawKeyBytes uint64
	RawValBytes uint64
	MinSeq      uint64
	MaxSeq      uint64
	Smallest    []byte // smallest internal key
	Largest     []byte // largest internal key
}

func (p Properties) encode() []byte {
	var buf []byte
	buf = binary.AppendUvarint(buf, p.NumEntries)
	buf = binary.AppendUvarint(buf, p.NumDeletes)
	buf = binary.AppendUvarint(buf, p.RawKeyBytes)
	buf = binary.AppendUvarint(buf, p.RawValBytes)
	buf = binary.AppendUvarint(buf, p.MinSeq)
	buf = binary.AppendUvarint(buf, p.MaxSeq)
	buf = binary.AppendUvarint(buf, uint64(len(p.Smallest)))
	buf = append(buf, p.Smallest...)
	buf = binary.AppendUvarint(buf, uint64(len(p.Largest)))
	buf = append(buf, p.Largest...)
	return buf
}

func decodeProperties(p []byte) (Properties, error) {
	var v [6]uint64
	for i := range v {
		x, n := binary.Uvarint(p)
		if n <= 0 {
			return Properties{}, ErrCorrupt
		}
		v[i], p = x, p[n:]
	}
	// The bounds alias the (verified, never rewritten) properties block.
	var bounds [2][]byte
	for i := range bounds {
		ln, n := binary.Uvarint(p)
		if n <= 0 || uint64(len(p)-n) < ln {
			return Properties{}, ErrCorrupt
		}
		end := n + int(ln)
		bounds[i], p = p[n:end:end], p[end:]
	}
	return Properties{
		NumEntries: v[0], NumDeletes: v[1], RawKeyBytes: v[2], RawValBytes: v[3], MinSeq: v[4], MaxSeq: v[5],
		Smallest: bounds[0], Largest: bounds[1],
	}, nil
}

// sealBlock appends a finished block body and its trailer (compression type
// + crc) to dst and returns the extended buffer: the block's on-disk bytes.
// With CompressionFlate the body is compressed first, falling back to raw
// storage when compression does not shrink it.
func sealBlock(dst, body []byte, codec Compression) []byte {
	typ := byte(CompressionNone)
	out := body
	if codec == CompressionFlate {
		var buf bytes.Buffer
		zw, err := flate.NewWriter(&buf, flate.BestSpeed)
		if err == nil {
			if _, err := zw.Write(body); err == nil && zw.Close() == nil && buf.Len() < len(body) {
				out = buf.Bytes()
				typ = byte(CompressionFlate)
			}
		}
	}
	start := len(dst)
	dst = append(append(dst, out...), typ)
	crc := crc32.Checksum(dst[start:], castagnoli)
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// VerifyBlock checks a raw on-disk block (body + trailer), decompresses it
// if needed, and returns the logical body.
func VerifyBlock(raw []byte) ([]byte, error) {
	if len(raw) < blockTrailerLen {
		return nil, fmt.Errorf("%w: short block", ErrCorrupt)
	}
	body := raw[:len(raw)-blockTrailerLen]
	want := binary.LittleEndian.Uint32(raw[len(raw)-4:])
	got := crc32.Checksum(raw[:len(raw)-4], castagnoli)
	if want != got {
		return nil, fmt.Errorf("%w: block crc mismatch", ErrCorrupt)
	}
	switch Compression(raw[len(raw)-5]) {
	case CompressionNone:
		return body, nil
	case CompressionFlate:
		zr := flate.NewReader(bytes.NewReader(body))
		defer zr.Close()
		out, err := io.ReadAll(zr)
		if err != nil {
			return nil, fmt.Errorf("%w: flate: %v", ErrCorrupt, err)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("%w: unknown compression %d", ErrCorrupt, raw[len(raw)-5])
	}
}

// MetaTail reads a table's metadata tail — the contiguous region holding
// the filter, index and properties blocks plus the footer — returning its
// starting offset and contents. Used to rebuild the local metadata sidecar
// for a cloud-resident table.
func MetaTail(f storage.Reader) (tailOff uint64, tail []byte, err error) {
	ftr, err := readFooter(f)
	if err != nil {
		return 0, nil, err
	}
	tailOff = ftr.tailOffset()
	tail = make([]byte, uint64(f.Size())-tailOff)
	if _, err := f.ReadAt(tail, int64(tailOff)); err != nil && err != io.EOF {
		return 0, nil, err
	}
	return tailOff, tail, nil
}

// ReadRawBlock fetches handle h (including trailer) from r and verifies it.
func ReadRawBlock(r storage.Reader, h Handle) ([]byte, error) {
	raw := make([]byte, h.Length+blockTrailerLen)
	if _, err := r.ReadAt(raw, int64(h.Offset)); err != nil {
		return nil, err
	}
	return VerifyBlock(raw)
}
