// Package wal implements the write-ahead log. The on-disk record format is
// the LevelDB/RocksDB block format: the file is a sequence of 32 KiB blocks,
// each holding physical records
//
//	| crc32c uint32 | length uint16 | type uint8 | payload |
//
// where type marks whether the payload is a FULL logical record or the
// FIRST/MIDDLE/LAST fragment of one spanning blocks. A logical record
// carries one encoded write batch.
//
// On top of the record format the package provides the paper's extended WAL
// (eWAL): the log is split into fixed-size segments, each tagged in a side
// index with the sequence-number range it covers, enabling recovery to skip
// segments wholly persisted by earlier flushes and to replay the remaining
// segments in parallel.
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

const (
	// BlockSize is the physical block size of the log format.
	BlockSize = 32 * 1024
	headerLen = 7
)

// Physical record types.
const (
	typeFull   = 1
	typeFirst  = 2
	typeMiddle = 3
	typeLast   = 4
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a checksum or structural failure in the middle of a
// log (as opposed to a torn tail, which is reported as io.ErrUnexpectedEOF
// and tolerated by recovery).
var ErrCorrupt = errors.New("wal: corrupt record")

// maxKeptBuf bounds the encode buffer a RecordWriter keeps between
// flushes: one that grew past it (a huge batch) is dropped after its flush
// rather than pinned for the segment's lifetime.
const maxKeptBuf = 1 << 20

// blockPad is the zero padding of a block tail too short for a header.
var blockPad [headerLen - 1]byte

// RecordWriter appends logical records in the block format. Records are
// encoded into a buffer the writer owns and reach the underlying writer in
// one Write per flush: the eWAL encodes a whole commit group and then
// flushes once.
type RecordWriter struct {
	w      io.Writer
	buf    []byte // encoded records not yet written
	off    int    // bytes used in the current block
	outErr error
}

// NewRecordWriter returns a writer emitting to w.
func NewRecordWriter(w io.Writer) *RecordWriter {
	return &RecordWriter{w: w}
}

// Append writes one logical record with a single Write.
func (rw *RecordWriter) Append(payload []byte) error {
	rw.encode(payload)
	return rw.flush()
}

// encode appends the physical records of one logical record, and the block
// padding in front of them, to the buffer. It returns the bytes it added.
func (rw *RecordWriter) encode(payload []byte) int {
	before := len(rw.buf)
	first := true
	for {
		avail := BlockSize - rw.off
		if avail < headerLen {
			rw.buf = append(rw.buf, blockPad[:avail]...)
			rw.off = 0
			avail = BlockSize
		}
		n := min(len(payload), avail-headerLen)
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
		// The type byte and the payload are contiguous in the encoded
		// record, so the checksum covers them in place.
		start := len(rw.buf)
		rw.buf = append(rw.buf, 0, 0, 0, 0, byte(n), byte(n>>8), typ)
		rw.buf = append(rw.buf, payload[:n]...)
		binary.LittleEndian.PutUint32(rw.buf[start:], crc32.Checksum(rw.buf[start+6:], castagnoli))
		rw.off += headerLen + n
		payload = payload[n:]
		first = false
		if last {
			return len(rw.buf) - before
		}
	}
}

// flush hands everything encoded since the last flush to the underlying
// writer in one Write. A failed Write is sticky: the writer stays failed.
func (rw *RecordWriter) flush() error {
	if rw.outErr != nil {
		rw.buf = rw.buf[:0]
		return rw.outErr
	}
	if len(rw.buf) == 0 {
		return nil
	}
	_, err := rw.w.Write(rw.buf)
	if cap(rw.buf) > maxKeptBuf {
		rw.buf = nil
	} else {
		rw.buf = rw.buf[:0]
	}
	rw.outErr = err
	return err
}

// blockOffset returns the writer's offset within the current block; used
// only in tests.
func (rw *RecordWriter) blockOffset() int { return rw.off }

// RecordReader iterates logical records from an in-memory log image.
type RecordReader struct {
	data   []byte
	off    int
	joined []byte // the last reassembled record, reused by the next one
}

// NewRecordReader reads records from data (a whole log segment).
func NewRecordReader(data []byte) *RecordReader {
	return &RecordReader{data: data}
}

// Reassembled is the offset next reports for a record joined from the
// fragments of several blocks: its payload is not contiguous in the image.
const Reassembled = -1

// Next returns the next logical record. It returns io.EOF at a clean end,
// io.ErrUnexpectedEOF for a torn tail (crash mid-write), and ErrCorrupt for
// a checksum failure before the tail. A record in one block aliases the
// image; a reassembled one is a fresh copy.
func (rr *RecordReader) Next() ([]byte, error) {
	payload, off, err := rr.next()
	if off == Reassembled {
		payload = bytes.Clone(payload)
	}
	return payload, err
}

// next is Next, also returning the payload's offset in the image, or
// Reassembled for a record spanning blocks, whose payload lives in a buffer
// the following call reuses.
func (rr *RecordReader) next() (payload []byte, off int, err error) {
	rr.joined = rr.joined[:0]
	expectContinuation := false
	for {
		blockOff := rr.off % BlockSize
		if BlockSize-blockOff < headerLen {
			rr.off += BlockSize - blockOff // skip pad
			continue
		}
		if rr.off >= len(rr.data) {
			if expectContinuation {
				return nil, 0, io.ErrUnexpectedEOF
			}
			return nil, 0, io.EOF
		}
		if rr.off+headerLen > len(rr.data) {
			return nil, 0, io.ErrUnexpectedEOF
		}
		hdr := rr.data[rr.off : rr.off+headerLen]
		crc := binary.LittleEndian.Uint32(hdr[0:4])
		n := int(binary.LittleEndian.Uint16(hdr[4:6]))
		typ := hdr[6]
		if typ == 0 && crc == 0 && n == 0 {
			// Zero-filled region: preallocated/padded tail.
			if expectContinuation {
				return nil, 0, io.ErrUnexpectedEOF
			}
			return nil, 0, io.EOF
		}
		if rr.off+headerLen+n > len(rr.data) {
			return nil, 0, io.ErrUnexpectedEOF
		}
		start := rr.off + headerLen
		frag := rr.data[start : start+n]
		if crc32.Checksum(rr.data[rr.off+6:start+n], castagnoli) != crc {
			// A bad checksum in the final partial record is a torn tail;
			// anywhere else it is corruption.
			if start+n >= len(rr.data) {
				return nil, 0, io.ErrUnexpectedEOF
			}
			return nil, 0, fmt.Errorf("%w: crc mismatch at offset %d", ErrCorrupt, rr.off)
		}
		rr.off = start + n
		switch typ {
		case typeFull:
			if expectContinuation {
				return nil, 0, fmt.Errorf("%w: FULL inside fragmented record", ErrCorrupt)
			}
			return frag, start, nil
		case typeFirst:
			if expectContinuation {
				return nil, 0, fmt.Errorf("%w: FIRST inside fragmented record", ErrCorrupt)
			}
			rr.joined = append(rr.joined, frag...)
			expectContinuation = true
		case typeMiddle:
			if !expectContinuation {
				return nil, 0, fmt.Errorf("%w: orphan MIDDLE", ErrCorrupt)
			}
			rr.joined = append(rr.joined, frag...)
		case typeLast:
			if !expectContinuation {
				return nil, 0, fmt.Errorf("%w: orphan LAST", ErrCorrupt)
			}
			rr.joined = append(rr.joined, frag...)
			return rr.joined, Reassembled, nil
		default:
			return nil, 0, fmt.Errorf("%w: unknown type %d", ErrCorrupt, typ)
		}
	}
}
