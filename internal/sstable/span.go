package sstable

import (
	"fmt"

	"rocksmash/internal/storage"
)

// End returns the file offset one past the block's on-disk bytes,
// including the trailer — the exclusive upper bound of the range a reader
// must fetch for this block.
func (h Handle) End() uint64 { return h.Offset + h.Length + blockTrailerLen }

// SpanBytes is the length of the contiguous range covering hs, handles
// adjacent in file order: the buffer ReadRawSpanInto reads it into.
func SpanBytes(hs []Handle) int {
	if len(hs) == 0 {
		return 0
	}
	return int(hs[len(hs)-1].End() - hs[0].Offset)
}

// ReadRawSpanInto fetches the contiguous range covering hs, handles adjacent
// in file order, with a single ReadAt — one GET on a cloud backend regardless
// of the block count — into a buffer the caller owns, and appends each
// block's verified body, in order, to bodies[:0]. raw must be SpanBytes(hs)
// long, and the bodies alias it unless a block is compressed: a caller that
// reuses raw for the next span must be done with these bodies first.
func ReadRawSpanInto(r storage.Reader, hs []Handle, raw []byte, bodies [][]byte) ([][]byte, error) {
	if len(hs) == 0 {
		return bodies[:0], nil
	}
	if len(raw) != SpanBytes(hs) {
		return nil, fmt.Errorf("sstable: span buffer of %d bytes for a %d-byte span", len(raw), SpanBytes(hs))
	}
	base := hs[0].Offset
	if _, err := r.ReadAt(raw, int64(base)); err != nil {
		return nil, err
	}
	bodies = bodies[:0]
	for _, h := range hs {
		if h.Offset < base || h.End()-base > uint64(len(raw)) {
			return nil, fmt.Errorf("%w: non-contiguous span handle", ErrCorrupt)
		}
		body, err := VerifyBlock(raw[h.Offset-base : h.End()-base])
		if err != nil {
			return nil, err
		}
		bodies = append(bodies, body)
	}
	return bodies, nil
}
