package sstable

import (
	"fmt"

	"rocksmash/internal/storage"
)

// End returns the file offset one past the block's on-disk bytes,
// including the trailer — the exclusive upper bound of the range a reader
// must fetch for this block.
func (h Handle) End() uint64 { return h.Offset + h.Length + blockTrailerLen }

// PlanSpans groups data-block handles into spans of up to blocksPerSpan
// consecutive blocks. Data blocks are written back to back, so each span is
// one contiguous byte range that a single range GET can fetch; this is the
// planning step behind compaction prefetch and iterator readahead.
// blocksPerSpan <= 1 yields one span per block (no coalescing).
func PlanSpans(hs []Handle, blocksPerSpan int) [][]Handle {
	if blocksPerSpan < 1 {
		blocksPerSpan = 1
	}
	var spans [][]Handle
	for len(hs) > 0 {
		n := blocksPerSpan
		if n > len(hs) {
			n = len(hs)
		}
		// Only coalesce physically adjacent blocks; a gap (never produced
		// by the builder, but cheap to guard) ends the span early.
		end := 1
		for end < n && hs[end].Offset == hs[end-1].End() {
			end++
		}
		spans = append(spans, hs[:end])
		hs = hs[end:]
	}
	return spans
}

// SpanBytes is the length of the contiguous range covering hs, handles
// adjacent in file order: the buffer ReadRawSpanInto reads it into.
func SpanBytes(hs []Handle) int {
	if len(hs) == 0 {
		return 0
	}
	return int(hs[len(hs)-1].End() - hs[0].Offset)
}

// ReadRawSpan fetches the contiguous range covering hs with a single ReadAt
// — one GET on a cloud backend regardless of the block count — and returns
// each block's verified body in order. The handles must be adjacent in file
// order (as produced by PlanSpans).
func ReadRawSpan(r storage.Reader, hs []Handle) ([][]byte, error) {
	return ReadRawSpanInto(r, hs, make([]byte, SpanBytes(hs)))
}

// ReadRawSpanInto is ReadRawSpan into a buffer the caller owns: raw must be
// SpanBytes(hs) long, and the bodies alias it unless a block is compressed.
// A caller that reuses raw for the next span must be done with these bodies
// first.
func ReadRawSpanInto(r storage.Reader, hs []Handle, raw []byte) ([][]byte, error) {
	if len(hs) == 0 {
		return nil, nil
	}
	if len(raw) != SpanBytes(hs) {
		return nil, fmt.Errorf("sstable: span buffer of %d bytes for a %d-byte span", len(raw), SpanBytes(hs))
	}
	base := hs[0].Offset
	if _, err := r.ReadAt(raw, int64(base)); err != nil {
		return nil, err
	}
	bodies := make([][]byte, 0, len(hs))
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
