// Package batch implements the atomic write-batch encoding shared by the
// write path and the write-ahead log. The wire format follows RocksDB:
//
//	| seq uint64 LE | count uint32 LE | record* |
//	record: kind(1) | varint keyLen | key | [varint valLen | value]   (value only for SET)
//
// A batch is assigned its base sequence number at commit time; record i in
// the batch carries sequence seq+i.
package batch

import (
	"encoding/binary"
	"errors"
	"fmt"

	"rocksmash/internal/keys"
)

const headerLen = 12

// ErrCorrupt reports a malformed batch payload.
var ErrCorrupt = errors.New("batch: corrupt payload")

// Batch accumulates writes to be applied atomically.
type Batch struct {
	data []byte
}

// New returns an empty batch.
func New() *Batch {
	return &Batch{data: make([]byte, headerLen, headerLen+64)}
}

// FromPayload wraps an encoded payload (e.g. read back from the WAL).
func FromPayload(p []byte) (*Batch, error) {
	if len(p) < headerLen {
		return nil, ErrCorrupt
	}
	return &Batch{data: p}, nil
}

// Set queues a key/value write.
func (b *Batch) Set(key, value []byte) {
	b.data = append(b.data, byte(keys.KindSet))
	b.data = binary.AppendUvarint(b.data, uint64(len(key)))
	b.data = append(b.data, key...)
	b.data = binary.AppendUvarint(b.data, uint64(len(value)))
	b.data = append(b.data, value...)
	b.setCount(b.Count() + 1)
}

// Delete queues a point tombstone.
func (b *Batch) Delete(key []byte) {
	b.data = append(b.data, byte(keys.KindDelete))
	b.data = binary.AppendUvarint(b.data, uint64(len(key)))
	b.data = append(b.data, key...)
	b.setCount(b.Count() + 1)
}

// Count returns the number of queued operations.
func (b *Batch) Count() uint32 { return binary.LittleEndian.Uint32(b.data[8:12]) }

func (b *Batch) setCount(n uint32) { binary.LittleEndian.PutUint32(b.data[8:12], n) }

// Seq returns the base sequence number stamped on the batch.
func (b *Batch) Seq() uint64 { return binary.LittleEndian.Uint64(b.data[:8]) }

// SetSeq stamps the base sequence number; called by the commit path.
func (b *Batch) SetSeq(seq uint64) { binary.LittleEndian.PutUint64(b.data[:8], seq) }

// Payload returns the encoded bytes, suitable for a WAL record.
func (b *Batch) Payload() []byte { return b.data }

// Size returns the encoded size in bytes.
func (b *Batch) Size() int { return len(b.data) }

// Empty reports whether no operations are queued.
func (b *Batch) Empty() bool { return b.Count() == 0 }

// Reset clears the batch for reuse.
func (b *Batch) Reset() {
	b.data = b.data[:headerLen]
	for i := range b.data {
		b.data[i] = 0
	}
}

// Append concatenates other's operations onto b (used for group commit).
func (b *Batch) Append(other *Batch) {
	n := b.Count() + other.Count()
	b.data = append(b.data, other.data[headerLen:]...)
	b.setCount(n)
}

// Op is one decoded operation.
type Op struct {
	Kind  keys.Kind
	Seq   uint64
	Key   []byte
	Value []byte
}

// Iterate calls fn for every operation with its assigned sequence number.
// It stops early and returns fn's error if non-nil, or ErrCorrupt on a
// malformed payload.
func (b *Batch) Iterate(fn func(op Op) error) error {
	p := b.data
	return IterateAt(p, func(o OpAt) error {
		op := Op{Kind: o.Kind, Seq: o.Seq, Key: p[o.KeyOff : o.KeyOff+o.KeyLen]}
		if o.Kind == keys.KindSet {
			op.Value = p[o.ValOff : o.ValOff+o.ValLen]
		}
		return fn(op)
	})
}

// OpAt is one decoded operation located by its key's and value's offsets in
// the payload, so that a caller holding the payload inside a larger image
// (WAL recovery, which keeps the segment image) can address both there. A
// delete has no value: ValOff and ValLen are 0.
type OpAt struct {
	Kind           keys.Kind
	Seq            uint64
	KeyOff, KeyLen int
	ValOff, ValLen int
}

// IterateAt decodes an encoded payload, calling fn for every operation with
// its assigned sequence number and offsets. It stops early and returns fn's
// error if non-nil, or ErrCorrupt on a malformed payload. Every offset it
// reports lies within payload.
func IterateAt(payload []byte, fn func(op OpAt) error) error {
	if len(payload) < headerLen {
		return ErrCorrupt
	}
	seq := binary.LittleEndian.Uint64(payload[:8])
	want := binary.LittleEndian.Uint32(payload[8:12])
	off := headerLen
	var n uint32
	for off < len(payload) {
		op := OpAt{Kind: keys.Kind(payload[off]), Seq: seq + uint64(n)}
		off++
		klen, sz := binary.Uvarint(payload[off:])
		if sz <= 0 || uint64(len(payload)-off-sz) < klen {
			return ErrCorrupt
		}
		op.KeyOff, op.KeyLen = off+sz, int(klen)
		off = op.KeyOff + op.KeyLen
		switch op.Kind {
		case keys.KindSet:
			vlen, sz := binary.Uvarint(payload[off:])
			if sz <= 0 || uint64(len(payload)-off-sz) < vlen {
				return ErrCorrupt
			}
			op.ValOff, op.ValLen = off+sz, int(vlen)
			off = op.ValOff + op.ValLen
		case keys.KindDelete:
		default:
			return fmt.Errorf("%w: unknown kind %d", ErrCorrupt, op.Kind)
		}
		if err := fn(op); err != nil {
			return err
		}
		n++
	}
	if n != want {
		return fmt.Errorf("%w: count %d != header %d", ErrCorrupt, n, want)
	}
	return nil
}

// MaxSeq returns the sequence of the batch's final operation. Only
// meaningful after SetSeq on a non-empty batch.
func (b *Batch) MaxSeq() uint64 {
	if b.Count() == 0 {
		return b.Seq()
	}
	return b.Seq() + uint64(b.Count()) - 1
}

// SeqRange returns the inclusive sequence span the batch covers. Only
// meaningful after SetSeq; the commit pipeline uses it to tag the batch's
// WAL entry.
func (b *Batch) SeqRange() (minSeq, maxSeq uint64) {
	return b.Seq(), b.MaxSeq()
}
