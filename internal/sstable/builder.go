package sstable

import (
	"rocksmash/internal/block"
	"rocksmash/internal/bloom"
	"rocksmash/internal/keys"
	"rocksmash/internal/storage"
)

// BuilderOptions tunes table construction.
type BuilderOptions struct {
	// BlockBytes is the uncompressed data-block size target.
	BlockBytes int
	// RestartInterval is the prefix-compression restart spacing.
	RestartInterval int
	// BloomBitsPerKey sizes the filter block; 0 disables the filter.
	BloomBitsPerKey int
	// Compression is the data-block codec. Metadata blocks (filter,
	// index, properties) are always stored raw: they are read far more
	// often than data blocks and pinned in memory anyway.
	Compression Compression
}

// DefaultBuilderOptions mirrors common RocksDB settings.
func DefaultBuilderOptions() BuilderOptions {
	return BuilderOptions{BlockBytes: 4 << 10, RestartInterval: 16, BloomBitsPerKey: 10}
}

// Builder writes a table to a storage object. Keys must be added in strictly
// increasing internal-key order. It allocates per table, not per block: the
// index entry and the sealed block are built in scratch it owns and reuses
// (the block builder copies what it is given, the writer what it writes).
type Builder struct {
	w    storage.Writer
	opts BuilderOptions

	data      *block.Builder
	index     *block.Builder
	offset    uint64
	hashes    []uint32 // bloom hashes of user keys
	pending   []byte   // last key of the flushed block, awaiting separator
	pendingH  Handle
	havePend  bool
	lastKey   []byte
	props     Properties
	numBlocks int
	metaOff   uint64 // file offset where the metadata tail begins
	err       error

	sep, handle, sealed []byte // scratch: index key, index value, on-disk block
}

// NewBuilder starts a table written to w.
func NewBuilder(w storage.Writer, opts BuilderOptions) *Builder {
	if opts.BlockBytes <= 0 {
		opts.BlockBytes = 4 << 10
	}
	if opts.RestartInterval <= 0 {
		opts.RestartInterval = 16
	}
	return &Builder{
		w:    w,
		opts: opts,
		data: block.NewBuilder(opts.RestartInterval),
		// Interval 1: no separator shares bytes with the one before, the
		// index format a reader accepts (walkIndex).
		index: block.NewBuilder(1),
	}
}

// Add appends one entry.
func (b *Builder) Add(ikey, value []byte) error {
	if b.err != nil {
		return b.err
	}
	if b.havePend {
		// Use a short separator between the last key of the previous block
		// and the first key of this one.
		b.sep = keys.AppendSeparator(b.sep[:0], b.pending, ikey)
		b.handle = b.pendingH.EncodeVarint(b.handle[:0])
		b.index.Add(b.sep, b.handle)
		b.havePend = false
	}
	b.data.Add(ikey, value)
	if b.opts.BloomBitsPerKey > 0 {
		b.hashes = append(b.hashes, bloom.Hash(keys.UserKey(ikey)))
	}
	seq, kind := keys.DecodeTrailer(ikey)
	if b.props.NumEntries == 0 {
		b.props.Smallest = append([]byte(nil), ikey...)
		b.props.MinSeq = seq
		b.props.MaxSeq = seq
	}
	if seq < b.props.MinSeq {
		b.props.MinSeq = seq
	}
	if seq > b.props.MaxSeq {
		b.props.MaxSeq = seq
	}
	b.props.NumEntries++
	if kind == keys.KindDelete {
		b.props.NumDeletes++
	}
	b.props.RawKeyBytes += uint64(len(ikey))
	b.props.RawValBytes += uint64(len(value))
	b.lastKey = append(b.lastKey[:0], ikey...)

	if b.data.EstimatedSize() >= b.opts.BlockBytes {
		b.flushDataBlock()
	}
	return b.err
}

func (b *Builder) flushDataBlock() {
	if b.data.Empty() || b.err != nil {
		return
	}
	h, err := b.writeBlock(b.data.Finish(), b.opts.Compression)
	if err != nil {
		b.err = err
		return
	}
	b.data.Reset()
	b.pending = append(b.pending[:0], b.lastKey...)
	b.pendingH = h
	b.havePend = true
	b.numBlocks++
}

func (b *Builder) writeBlock(body []byte, codec Compression) (Handle, error) {
	b.sealed = sealBlock(b.sealed[:0], body, codec)
	h := Handle{Offset: b.offset, Length: uint64(len(b.sealed) - blockTrailerLen)}
	if _, err := b.w.Write(b.sealed); err != nil {
		return Handle{}, err
	}
	b.offset += uint64(len(b.sealed))
	return h, nil
}

// EstimatedSize returns the bytes written so far plus the open block.
func (b *Builder) EstimatedSize() uint64 {
	return b.offset + uint64(b.data.EstimatedSize())
}

// NumEntries returns how many entries have been added.
func (b *Builder) NumEntries() uint64 { return b.props.NumEntries }

// LastKey returns the last internal key added. It aliases the builder's
// buffer, which the next Add overwrites.
func (b *Builder) LastKey() []byte { return b.lastKey }

// MetaOffset returns the file offset where the metadata tail (filter,
// index, properties, footer) begins. Valid after Finish.
func (b *Builder) MetaOffset() uint64 { return b.metaOff }

// Finish flushes remaining blocks, writes filter/index/properties/footer and
// syncs the object. The caller still owns closing the storage.Writer.
func (b *Builder) Finish() (Properties, error) {
	if b.err != nil {
		return Properties{}, b.err
	}
	b.flushDataBlock()
	if b.havePend {
		b.index.Add(keys.Successor(b.pending), b.pendingH.EncodeVarint(b.handle[:0]))
		b.havePend = false
	}
	b.props.Largest = append([]byte(nil), b.lastKey...)
	// Everything from here on is table metadata (filter, index,
	// properties, footer) — the contiguous tail that the store keeps on
	// local storage even when the data body lives in cloud.
	b.metaOff = b.offset

	var ftr footer
	if b.opts.BloomBitsPerKey > 0 {
		f := bloom.New(b.hashes, b.opts.BloomBitsPerKey)
		h, err := b.writeBlock(f, CompressionNone)
		if err != nil {
			return Properties{}, err
		}
		ftr.filter = h
	}
	h, err := b.writeBlock(b.index.Finish(), CompressionNone)
	if err != nil {
		return Properties{}, err
	}
	ftr.index = h
	h, err = b.writeBlock(b.props.encode(), CompressionNone)
	if err != nil {
		return Properties{}, err
	}
	ftr.props = h
	if _, err := b.w.Write(ftr.encode()); err != nil {
		return Properties{}, err
	}
	if err := b.w.Sync(); err != nil {
		return Properties{}, err
	}
	return b.props, nil
}
