package manifest

import (
	"encoding/binary"
	"errors"
	"fmt"

	"rocksmash/internal/sstable"
	"rocksmash/internal/storage"
)

// VersionEdit is one atomic mutation of the tree's file metadata, persisted
// as a record in the MANIFEST log.
type VersionEdit struct {
	// HasNextFileNum etc. gate optional fields.
	HasNextFileNum bool
	NextFileNum    uint64
	HasLastSeq     bool
	LastSeq        uint64
	HasFlushedSeq  bool
	FlushedSeq     uint64 // all sequence numbers <= this are durable in tables

	Added   []AddedFile
	Deleted []DeletedFile

	// Views are the sorted views a compaction spliced for the levels it
	// changes, in memory only: Encode leaves them out (see Version.Apply).
	Views [NumLevels]*sstable.View
}

// AddedFile places a new table at a level.
type AddedFile struct {
	Level int
	Meta  FileMetadata
}

// DeletedFile removes a table from a level.
type DeletedFile struct {
	Level int
	Num   uint64
}

// Edit record field tags.
const (
	tagNextFileNum = 1
	tagLastSeq     = 2
	tagFlushedSeq  = 3
	tagAddedFile   = 4
	tagDeletedFile = 5
	// tagAddedPending is an AddedFile whose table is awaiting upload to the
	// cloud tier (degraded-mode landing). Same field layout as tagAddedFile;
	// the tag itself carries the pending bit so old manifests stay readable.
	tagAddedPending = 6
)

// ErrCorrupt reports a malformed manifest record.
var ErrCorrupt = errors.New("manifest: corrupt edit")

// Encode serializes the edit.
func (e *VersionEdit) Encode() []byte {
	var b []byte
	if e.HasNextFileNum {
		b = binary.AppendUvarint(b, tagNextFileNum)
		b = binary.AppendUvarint(b, e.NextFileNum)
	}
	if e.HasLastSeq {
		b = binary.AppendUvarint(b, tagLastSeq)
		b = binary.AppendUvarint(b, e.LastSeq)
	}
	if e.HasFlushedSeq {
		b = binary.AppendUvarint(b, tagFlushedSeq)
		b = binary.AppendUvarint(b, e.FlushedSeq)
	}
	for _, a := range e.Added {
		if a.Meta.PendingCloud {
			b = binary.AppendUvarint(b, tagAddedPending)
		} else {
			b = binary.AppendUvarint(b, tagAddedFile)
		}
		b = binary.AppendUvarint(b, uint64(a.Level))
		b = binary.AppendUvarint(b, a.Meta.Num)
		b = binary.AppendUvarint(b, a.Meta.Size)
		b = binary.AppendUvarint(b, a.Meta.MinSeq)
		b = binary.AppendUvarint(b, a.Meta.MaxSeq)
		b = binary.AppendUvarint(b, uint64(a.Meta.Tier))
		b = appendBytes(b, a.Meta.Smallest)
		b = appendBytes(b, a.Meta.Largest)
	}
	for _, d := range e.Deleted {
		b = binary.AppendUvarint(b, tagDeletedFile)
		b = binary.AppendUvarint(b, uint64(d.Level))
		b = binary.AppendUvarint(b, d.Num)
	}
	return b
}

func appendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

type decoder struct {
	p []byte
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.p)
	if n <= 0 {
		return 0, ErrCorrupt
	}
	d.p = d.p[n:]
	return v, nil
}

func (d *decoder) bytes() ([]byte, error) {
	ln, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if uint64(len(d.p)) < ln {
		return nil, ErrCorrupt
	}
	out := append([]byte(nil), d.p[:ln]...)
	d.p = d.p[ln:]
	return out, nil
}

// DecodeEdit parses an encoded edit.
func DecodeEdit(p []byte) (*VersionEdit, error) {
	d := decoder{p: p}
	e := &VersionEdit{}
	for len(d.p) > 0 {
		tag, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		switch tag {
		case tagNextFileNum:
			if e.NextFileNum, err = d.uvarint(); err != nil {
				return nil, err
			}
			e.HasNextFileNum = true
		case tagLastSeq:
			if e.LastSeq, err = d.uvarint(); err != nil {
				return nil, err
			}
			e.HasLastSeq = true
		case tagFlushedSeq:
			if e.FlushedSeq, err = d.uvarint(); err != nil {
				return nil, err
			}
			e.HasFlushedSeq = true
		case tagAddedFile, tagAddedPending:
			var a AddedFile
			lvl, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			a.Level = int(lvl)
			if a.Level >= NumLevels {
				return nil, fmt.Errorf("%w: level %d", ErrCorrupt, a.Level)
			}
			fields := []*uint64{&a.Meta.Num, &a.Meta.Size, &a.Meta.MinSeq, &a.Meta.MaxSeq}
			for _, f := range fields {
				if *f, err = d.uvarint(); err != nil {
					return nil, err
				}
			}
			tier, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			a.Meta.Tier = storage.Tier(tier)
			if a.Meta.Smallest, err = d.bytes(); err != nil {
				return nil, err
			}
			if a.Meta.Largest, err = d.bytes(); err != nil {
				return nil, err
			}
			a.Meta.PendingCloud = tag == tagAddedPending
			e.Added = append(e.Added, a)
		case tagDeletedFile:
			var del DeletedFile
			lvl, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			del.Level = int(lvl)
			if del.Num, err = d.uvarint(); err != nil {
				return nil, err
			}
			e.Deleted = append(e.Deleted, del)
		default:
			return nil, fmt.Errorf("%w: unknown tag %d", ErrCorrupt, tag)
		}
	}
	return e, nil
}
