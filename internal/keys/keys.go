// Package keys defines the internal key encoding used throughout the LSM
// tree. An internal key is the user key followed by an 8-byte trailer that
// packs a 56-bit sequence number and an 8-bit value kind:
//
//	| user key ... | (seq << 8 | kind) little-endian, 8 bytes |
//
// Internal keys order by user key ascending, then sequence number
// descending, then kind descending, so that the newest entry for a user key
// is encountered first during a forward scan.
package keys

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
)

// Kind distinguishes the type of entry an internal key refers to.
type Kind uint8

const (
	// KindDelete marks a point tombstone.
	KindDelete Kind = 0
	// KindSet marks a live key/value pair.
	KindSet Kind = 1
	// KindMax is the largest kind value; used when constructing seek keys
	// so that they sort before all entries with the same (key, seq).
	KindMax Kind = 1
)

// TrailerLen is the encoded size of the (sequence, kind) trailer.
const TrailerLen = 8

// MaxSequence is the largest representable sequence number (56 bits).
const MaxSequence = uint64(1)<<56 - 1

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindDelete:
		return "DEL"
	case KindSet:
		return "SET"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// PackTrailer combines a sequence number and kind into the 64-bit trailer.
func PackTrailer(seq uint64, kind Kind) uint64 {
	return seq<<8 | uint64(kind)
}

// UnpackTrailer splits a trailer into sequence number and kind.
func UnpackTrailer(t uint64) (seq uint64, kind Kind) {
	return t >> 8, Kind(t & 0xff)
}

// MakeInternalKey appends the encoded internal key for (ukey, seq, kind) to
// dst and returns the extended buffer, growing dst at most once.
func MakeInternalKey(dst, ukey []byte, seq uint64, kind Kind) []byte {
	dst = slices.Grow(dst, len(ukey)+TrailerLen)
	dst = append(dst, ukey...)
	return binary.LittleEndian.AppendUint64(dst, PackTrailer(seq, kind))
}

// SeekBufLen sizes the stack buffer a point read builds its seek key in
// (`var buf [keys.SeekBufLen]byte; seek := keys.MakeSeekKey(buf[:0], ...)`)
// and the block layer assembles the keys it compares against it in: user keys
// up to SeekBufLen-TrailerLen bytes cost no allocation, longer ones move to
// the heap.
const SeekBufLen = 128

// MakeSeekKey builds an internal key that positions a seek at the first
// entry for ukey visible at snapshot seq.
func MakeSeekKey(dst, ukey []byte, seq uint64) []byte {
	return MakeInternalKey(dst, ukey, seq, KindMax)
}

// UserKey returns the user-key portion of an internal key.
// It panics if ikey is shorter than the trailer.
func UserKey(ikey []byte) []byte {
	return ikey[:len(ikey)-TrailerLen]
}

// DecodeTrailer extracts the sequence number and kind from an internal key.
func DecodeTrailer(ikey []byte) (seq uint64, kind Kind) {
	t := binary.LittleEndian.Uint64(ikey[len(ikey)-TrailerLen:])
	return UnpackTrailer(t)
}

// Valid reports whether ikey is long enough to hold a trailer.
func Valid(ikey []byte) bool {
	return len(ikey) >= TrailerLen
}

// Compare orders two internal keys: user key ascending, then sequence
// descending, then kind descending. It implements the total order required
// by the memtable and SSTables.
func Compare(a, b []byte) int {
	if c := bytes.Compare(UserKey(a), UserKey(b)); c != 0 {
		return c
	}
	ta := binary.LittleEndian.Uint64(a[len(a)-TrailerLen:])
	tb := binary.LittleEndian.Uint64(b[len(b)-TrailerLen:])
	switch {
	case ta > tb:
		return -1
	case ta < tb:
		return 1
	default:
		return 0
	}
}

// Separator returns a key k such that a <= k < b in internal-key order,
// chosen to be short. It is used for index-block boundary keys. a and b are
// internal keys; the result is a valid internal key.
func Separator(a, b []byte) []byte {
	ua, ub := UserKey(a), UserKey(b)
	sep := shortestSeparator(ua, ub)
	if len(sep) < len(ua) && bytes.Compare(ua, sep) < 0 {
		// A strictly shorter user key was found. Tag it with the maximal
		// trailer so it sorts before every real entry with that user key.
		return MakeInternalKey(nil, sep, MaxSequence, KindMax)
	}
	return append([]byte(nil), a...)
}

// Successor returns a short key >= a (internal-key order), used for the last
// index entry in a table.
func Successor(a []byte) []byte {
	ua := UserKey(a)
	for i := 0; i < len(ua); i++ {
		if ua[i] != 0xff {
			s := append([]byte(nil), ua[:i+1]...)
			s[i]++
			return MakeInternalKey(nil, s, MaxSequence, KindMax)
		}
	}
	return append([]byte(nil), a...)
}

// shortestSeparator returns the shortest byte string s with a <= s < b,
// falling back to a when no shorter string exists.
func shortestSeparator(a, b []byte) []byte {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	if i >= n {
		// One is a prefix of the other; cannot shorten.
		return a
	}
	if a[i] < 0xff && a[i]+1 < b[i] {
		s := append([]byte(nil), a[:i+1]...)
		s[i]++
		return s
	}
	return a
}
