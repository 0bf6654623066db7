// Package storage abstracts the two storage tiers the store integrates:
// fast local storage (SSD/NVMe) and cloud object storage. Both expose the
// same Backend interface; the cloud implementation layers a configurable
// latency/bandwidth simulation and a request+capacity cost model on top, so
// that experiments reproduce the performance and cost *profile* of a real
// object store (S3/OSS) without network access.
package storage

import (
	"errors"
	"io"
)

// Tier identifies which storage class a backend represents.
type Tier uint8

const (
	// TierLocal is fast, byte-addressable local storage.
	TierLocal Tier = iota
	// TierCloud is high-latency, high-capacity object storage.
	TierCloud
)

// String implements fmt.Stringer.
func (t Tier) String() string {
	switch t {
	case TierLocal:
		return "local"
	case TierCloud:
		return "cloud"
	default:
		return "unknown"
	}
}

// ErrNotFound is returned when an object does not exist.
var ErrNotFound = errors.New("storage: object not found")

// ErrCloudUnavailable is returned by the Reliable wrapper when its circuit
// breaker is open: the cloud tier is considered down and requests fail fast
// instead of piling up in retry loops. Callers can test for it with
// errors.Is to distinguish an outage from data-level errors.
var ErrCloudUnavailable = errors.New("storage: cloud unavailable")

// ErrLocalUnavailable is the local tier's twin of ErrCloudUnavailable: the
// local device's circuit breaker is open (repeated ENOSPC or fsync
// failures) and local writes fail fast while the store runs degraded.
var ErrLocalUnavailable = errors.New("storage: local tier unavailable")

// ErrCorruption classifies data-integrity failures: a checksum mismatch, a
// bit-flipped block, a malformed footer. Unlike a transient request fault,
// re-reading the same replica cannot fix corruption, so the Reliable
// wrapper never retries an error wrapping this sentinel — the caller must
// repair from another source or surface a typed error.
var ErrCorruption = errors.New("storage: data corruption")

// Writer is a handle for creating an object. Cloud semantics: the object
// becomes visible atomically at Close; Sync is a no-op there. Local
// semantics: Sync flushes to stable media.
type Writer interface {
	io.Writer
	// Sync makes previously written bytes durable (local tier). On the
	// cloud tier durability is provided at Close and Sync is a no-op.
	Sync() error
	// Close completes the object. No writes may follow.
	Close() error
}

// Reader is a random-access handle to an object.
type Reader interface {
	io.ReaderAt
	io.Closer
	// Size returns the object length in bytes.
	Size() int64
}

// Backend is one storage tier.
type Backend interface {
	// Create makes a new object, truncating any existing one.
	Create(name string) (Writer, error)
	// Open returns a random-access reader; ErrNotFound if absent.
	Open(name string) (Reader, error)
	// ReadAll fetches a whole object. The returned buffer belongs to the
	// caller: the backend never reuses, mutates or retains it, so a later
	// ReadAll, or a write or delete of the same object, leaves it as it
	// was. WAL recovery relies on this to keep the runs it rebuilds
	// pointing into the segment images it read.
	ReadAll(name string) ([]byte, error)
	// Delete removes an object. Deleting a missing object is not an error.
	Delete(name string) error
	// List returns the names of objects with the given prefix, sorted.
	List(prefix string) ([]string, error)
	// Size returns an object's length; ErrNotFound if absent.
	Size(name string) (int64, error)
	// Rename atomically replaces newname with oldname's object.
	Rename(oldname, newname string) error
	// Tier reports which storage class this backend is.
	Tier() Tier
	// Stats returns the backend's operation counters.
	Stats() *Stats
}

// WriteObject writes data as a complete object.
func WriteObject(b Backend, name string, data []byte) error {
	w, err := b.Create(name)
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		w.Close()
		return err
	}
	if err := w.Sync(); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}
