package storage

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"rocksmash/internal/retry"
)

// RetryFunc observes each retry the Reliable wrapper performs: the
// operation kind ("put", "get", ...), the object name, the 1-based attempt
// that just failed, its error, and the chosen backoff.
type RetryFunc func(op, name string, attempt int, err error, delay time.Duration)

// Reliable decorates a (cloud) backend with the engine's fault-tolerance
// policy: every request is retried under a retry.Policy with exponential
// backoff and full jitter, and optionally gated behind a circuit breaker.
// While the breaker is open requests fail fast with ErrCloudUnavailable
// instead of stacking up in backoff sleeps; after the cooldown one probe is
// let through and its outcome decides whether the breaker closes.
//
// Data-absence results (ErrNotFound, io.EOF) are passed through untouched:
// they are answers from a healthy backend, not faults, so they neither
// consume retries nor count against the breaker.
type Reliable struct {
	b       Backend
	pol     retry.Policy
	br      *retry.Breaker
	onRetry RetryFunc
	cancel  <-chan struct{}
}

// NewReliable wraps b. br may be nil (retries only); onRetry may be nil;
// cancel, when non-nil, aborts in-flight backoff waits when closed (the DB
// passes its shutdown channel so Close never waits out an outage).
//
// The default Retryable classification excludes ErrCorruption: a checksum
// mismatch is a property of the stored bytes, not of the request, so
// re-reading the same replica can only return the same damage. Corruption
// must surface immediately for repair from another source instead of
// burning the retry budget (and masking the problem as latency).
func NewReliable(b Backend, pol retry.Policy, br *retry.Breaker, onRetry RetryFunc, cancel <-chan struct{}) *Reliable {
	pol = pol.Sanitize()
	if pol.Retryable == nil {
		pol.Retryable = func(err error) bool {
			return isFault(err) &&
				!errors.Is(err, ErrCloudUnavailable) &&
				!errors.Is(err, ErrCorruption) &&
				!errors.Is(err, retry.ErrAborted)
		}
	}
	return &Reliable{b: b, pol: pol, br: br, onRetry: onRetry, cancel: cancel}
}

// Unwrap returns the wrapped backend (BaseBackend compatibility).
func (r *Reliable) Unwrap() Backend { return r.b }

// Breaker returns the wrapper's circuit breaker (nil when not configured).
func (r *Reliable) Breaker() *retry.Breaker { return r.br }

// isFault distinguishes backend faults from data-absence answers.
func isFault(err error) bool {
	return err != nil && !errors.Is(err, ErrNotFound) && !errors.Is(err, io.EOF)
}

// do runs fn under the retry policy with the breaker gate applied per
// attempt.
func (r *Reliable) do(op, name string, fn func() error) error {
	attempt := func() error {
		var epoch uint64
		if r.br != nil {
			if epoch = r.br.Epoch(); !r.br.Allow() {
				return fmt.Errorf("%w: %s %s", ErrCloudUnavailable, op, name)
			}
		}
		err := fn()
		if r.br != nil {
			// Corruption is a data-level answer from a live backend: it must
			// not trip the availability breaker (the tier is up — one object
			// is damaged), and it is never retried against the same replica.
			if isFault(err) && !errors.Is(err, ErrCorruption) {
				r.br.Failure()
			} else {
				r.br.SuccessSince(epoch)
			}
		}
		return err
	}
	var onRetry func(int, error, time.Duration)
	if r.onRetry != nil {
		onRetry = func(n int, err error, delay time.Duration) {
			r.onRetry(op, name, n, err, delay)
		}
	}
	return retry.Do(r.pol, r.cancel, onRetry, attempt)
}

// WriteObject uploads data as one complete object, retrying whole-object:
// cloud PUTs are atomic at Close, so a failed attempt leaves nothing behind
// and the next attempt starts clean. It returns how many attempts ran.
func (r *Reliable) WriteObject(name string, data []byte) (attempts int, err error) {
	err = r.do("put", name, func() error {
		attempts++
		return WriteObject(r.b, name, data)
	})
	return attempts, err
}

// reliableWriter buffers the object and performs the actual upload at
// Close via WriteObject, giving streaming callers the same whole-object
// retry semantics.
type reliableWriter struct {
	r    *Reliable
	name string
	buf  []byte
}

func (w *reliableWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}

func (w *reliableWriter) Sync() error { return nil }

func (w *reliableWriter) Close() error {
	_, err := w.r.WriteObject(w.name, w.buf)
	return err
}

// Create implements Backend. The write is deferred: bytes buffer in memory
// and upload (with retries) at Close.
func (r *Reliable) Create(name string) (Writer, error) {
	return &reliableWriter{r: r, name: name}, nil
}

// reliableReader opens the inner object lazily, on first use, inside the
// retry loop. That keeps Open itself fault-free — important during an
// outage, where table metadata is served from local sidecars and a table
// handle must be constructible without touching the cloud.
type reliableReader struct {
	r    *Reliable
	name string

	mu    sync.Mutex
	inner Reader
}

func (rr *reliableReader) get() (Reader, error) {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	if rr.inner != nil {
		return rr.inner, nil
	}
	in, err := rr.r.b.Open(rr.name)
	if err != nil {
		return nil, err
	}
	rr.inner = in
	return in, nil
}

func (rr *reliableReader) ReadAt(p []byte, off int64) (int, error) {
	var n int
	err := rr.r.do("get", rr.name, func() error {
		in, err := rr.get()
		if err != nil {
			return err
		}
		var rerr error
		n, rerr = in.ReadAt(p, off)
		return rerr
	})
	return n, err
}

func (rr *reliableReader) Size() int64 {
	var size int64
	err := rr.r.do("head", rr.name, func() error {
		in, err := rr.get()
		if err != nil {
			return err
		}
		size = in.Size()
		return nil
	})
	if err != nil {
		return 0
	}
	return size
}

func (rr *reliableReader) Close() error {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	if rr.inner == nil {
		return nil
	}
	err := rr.inner.Close()
	rr.inner = nil
	return err
}

// Open implements Backend. It never touches the inner backend: the object
// is opened lazily on the first ReadAt/Size, under the retry policy. A
// missing object therefore surfaces at first read, not at Open.
func (r *Reliable) Open(name string) (Reader, error) {
	return &reliableReader{r: r, name: name}, nil
}

// ReadAll implements Backend.
func (r *Reliable) ReadAll(name string) ([]byte, error) {
	var data []byte
	err := r.do("get", name, func() error {
		var ierr error
		data, ierr = r.b.ReadAll(name)
		return ierr
	})
	return data, err
}

// Delete implements Backend.
func (r *Reliable) Delete(name string) error {
	return r.do("delete", name, func() error { return r.b.Delete(name) })
}

// List implements Backend.
func (r *Reliable) List(prefix string) ([]string, error) {
	var names []string
	err := r.do("list", prefix, func() error {
		var ierr error
		names, ierr = r.b.List(prefix)
		return ierr
	})
	return names, err
}

// Size implements Backend.
func (r *Reliable) Size(name string) (int64, error) {
	var size int64
	err := r.do("head", name, func() error {
		var ierr error
		size, ierr = r.b.Size(name)
		return ierr
	})
	return size, err
}

// Rename implements Backend.
func (r *Reliable) Rename(oldname, newname string) error {
	return r.do("rename", newname, func() error { return r.b.Rename(oldname, newname) })
}

// Tier implements Backend.
func (r *Reliable) Tier() Tier { return r.b.Tier() }

// Stats implements Backend.
func (r *Reliable) Stats() *Stats { return r.b.Stats() }
