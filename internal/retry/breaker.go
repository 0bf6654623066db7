package retry

import (
	"sync"
	"sync/atomic"
	"time"
)

// State is a circuit breaker's position.
type State int32

const (
	// StateClosed passes requests through, counting consecutive failures.
	StateClosed State = iota
	// StateOpen fails requests fast without touching the backend.
	StateOpen
	// StateHalfOpen lets a single probe through after the cooldown; its
	// outcome decides between closing and re-opening.
	StateHalfOpen
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateOpen:
		return "open"
	case StateHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// BreakerConfig tunes a Breaker.
type BreakerConfig struct {
	// FailureThreshold is the consecutive-failure count that trips the
	// breaker open. Values below 1 default to 3.
	FailureThreshold int
	// Cooldown is how long the breaker stays open before allowing a probe.
	// Zero defaults to 2s.
	Cooldown time.Duration
	// OnStateChange, when non-nil, is invoked (outside the breaker's lock)
	// on every transition.
	OnStateChange func(from, to State)
}

// Sanitize fills zero fields with defaults: the configuration a Breaker
// built from c runs with.
func (c BreakerConfig) Sanitize() BreakerConfig {
	if c.FailureThreshold < 1 {
		c.FailureThreshold = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 2 * time.Second
	}
	return c
}

// Breaker is a consecutive-failure circuit breaker. It is safe for
// concurrent use. Callers gate each request on Allow, then report the
// outcome with Success or Failure — or, when requests overlap, read Epoch
// before the request and report its success with SuccessSince.
type Breaker struct {
	cfg BreakerConfig

	// failures counts every Failure report: a request's Epoch.
	failures atomic.Uint64

	mu       sync.Mutex
	state    State
	consec   int       // consecutive failures while closed
	runFrom  uint64    // the Epoch right after the first of the consec failures
	openedAt time.Time // when the breaker last tripped
	probing  bool      // a half-open probe is in flight

	trips     int64
	halfOpens int64

	// degraded accumulates time spent outside StateClosed; since marks when
	// the current non-closed span began.
	degraded time.Duration
	since    time.Time
}

// NewBreaker returns a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.Sanitize()}
}

// transitionLocked moves to next and returns the callback to run after the
// lock is released (nil when no observer is configured).
func (b *Breaker) transitionLocked(next State) func() {
	from := b.state
	if from == next {
		return nil
	}
	b.state = next
	switch next {
	case StateOpen:
		b.openedAt = time.Now()
		b.trips++
		if from == StateClosed {
			b.since = time.Now()
		}
	case StateHalfOpen:
		b.halfOpens++
	case StateClosed:
		b.consec = 0
		if !b.since.IsZero() {
			b.degraded += time.Since(b.since)
			b.since = time.Time{}
		}
	}
	if cb := b.cfg.OnStateChange; cb != nil {
		return func() { cb(from, next) }
	}
	return nil
}

// Allow reports whether a request may proceed. While open it fails fast
// until the cooldown elapses, then admits exactly one half-open probe.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	var cb func()
	allowed := false
	switch b.state {
	case StateClosed:
		allowed = true
	case StateOpen:
		if time.Since(b.openedAt) >= b.cfg.Cooldown {
			cb = b.transitionLocked(StateHalfOpen)
			b.probing = true
			allowed = true
		}
	case StateHalfOpen:
		if !b.probing {
			b.probing = true
			allowed = true
		}
	}
	b.mu.Unlock()
	if cb != nil {
		cb()
	}
	return allowed
}

// Epoch returns how many failures have been reported so far. A request
// reads it before it starts and passes it to SuccessSince.
func (b *Breaker) Epoch() uint64 { return b.failures.Load() }

// Success reports a request that reached the backend and got a response.
// It closes the breaker from any state.
func (b *Breaker) Success() {
	b.mu.Lock()
	b.succeedLocked()
}

// SuccessSince reports the success of a request that read epoch from Epoch
// before it started. A request already in flight when the current run of
// failures began says the backend was up before the run, not that it is up
// now — a GET issued just before an outage that lands between a reader's
// retries — so its success is ignored and the run keeps counting toward
// the trip. Any later request's success counts as Success does.
func (b *Breaker) SuccessSince(epoch uint64) {
	b.mu.Lock()
	if b.consec > 0 && epoch < b.runFrom {
		b.mu.Unlock()
		return
	}
	b.succeedLocked()
}

// succeedLocked closes the breaker and releases b.mu.
func (b *Breaker) succeedLocked() {
	b.consec = 0
	b.probing = false
	cb := b.transitionLocked(StateClosed)
	b.mu.Unlock()
	if cb != nil {
		cb()
	}
}

// Failure reports a failed request. At the configured threshold of
// consecutive failures the breaker trips open; a failed half-open probe
// re-opens immediately.
func (b *Breaker) Failure() {
	b.mu.Lock()
	epoch := b.failures.Add(1)
	var cb func()
	switch b.state {
	case StateHalfOpen:
		b.probing = false
		cb = b.transitionLocked(StateOpen)
	case StateClosed:
		if b.consec == 0 {
			b.runFrom = epoch
		}
		b.consec++
		if b.consec >= b.cfg.FailureThreshold {
			cb = b.transitionLocked(StateOpen)
		}
	}
	b.mu.Unlock()
	if cb != nil {
		cb()
	}
}

// State returns the current position.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// ProbeDue reports that the breaker is open with its cooldown elapsed: the
// next Allow() would admit a half-open recovery probe. Background loops
// that fail fast while the breaker is open use this to know when issuing a
// request is worthwhile again — state transitions happen lazily in Allow,
// so without ProbeDue a quiescent system would never leave StateOpen.
func (b *Breaker) ProbeDue() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state == StateOpen && time.Since(b.openedAt) >= b.cfg.Cooldown
}

// Trips returns how many times the breaker has opened.
func (b *Breaker) Trips() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}

// HalfOpens returns how many probes the breaker has admitted.
func (b *Breaker) HalfOpens() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.halfOpens
}

// DegradedDur returns the cumulative time spent outside StateClosed,
// including the current span when the breaker is open or half-open.
func (b *Breaker) DegradedDur() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	d := b.degraded
	if !b.since.IsZero() {
		d += time.Since(b.since)
	}
	return d
}
