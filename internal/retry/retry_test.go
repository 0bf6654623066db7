package retry

import (
	"errors"
	"testing"
	"time"
)

func TestBackoffBounds(t *testing.T) {
	p := Policy{BaseBackoff: 10 * time.Millisecond, MaxBackoff: 80 * time.Millisecond}
	for attempt := 1; attempt <= 8; attempt++ {
		cap := p.BaseBackoff << (attempt - 1)
		if cap > p.MaxBackoff {
			cap = p.MaxBackoff
		}
		for i := 0; i < 100; i++ {
			d := p.Backoff(attempt)
			if d < 0 || d >= cap {
				t.Fatalf("Backoff(%d) = %s, want in [0, %s)", attempt, d, cap)
			}
		}
	}
}

func TestDoRetriesUntilSuccess(t *testing.T) {
	calls := 0
	var retries []int
	err := Do(Policy{MaxAttempts: 5, BaseBackoff: time.Microsecond, MaxBackoff: time.Microsecond},
		nil,
		func(attempt int, err error, delay time.Duration) { retries = append(retries, attempt) },
		func() error {
			calls++
			if calls < 3 {
				return errors.New("transient")
			}
			return nil
		})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	if len(retries) != 2 || retries[0] != 1 || retries[1] != 2 {
		t.Fatalf("onRetry attempts = %v, want [1 2]", retries)
	}
}

func TestDoStopsAtMaxAttempts(t *testing.T) {
	calls := 0
	fail := errors.New("persistent")
	err := Do(Policy{MaxAttempts: 3, BaseBackoff: time.Microsecond, MaxBackoff: time.Microsecond},
		nil, nil, func() error { calls++; return fail })
	if !errors.Is(err, fail) {
		t.Fatalf("err = %v, want the op error", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
}

func TestDoNonRetryableStopsImmediately(t *testing.T) {
	permanent := errors.New("permanent")
	calls := 0
	err := Do(Policy{
		MaxAttempts: 5, BaseBackoff: time.Microsecond, MaxBackoff: time.Microsecond,
		Retryable: func(err error) bool { return !errors.Is(err, permanent) },
	}, nil, nil, func() error { calls++; return permanent })
	if !errors.Is(err, permanent) || calls != 1 {
		t.Fatalf("err = %v calls = %d, want permanent after 1 call", err, calls)
	}
}

func TestDoCancelAbortsWait(t *testing.T) {
	cancel := make(chan struct{})
	close(cancel)
	fail := errors.New("outage")
	calls := 0
	start := time.Now()
	err := Do(Policy{MaxAttempts: 10, BaseBackoff: time.Hour, MaxBackoff: time.Hour},
		cancel, nil, func() error { calls++; return fail })
	if !errors.Is(err, ErrAborted) || !errors.Is(err, fail) {
		t.Fatalf("err = %v, want ErrAborted joined with op error", err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (no retries after cancel)", calls)
	}
	if time.Since(start) > time.Second {
		t.Fatal("cancelled Do slept anyway")
	}
}

func TestDoDeadlineStopsRetrying(t *testing.T) {
	fail := errors.New("slow outage")
	calls := 0
	err := Do(Policy{
		MaxAttempts: 100,
		BaseBackoff: 50 * time.Millisecond,
		MaxBackoff:  50 * time.Millisecond,
		Deadline:    time.Nanosecond, // elapsed+delay always exceeds it
	}, nil, nil, func() error { calls++; return fail })
	if !errors.Is(err, fail) {
		t.Fatalf("err = %v, want op error", err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (deadline exhausted)", calls)
	}
}

func TestBreakerTripAndRecover(t *testing.T) {
	var transitions []string
	b := NewBreaker(BreakerConfig{
		FailureThreshold: 3,
		Cooldown:         10 * time.Millisecond,
		OnStateChange: func(from, to State) {
			transitions = append(transitions, from.String()+">"+to.String())
		},
	})
	if b.State() != StateClosed || !b.Allow() {
		t.Fatal("new breaker should be closed and allowing")
	}
	b.Failure()
	b.Failure()
	if b.State() != StateClosed {
		t.Fatal("breaker tripped before threshold")
	}
	b.Failure()
	if b.State() != StateOpen {
		t.Fatal("breaker did not trip at threshold")
	}
	if b.Allow() {
		t.Fatal("open breaker allowed a request before cooldown")
	}
	if b.Trips() != 1 {
		t.Fatalf("Trips = %d, want 1", b.Trips())
	}

	time.Sleep(15 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("cooldown elapsed but probe not admitted")
	}
	if b.State() != StateHalfOpen {
		t.Fatalf("state = %s, want half-open", b.State())
	}
	if b.Allow() {
		t.Fatal("second probe admitted while first in flight")
	}
	b.Failure() // failed probe re-opens
	if b.State() != StateOpen || b.Trips() != 2 {
		t.Fatalf("failed probe: state=%s trips=%d, want open/2", b.State(), b.Trips())
	}

	time.Sleep(15 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("second probe not admitted")
	}
	b.Success()
	if b.State() != StateClosed {
		t.Fatalf("state = %s after successful probe, want closed", b.State())
	}
	if b.HalfOpens() != 2 {
		t.Fatalf("HalfOpens = %d, want 2", b.HalfOpens())
	}
	if b.DegradedDur() <= 0 {
		t.Fatal("DegradedDur should be positive after an open span")
	}
	want := []string{
		"closed>open", "open>half-open", "half-open>open", "open>half-open", "half-open>closed",
	}
	if len(transitions) != len(want) {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", transitions, want)
		}
	}
}

func TestBreakerSuccessResetsConsecutiveCount(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 2, Cooldown: time.Hour})
	b.Failure()
	b.Success()
	b.Failure()
	if b.State() != StateClosed {
		t.Fatal("interleaved successes must reset the consecutive-failure count")
	}
	b.Failure()
	if b.State() != StateOpen {
		t.Fatal("breaker should trip after two consecutive failures")
	}
}

func TestBreakerIgnoresSuccessOfRequestOlderThanFailureRun(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 3, Cooldown: time.Hour})
	stale := b.Epoch() // a request starts before the outage
	b.Failure()
	fresh := b.Epoch() // a request starts after the first failure
	b.SuccessSince(stale)
	b.Failure()
	if b.State() != StateClosed {
		t.Fatal("breaker tripped before threshold")
	}
	b.Failure()
	if b.State() != StateOpen {
		t.Fatal("a success from before the failure run reset the consecutive count")
	}
	b.SuccessSince(stale)
	if b.State() != StateOpen {
		t.Fatal("a success from before the failure run closed an open breaker")
	}
	b.SuccessSince(fresh)
	if b.State() != StateClosed {
		t.Fatal("a success from a request started during the run must close the breaker")
	}
	b.Failure()
	b.SuccessSince(b.Epoch())
	b.Failure()
	b.Failure()
	if b.State() != StateClosed {
		t.Fatal("a fresh success must reset the consecutive count")
	}
}
