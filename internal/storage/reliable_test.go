package storage

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"rocksmash/internal/retry"
)

func fastPolicy() retry.Policy {
	return retry.Policy{
		MaxAttempts: 4,
		BaseBackoff: time.Microsecond,
		MaxBackoff:  time.Microsecond,
	}
}

func fastBreaker(threshold int) *retry.Breaker {
	return retry.NewBreaker(retry.BreakerConfig{
		FailureThreshold: threshold,
		Cooldown:         time.Millisecond,
	})
}

func TestReliableRetriesTransientFaults(t *testing.T) {
	inner := NewFaulty(newTestCloud(t), FaultConfig{Seed: 1})
	var retried []string
	r := NewReliable(inner, fastPolicy(), nil,
		func(op, name string, attempt int, err error, delay time.Duration) {
			retried = append(retried, op)
		}, nil)

	fails := 2
	inner.SetHook(func(op, name string) error {
		if op == "PUT" && fails > 0 {
			fails--
			return errors.New("transient 503")
		}
		return nil
	})
	attempts, err := r.WriteObject("obj", []byte("payload"))
	if err != nil {
		t.Fatalf("WriteObject: %v", err)
	}
	if attempts != 3 {
		t.Fatalf("attempts = %d, want 3", attempts)
	}
	if len(retried) != 2 || retried[0] != "put" {
		t.Fatalf("onRetry calls = %v, want two put retries", retried)
	}
	got, err := r.ReadAll("obj")
	if err != nil || !bytes.Equal(got, []byte("payload")) {
		t.Fatalf("ReadAll = %q, %v", got, err)
	}
}

func TestReliableNotFoundPassesThroughUnretried(t *testing.T) {
	calls := 0
	inner := NewFaulty(newTestCloud(t), FaultConfig{Seed: 1})
	inner.SetHook(func(op, name string) error { calls++; return nil })
	br := fastBreaker(1)
	r := NewReliable(inner, fastPolicy(), br, nil, nil)
	if _, err := r.ReadAll("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ReadAll missing = %v, want ErrNotFound", err)
	}
	if calls != 1 {
		t.Fatalf("backend calls = %d, want 1 (no retries on ErrNotFound)", calls)
	}
	if br.State() != retry.StateClosed {
		t.Fatal("ErrNotFound must not count against the breaker")
	}
}

func TestReliableBreakerFailsFast(t *testing.T) {
	inner := NewFaulty(newTestCloud(t), FaultConfig{Seed: 1})
	if err := WriteObject(inner, "obj", []byte("x")); err != nil {
		t.Fatal(err)
	}
	br := retry.NewBreaker(retry.BreakerConfig{FailureThreshold: 2, Cooldown: time.Hour})
	r := NewReliable(inner, retry.Policy{MaxAttempts: 1, BaseBackoff: time.Microsecond, MaxBackoff: time.Microsecond}, br, nil, nil)

	inner.StartOutage(0)
	for i := 0; i < 2; i++ {
		if _, err := r.ReadAll("obj"); err == nil {
			t.Fatal("read during outage succeeded")
		}
	}
	if br.State() != retry.StateOpen {
		t.Fatalf("breaker state = %s, want open", br.State())
	}
	before := inner.InjectedFaults()
	if _, err := r.ReadAll("obj"); !errors.Is(err, ErrCloudUnavailable) {
		t.Fatalf("open-breaker read = %v, want ErrCloudUnavailable", err)
	}
	if inner.InjectedFaults() != before {
		t.Fatal("open breaker still touched the backend")
	}
}

// TestReliableOutageOnsetIgnoresInFlightSuccess: a GET that started before
// an outage and lands between a reader's retries must not reset the
// breaker's failure count, so the reader still gets ErrCloudUnavailable
// once its retries have tripped the breaker, not the raw fault.
func TestReliableOutageOnsetIgnoresInFlightSuccess(t *testing.T) {
	inner := NewFaulty(newTestCloud(t), FaultConfig{Seed: 1})
	for _, name := range []string{"obj", "slow"} {
		if err := WriteObject(inner, name, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	started, release := make(chan struct{}), make(chan struct{})
	inner.SetHook(func(op, name string) error {
		switch name {
		case "slow": // issued before the outage, answered after it began
			close(started)
			<-release
		case "obj":
			return errors.New("outage")
		}
		return nil
	})
	br := retry.NewBreaker(retry.BreakerConfig{FailureThreshold: 3, Cooldown: time.Hour})
	slowDone := make(chan error, 1)
	onRetry := func(op, name string, attempt int, err error, delay time.Duration) {
		if name == "obj" && attempt == 1 {
			close(release)
			if err := <-slowDone; err != nil {
				t.Errorf("in-flight read: %v", err)
			}
		}
	}
	r := NewReliable(inner, fastPolicy(), br, onRetry, nil)
	go func() {
		_, err := r.ReadAll("slow")
		slowDone <- err
	}()
	<-started
	if _, err := r.ReadAll("obj"); !errors.Is(err, ErrCloudUnavailable) {
		t.Fatalf("read at outage onset = %v, want ErrCloudUnavailable", err)
	}
}

func TestReliableBreakerRecoversViaProbe(t *testing.T) {
	inner := NewFaulty(newTestCloud(t), FaultConfig{Seed: 1})
	if err := WriteObject(inner, "obj", []byte("x")); err != nil {
		t.Fatal(err)
	}
	br := fastBreaker(1)
	r := NewReliable(inner, retry.Policy{MaxAttempts: 1, BaseBackoff: time.Microsecond, MaxBackoff: time.Microsecond}, br, nil, nil)

	inner.StartOutage(0)
	if _, err := r.ReadAll("obj"); err == nil {
		t.Fatal("read during outage succeeded")
	}
	if br.State() != retry.StateOpen {
		t.Fatalf("state = %s, want open", br.State())
	}
	inner.EndOutage()
	time.Sleep(5 * time.Millisecond) // past the cooldown
	got, err := r.ReadAll("obj")     // probe succeeds, breaker closes
	if err != nil || !bytes.Equal(got, []byte("x")) {
		t.Fatalf("probe read = %q, %v", got, err)
	}
	if br.State() != retry.StateClosed {
		t.Fatalf("state = %s after successful probe, want closed", br.State())
	}
}

func TestReliableLazyOpen(t *testing.T) {
	inner := NewFaulty(newTestCloud(t), FaultConfig{Seed: 1})
	if err := WriteObject(inner, "obj", []byte("abcdefgh")); err != nil {
		t.Fatal(err)
	}
	touched := 0
	inner.SetHook(func(op, name string) error { touched++; return nil })
	r := NewReliable(inner, fastPolicy(), nil, nil, nil)

	h, err := r.Open("obj")
	if err != nil {
		t.Fatal(err)
	}
	if touched != 0 {
		t.Fatalf("Open touched the backend %d times, want lazy open", touched)
	}
	buf := make([]byte, 4)
	n, err := h.ReadAt(buf, 2)
	if err != nil || n != 4 || string(buf) != "cdef" {
		t.Fatalf("ReadAt = %q (%d), %v", buf[:n], n, err)
	}
	if touched == 0 {
		t.Fatal("first ReadAt did not open the object")
	}
	if sz := h.Size(); sz != 8 {
		t.Fatalf("Size = %d, want 8", sz)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal("double Close should be a no-op")
	}
}

func TestReliableCreateBuffersUntilClose(t *testing.T) {
	inner := NewFaulty(newTestCloud(t), FaultConfig{Seed: 1})
	r := NewReliable(inner, fastPolicy(), nil, nil, nil)

	w, err := r.Create("obj")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("part1-")); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("part2")); err != nil {
		t.Fatal(err)
	}
	if _, err := inner.ReadAll("obj"); !errors.Is(err, ErrNotFound) {
		t.Fatal("object visible before Close")
	}
	// A transient failure at upload time is absorbed by Close's retry.
	fails := 1
	inner.SetHook(func(op, name string) error {
		if op == "PUT" && fails > 0 {
			fails--
			return errors.New("transient")
		}
		return nil
	})
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got, err := r.ReadAll("obj")
	if err != nil || string(got) != "part1-part2" {
		t.Fatalf("ReadAll = %q, %v", got, err)
	}
}

func TestReliableUnwrapChain(t *testing.T) {
	cloud := newTestCloud(t)
	r := NewReliable(Instrument(cloud, nil, nil), fastPolicy(), nil, nil, nil)
	if BaseBackend(r) != Backend(cloud) {
		t.Fatal("BaseBackend should unwrap Reliable and Instrumented down to the cloud sim")
	}
}
