package db

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"rocksmash/internal/storage"
)

// waitForDrain blocks until the pending-upload backlog is empty, failing the
// test if it does not drain within timeout.
func waitForDrain(t *testing.T, d *DB, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		n, b := d.PendingCloudTables()
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pending backlog did not drain: %d tables (%d bytes), breaker=%s",
				n, b, d.BreakerState())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitForDeferredEmpty blocks until the deferred-delete queue is empty.
func waitForDeferredEmpty(t *testing.T, d *DB, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		d.engines[0].deferredMu.Lock()
		n := len(d.engines[0].deferred)
		d.engines[0].deferredMu.Unlock()
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("deferred-delete queue did not drain: %d entries", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTransientCloudFailureRetried injects a cloud PUT failure that clears
// after two attempts; the flush must succeed via retry.
func TestTransientCloudFailureRetried(t *testing.T) {
	d, _ := openTest(t, PolicyCloudOnly)
	defer d.Close()

	var failures atomic.Int32
	failures.Store(2)
	d.cloudSim.SetFailureHook(func(op, name string) error {
		if op == "PUT" && failures.Load() > 0 {
			failures.Add(-1)
			return errors.New("injected transient PUT failure")
		}
		return nil
	})
	for i := 0; i < 100; i++ {
		mustPut(t, d, fmt.Sprintf("k%04d", i), "v")
	}
	if err := d.Flush(); err != nil {
		t.Fatalf("flush should survive transient cloud failures: %v", err)
	}
	d.cloudSim.SetFailureHook(nil)
	if d.Metrics().UploadRetries == 0 {
		t.Fatal("retry counter not incremented")
	}
	for i := 0; i < 100; i++ {
		mustGet(t, d, fmt.Sprintf("k%04d", i), "v")
	}
}

// TestPersistentCloudFailureDegrades verifies a cloud outage that outlasts
// the retries does not fail the flush: the table lands on local storage
// marked pending-upload, reads keep working against the local copy, and the
// drainer migrates the backlog to the cloud once the outage clears.
func TestPersistentCloudFailureDegrades(t *testing.T) {
	d, _ := openTest(t, PolicyCloudOnly)
	defer d.Close()
	d.cloudSim.SetFailureHook(func(op, name string) error {
		if op == "PUT" {
			return errors.New("injected outage")
		}
		return nil
	})
	for i := 0; i < 50; i++ {
		mustPut(t, d, fmt.Sprintf("k%04d", i), "v")
	}
	if err := d.Flush(); err != nil {
		t.Fatalf("flush during an outage must degrade, not fail: %v", err)
	}
	if n, _ := d.PendingCloudTables(); n == 0 {
		t.Fatal("degraded flush left no pending-upload backlog")
	}
	if d.Metrics().DegradedTables == 0 {
		t.Fatal("DegradedTables counter not incremented")
	}
	// Reads are served from the locally landed table throughout.
	mustGet(t, d, "k0000", "v")
	mustGet(t, d, "k0049", "v")

	// Outage ends: the drainer probes the breaker shut and migrates the
	// backlog; afterwards every table object lives in the cloud.
	d.cloudSim.SetFailureHook(nil)
	waitForDrain(t, d, 10*time.Second)
	if names, err := d.cloudSim.List("sst/"); err != nil || len(names) == 0 {
		t.Fatalf("drained tables missing from cloud: names=%v err=%v", names, err)
	}
	if d.Metrics().DrainedTables == 0 {
		t.Fatal("DrainedTables counter not incremented")
	}
	mustGet(t, d, "k0000", "v")
	mustGet(t, d, "k0049", "v")
}

// TestRollFailureFailsFast fails the fsync that seals the WAL segment under a
// Flush. The Flush that hit the failure returns it, and the engine wedges
// cleanly: every later Flush or Put returns an error promptly instead of
// waiting on a sealed memtable the flush lane was never told about.
func TestRollFailureFailsFast(t *testing.T) {
	d, lf, _, err := OpenAtChaosLocal(t.TempDir(), testOptions(PolicyLocalOnly), storage.FaultConfig{}, storage.FaultConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	mustPut(t, d, "k", "v")
	lf.SetSyncFailures(1)
	if err := d.Flush(); err == nil {
		t.Fatal("Flush over a failing WAL fsync returned nil")
	}

	fails := func(what string, op func() error) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- op() }()
		select {
		case err := <-done:
			if err == nil {
				t.Fatalf("%s after the failed roll returned nil", what)
			}
		case <-time.After(3 * time.Second):
			t.Fatalf("%s after the failed roll still blocked after 3s", what)
		}
	}
	big := make([]byte, 64<<10) // a memtable's worth: admitting it takes a seal
	for i := 0; i < 3; i++ {
		fails("Flush", d.Flush)
		fails("Put", func() error { return d.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v")) })
		fails("memtable-filling Put", func() error { return d.Put([]byte("big"), big) })
	}
}
