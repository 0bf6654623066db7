package db

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"rocksmash/internal/storage"
)

// openFaultyTest opens a DB whose cloud backend is wrapped in a Faulty
// decorator, so tests can script outages and random fault injection.
func openFaultyTest(t *testing.T, p Policy, cfg storage.FaultConfig) (*DB, *storage.Faulty) {
	t.Helper()
	dir := t.TempDir()
	o := testOptions(p)
	local, err := storage.NewLocal(filepath.Join(dir, "local"))
	if err != nil {
		t.Fatal(err)
	}
	cloud, err := storage.NewCloud(filepath.Join(dir, "cloud"), o.CloudLatency, o.CloudCost)
	if err != nil {
		t.Fatal(err)
	}
	faulty := storage.NewFaulty(cloud, cfg)
	o.pcacheDir = filepath.Join(dir, "pcache")
	d, err := Open(o, local, faulty)
	if err != nil {
		t.Fatal(err)
	}
	return d, faulty
}

// TestOutageDegradedFlushAndDrain scripts a total cloud outage spanning
// several flushes: every flush must succeed by landing its table locally
// marked pending-upload, reads must keep serving from the local copies, and
// once the outage ends the drainer must migrate the whole backlog to the
// cloud without losing a key.
func TestOutageDegradedFlushAndDrain(t *testing.T) {
	d, faulty := openFaultyTest(t, PolicyCloudOnly, storage.FaultConfig{})
	defer d.Close()

	faulty.StartOutage(0) // until EndOutage
	const batches, perBatch = 4, 60
	for b := 0; b < batches; b++ {
		for i := 0; i < perBatch; i++ {
			mustPut(t, d, fmt.Sprintf("k%02d-%04d", b, i), pipelineValue(i))
		}
		if err := d.Flush(); err != nil {
			t.Fatalf("flush %d during outage must degrade, not fail: %v", b, err)
		}
	}
	pending, pendingBytes := d.PendingCloudTables()
	if pending == 0 {
		t.Fatal("outage flushes left no pending-upload backlog")
	}
	if pendingBytes == 0 {
		t.Fatal("pending backlog reports zero bytes")
	}
	if got := d.BreakerState(); got != "open" {
		t.Fatalf("breaker state during outage = %q, want open", got)
	}
	if d.Metrics().BreakerTrips == 0 {
		t.Fatal("breaker never tripped")
	}
	// Every key is readable from the locally landed tables mid-outage.
	for b := 0; b < batches; b++ {
		mustGet(t, d, fmt.Sprintf("k%02d-%04d", b, 0), pipelineValue(0))
		mustGet(t, d, fmt.Sprintf("k%02d-%04d", b, perBatch-1), pipelineValue(perBatch-1))
	}

	faulty.EndOutage()
	waitForDrain(t, d, 10*time.Second)
	if d.Metrics().DrainedTables == 0 {
		t.Fatal("DrainedTables counter not incremented")
	}
	if names, err := faulty.List("sst/"); err != nil || len(names) == 0 {
		t.Fatalf("drained tables missing from cloud: names=%v err=%v", names, err)
	}
	for b := 0; b < batches; b++ {
		for i := 0; i < perBatch; i++ {
			mustGet(t, d, fmt.Sprintf("k%02d-%04d", b, i), pipelineValue(i))
		}
	}
	m := d.Metrics()
	if m.DegradedTables == 0 || m.DegradedDur <= 0 {
		t.Errorf("metrics missing degraded-mode history: tables=%d dur=%s",
			m.DegradedTables, m.DegradedDur)
	}
}

// TestOutageReadsErrCloudUnavailable verifies the read-path contract during
// an outage: data held locally (here, the memtable) keeps serving, while a
// cold read that genuinely needs a cloud block surfaces ErrCloudUnavailable
// — a typed error, not a hang or a generic failure.
func TestOutageReadsErrCloudUnavailable(t *testing.T) {
	d, faulty := openFaultyTest(t, PolicyCloudOnly, storage.FaultConfig{})
	defer d.Close()

	for i := 0; i < 100; i++ {
		mustPut(t, d, fmt.Sprintf("cold%04d", i), pipelineValue(i))
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	mustPut(t, d, "hot", "in-memtable")

	faulty.StartOutage(0)
	// The memtable key is local state; the outage must not affect it.
	mustGet(t, d, "hot", "in-memtable")
	// The flushed keys live only in the cloud tier (no pcache under
	// PolicyCloudOnly) and the block cache is cold: the read must fail with
	// the typed outage error.
	if _, err := d.Get([]byte("cold0000")); !errors.Is(err, ErrCloudUnavailable) {
		t.Fatalf("cold cloud read during outage = %v, want ErrCloudUnavailable", err)
	}

	faulty.EndOutage()
	// After the cooldown a probe closes the breaker and reads recover.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := d.Get([]byte("cold0000")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("reads did not recover after the outage ended")
		}
		time.Sleep(5 * time.Millisecond)
	}
	mustGet(t, d, "cold0099", pipelineValue(99))
}

// TestOutageSoak runs concurrent writers across a scripted outage window.
// No write may fail — flushes degrade, compactions defer — and after the
// outage ends every acknowledged key must be present and the pending
// backlog fully drained. Run under -race this doubles as the concurrency
// soak for the degraded-mode machinery.
func TestOutageSoak(t *testing.T) {
	d, faulty := openFaultyTest(t, PolicyCloudOnly, storage.FaultConfig{})
	defer d.Close()

	const writers, perWriter = 4, 250
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < perWriter; i++ {
				k := fmt.Sprintf("w%02d-%05d", w, i)
				if err := d.Put([]byte(k), []byte(pipelineValue(i))); err != nil {
					t.Errorf("put %s during outage: %v", k, err)
					return
				}
			}
		}(w)
	}
	close(start)
	time.Sleep(5 * time.Millisecond)
	faulty.StartOutage(0)
	time.Sleep(30 * time.Millisecond)
	faulty.EndOutage()
	wg.Wait()

	if err := d.Flush(); err != nil {
		t.Fatalf("final flush: %v", err)
	}
	waitForDrain(t, d, 10*time.Second)
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			mustGet(t, d, fmt.Sprintf("w%02d-%05d", w, i), pipelineValue(i))
		}
	}
}
