package wal

import (
	"testing"

	"rocksmash/internal/storage"
)

// TestAppendSpillsOnDiskFull fills the local device's write budget and
// asserts appends keep succeeding by spilling the active segment directly
// onto the backup tier, then replay recovers every record.
func TestAppendSpillsOnDiskFull(t *testing.T) {
	faulty := storage.NewFaulty(newBackend(t), storage.FaultConfig{Seed: 1})
	cloud := newCloudBackend(t)
	opts := DefaultOptions()
	opts.Backup = cloud
	m, err := Open(faulty, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := appendOne(m, []byte("before"), 1, 1); err != nil {
		t.Fatal(err)
	}

	// The disk fills mid-stream: every further local write gets ENOSPC.
	faulty.SetWriteBudget(1)
	for i := uint64(2); i <= 5; i++ {
		if _, err := appendOne(m, []byte("during"), i, i); err != nil {
			t.Fatalf("append %d during disk-full must spill, got %v", i, err)
		}
	}
	if m.Spills() == 0 {
		t.Fatal("no segments spilled to the backup tier")
	}

	// Space returns: the next roll lands locally again.
	faulty.SetWriteBudget(0)
	if err := m.Roll(); err != nil {
		t.Fatal(err)
	}
	if _, err := appendOne(m, []byte("after"), 6, 6); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery replays the local and spilled segments alike.
	m2, err := Open(faulty, opts, 100)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if _, err := m2.Replay(0, 1, eachRecord(func(seg uint64, payload []byte) error {
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	var minSeq, maxSeq uint64 = 1 << 62, 0
	for _, s := range m2.Segments() {
		if s.MinSeq != 0 && s.MinSeq < minSeq {
			minSeq = s.MinSeq
		}
		if s.MaxSeq > maxSeq {
			maxSeq = s.MaxSeq
		}
	}
	if minSeq != 1 || maxSeq != 6 {
		t.Fatalf("recovered seq range [%d,%d], want [1,6]", minSeq, maxSeq)
	}
}

// TestSyncedSpillDurableWithoutClose guards the spilled-segment durability
// barrier: an object tier persists bytes only when an object commits at
// Close, so a synced append that spilled to the backup must leave a visible
// backup object by the time it is acknowledged. A crash that never closes
// the manager must still replay every acked record.
func TestSyncedSpillDurableWithoutClose(t *testing.T) {
	faulty := storage.NewFaulty(newBackend(t), storage.FaultConfig{Seed: 1})
	cloud := newCloudBackend(t)
	opts := DefaultOptions()
	opts.Sync = true
	opts.Backup = cloud
	m, err := Open(faulty, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := appendOne(m, []byte("local"), 1, 1); err != nil {
		t.Fatal(err)
	}

	// Disk full: synced appends must keep succeeding via the backup tier.
	faulty.SetWriteBudget(1)
	for i := uint64(2); i <= 4; i++ {
		if _, err := appendOne(m, []byte("spilled"), i, i); err != nil {
			t.Fatalf("synced append %d during disk-full: %v", i, err)
		}
		// The ack means durable: the spilled segment must already be a
		// visible object on the backup tier, not bytes parked in an open
		// writer that a crash would discard.
		names, err := cloud.List("wal/")
		if err != nil {
			t.Fatal(err)
		}
		visible := false
		for _, n := range names {
			if data, err := cloud.ReadAll(n); err == nil && scanRecords(data) == nil && len(data) > 0 {
				visible = true
			}
		}
		if !visible {
			t.Fatalf("after synced append %d no committed backup segment is visible", i)
		}
	}
	if m.Spills() == 0 {
		t.Fatal("no segments spilled to the backup tier")
	}

	// Crash: the manager is dropped without Close or Sync.
	m2, err := Open(faulty, opts, 100)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	var records int
	if _, err := m2.Replay(0, 1, eachRecord(func(uint64, []byte) error { records++; return nil })); err != nil {
		t.Fatal(err)
	}
	if records < 4 {
		t.Fatalf("replayed %d records after crash, want all 4 acked", records)
	}
}

// TestScrubRestoresCorruptSegmentFromBackup damages a sealed local segment
// and asserts Scrub detects the bad record checksum and rewrites the
// segment from its clean backup copy.
func TestScrubRestoresCorruptSegmentFromBackup(t *testing.T) {
	local := newBackend(t)
	cloud := newCloudBackend(t)
	opts := DefaultOptions()
	opts.Backup = cloud
	m, err := Open(local, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := appendOne(m, []byte("precious"), 1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := appendOne(m, []byte("sentinel"), 2, 2); err != nil {
		t.Fatal(err)
	}
	if err := m.Roll(); err != nil { // seals segment 1, copies it to backup
		t.Fatal(err)
	}

	// Flip a byte in the FIRST record's payload: damage at the tail would
	// be tolerated as a torn write, mid-stream damage must not be.
	name := SegmentName("wal", 1)
	data, err := local.ReadAll(name)
	if err != nil {
		t.Fatal(err)
	}
	data[headerLen] ^= 0xFF
	if err := storage.WriteObject(local, name, data); err != nil {
		t.Fatal(err)
	}

	checked, corrupt, repaired := m.Scrub()
	if checked == 0 || corrupt != 1 || repaired != 1 {
		t.Fatalf("Scrub = (%d, %d, %d), want (>0, 1, 1)", checked, corrupt, repaired)
	}
	if m.Restored() != 1 {
		t.Fatalf("Restored = %d, want 1", m.Restored())
	}
	// The local copy is clean again.
	if _, c2, _ := m.Scrub(); c2 != 0 {
		t.Fatalf("second Scrub still finds %d corrupt segments", c2)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}
