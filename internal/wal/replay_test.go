package wal

import (
	"errors"
	"fmt"
	"testing"

	"rocksmash/internal/storage"
)

// TestReplayMidLogDamage damages the first record of a sealed segment —
// damage a torn tail cannot explain — and replays it. Without a backup tier
// nothing can heal the segment and Replay reports ErrCorrupt; with a clean
// backup copy Replay delivers that copy's records and heals the local file.
func TestReplayMidLogDamage(t *testing.T) {
	for _, withBackup := range []bool{false, true} {
		t.Run(fmt.Sprintf("backup=%v", withBackup), func(t *testing.T) {
			local := newBackend(t)
			opts := DefaultOptions()
			if withBackup {
				opts.Backup = newCloudBackend(t)
			}
			m, err := Open(local, opts, 1)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range []string{"precious", "sentinel"} {
				if _, err := appendOne(m, []byte(p), uint64(i+1), uint64(i+1)); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.Roll(); err != nil { // seals segment 1 (and backs it up)
				t.Fatal(err)
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			name := SegmentName("wal", 1)
			data, err := local.ReadAll(name)
			if err != nil {
				t.Fatal(err)
			}
			data[headerLen] ^= 0xFF
			if err := storage.WriteObject(local, name, data); err != nil {
				t.Fatal(err)
			}

			m2, err := Open(local, opts, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer m2.Close()
			var got []string
			_, err = m2.Replay(0, 1, eachRecord(func(_ uint64, p []byte) error {
				got = append(got, string(p))
				return nil
			}))
			if !withBackup {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("Replay = %v, want ErrCorrupt", err)
				}
				if len(got) != 0 {
					t.Fatalf("replayed %v past damage in the first record", got)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != "[precious sentinel]" {
				t.Fatalf("replayed %v, want the backup copy's [precious sentinel]", got)
			}
			if m2.Restored() != 1 {
				t.Fatalf("Restored = %d, want 1", m2.Restored())
			}
			healed, err := local.ReadAll(name)
			if err != nil || scanRecords(healed) != nil {
				t.Fatalf("local segment not healed from the backup copy: %v", err)
			}
		})
	}
}
