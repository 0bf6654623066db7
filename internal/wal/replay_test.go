package wal

import (
	"bytes"
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

// TestRecordsReportOffsets replays a segment of records from a few bytes to
// three blocks long: a record written in one block must be reported at its
// payload's offset in the segment image, one spanning blocks as
// Reassembled with its whole payload, and each payload must be the bytes
// appended.
func TestRecordsReportOffsets(t *testing.T) {
	local := newBackend(t)
	opts := DefaultOptions()
	opts.SegmentBytes = 1 << 30
	m, err := Open(local, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i, n := range []int{5, 100, BlockSize - 2*headerLen, 40 << 10, 1, 3 * BlockSize, 700, 0, 9000, 9000, 9000, 9000} {
		p := bytes.Repeat([]byte{byte('a' + i)}, n)
		if _, err := appendOne(m, p, uint64(i+1), uint64(i+1)); err != nil {
			t.Fatal(err)
		}
		want = append(want, p)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2, err := Open(local, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	var aliased, joined int
	_, err = m2.Replay(0, 1, func(seg *ReplaySegment) error {
		i := 0
		return seg.Records(func(p []byte, off int) error {
			if i >= len(want) || !bytes.Equal(p, want[i]) {
				t.Fatalf("record %d: %d bytes, not the %d appended", i, len(p), len(want[i]))
			}
			switch {
			case off == Reassembled:
				joined++
			case off < 0 || off+len(p) > len(seg.Image) || !bytes.Equal(seg.Image[off:off+len(p)], p):
				t.Fatalf("record %d reported at offset %d of a %d-byte image, which does not hold it", i, off, len(seg.Image))
			default:
				aliased++
			}
			i++
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if aliased+joined != len(want) || aliased == 0 || joined < 3 {
		t.Fatalf("%d records at an offset and %d reassembled, want all %d with both kinds", aliased, joined, len(want))
	}
}
