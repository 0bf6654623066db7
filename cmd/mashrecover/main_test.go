package main

import (
	"io"
	"testing"
)

// TestRecoverDriver runs the Fig. 11 driver on a 4 MiB WAL in 1 MiB
// segments: extended WAL at 1 and 4 replay goroutines, and the stock serial
// log. Every written record must be recovered and pass -verify.
func TestRecoverDriver(t *testing.T) {
	for _, args := range [][]string{
		{"-parallelism", "1"},
		{"-parallelism", "4"},
		{"-extended=false", "-parallelism", "1"},
	} {
		res, err := run(append([]string{"-walmb", "4", "-segmb", "1", "-verify", "-db", t.TempDir()}, args...), io.Discard)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if res.written == 0 || res.report.RecoveredKeys != int64(res.written) {
			t.Fatalf("%v: recovered %d of %d written records", args, res.report.RecoveredKeys, res.written)
		}
		if res.report.WALSegments < 4 {
			t.Fatalf("%v: %d WAL segments, want >= 4", args, res.report.WALSegments)
		}
	}
}
