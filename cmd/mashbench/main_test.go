package main

import (
	"testing"

	"rocksmash/internal/db"
	"rocksmash/internal/harness"
	"rocksmash/internal/storage"
	"rocksmash/internal/ycsb"
)

func TestParsePolicy(t *testing.T) {
	cases := map[string]db.Policy{
		"mash":       db.PolicyMash,
		"local-only": db.PolicyLocalOnly,
		"local":      db.PolicyLocalOnly,
		"cloud-only": db.PolicyCloudOnly,
		"cloud":      db.PolicyCloudOnly,
		"cloud-lru":  db.PolicyCloudLRU,
	}
	for in, want := range cases {
		got, err := parsePolicy(in)
		if err != nil || got != want {
			t.Fatalf("parsePolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := parsePolicy("bogus"); err == nil {
		t.Fatal("bogus policy should error")
	}
}

func TestRunBenchAllBenchmarks(t *testing.T) {
	opts := db.DefaultOptions()
	opts.CloudLatency.GetFirstByte = 0
	opts.CloudLatency.PutFirstByte = 0
	opts.CloudLatency.MetaRTT = 0
	d, err := db.OpenAt(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for _, threads := range []int{1, 4} {
		for _, b := range []string{
			"fillseq", "fillrandom", "overwrite", "deleterandom",
			"readrandom", "readseq", "seekrandom", "readwhilewriting", "compact",
		} {
			if err := runBench(d, b, 200, 100, 64, threads, 1); err != nil {
				t.Fatalf("%s (threads=%d): %v", b, threads, err)
			}
		}
	}
	if err := runBench(d, "nope", 10, 10, 10, 1, 1); err == nil {
		t.Fatal("unknown benchmark should error")
	}
}

// TestRunYCSBAllWorkloads runs the -ycsb load and run phases of every core
// workload on one and two clients against a fresh store, with an outage
// hook that must fire exactly once, between the phases.
func TestRunYCSBAllWorkloads(t *testing.T) {
	for _, name := range []string{"A", "B", "C", "D", "E", "F"} {
		wl, err := ycsb.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, threads := range []int{1, 2} {
			opts := db.DefaultOptions()
			opts.CloudLatency = storage.NoLatency()
			d, err := db.OpenAt(t.TempDir(), opts)
			if err != nil {
				t.Fatal(err)
			}
			armed := 0
			ph := harness.Phase{Workload: wl, Records: 300, Ops: 200, Threads: threads, ValueLen: 64, Seed: 1}
			err = runYCSB(d, db.PolicyMash, ph, func() error {
				if n := d.Metrics().PutLat.Count; n < 300 {
					t.Errorf("YCSB-%s threads=%d: armed after %d of 300 load puts", name, threads, n)
				}
				armed++
				return nil
			})
			if err != nil {
				t.Fatalf("YCSB-%s threads=%d: %v", name, threads, err)
			}
			if armed != 1 {
				t.Fatalf("YCSB-%s threads=%d: outage hook ran %d times, want once", name, threads, armed)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
