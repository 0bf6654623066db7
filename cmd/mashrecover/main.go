// Command mashrecover demonstrates and measures crash recovery: it
// populates a store with WAL-only data, crashes it, and times recovery
// under the chosen WAL mode — stock serial replay or the extended WAL's
// parallel, skip-flushed replay.
//
// Usage:
//
//	mashrecover -walmb 64 -parallelism 4
//	mashrecover -walmb 64 -extended=false -parallelism 1   # stock RocksDB behaviour
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"rocksmash/internal/db"
	"rocksmash/internal/ycsb"
)

func main() {
	_, err := run(os.Args[1:], os.Stdout)
	switch {
	case errors.Is(err, flag.ErrHelp):
	case err != nil:
		fmt.Fprintln(os.Stderr, "mashrecover:", err)
		os.Exit(1)
	}
}

// result is what one run wrote and what recovery rebuilt from it.
type result struct {
	written int // records written before the crash
	report  db.RecoveryReport
}

// run parses args, writes the WAL, crashes the store and times its
// recovery, printing to out as it goes; with -verify it fails unless every
// written record is readable after recovery.
func run(args []string, out io.Writer) (result, error) {
	fs := flag.NewFlagSet("mashrecover", flag.ContinueOnError)
	var (
		dir         = fs.String("db", "", "database directory (default: temp)")
		walMB       = fs.Int("walmb", 32, "approximate WAL volume to recover, in MiB")
		parallelism = fs.Int("parallelism", 4, "recovery goroutines")
		extended    = fs.Bool("extended", true, "use the extended WAL (segment seq index)")
		segMB       = fs.Int("segmb", 4, "WAL segment size in MiB")
		verify      = fs.Bool("verify", true, "verify every recovered key")
		backup      = fs.Bool("backup", false, "replicate sealed WAL segments to the cloud tier")
		shards      = fs.Int("shards", 1, "hash-partition the keyspace into this many independent sub-LSMs (each recovers its WAL concurrently)")
	)
	var res result
	if err := fs.Parse(args); err != nil {
		return res, err
	}

	d := *dir
	if d == "" {
		var err error
		if d, err = os.MkdirTemp("", "mashrecover-*"); err != nil {
			return res, err
		}
		defer os.RemoveAll(d)
	}

	opts := db.DefaultOptions()
	opts.MemtableBytes = 1 << 30 // keep everything in the WAL
	opts.WALSegmentBytes = int64(*segMB) << 20
	opts.ExtendedWAL = *extended
	opts.RecoveryParallelism = *parallelism
	opts.WALCloudBackup = *backup
	opts.Shards = *shards

	store, err := db.OpenAt(d, opts)
	if err != nil {
		return res, err
	}

	const valLen = 1024
	n := (*walMB << 20) / (valLen + 32)
	res.written = n
	fmt.Fprintf(out, "writing %d records (~%d MiB of WAL)...\n", n, *walMB)
	val := make([]byte, valLen)
	for i := 0; i < n; i++ {
		if err := store.Put(ycsb.Key(uint64(i)), val); err != nil {
			store.Crash()
			return res, err
		}
	}
	fmt.Fprintln(out, "simulating crash (no flush, no clean close)")
	store.Crash()

	start := time.Now()
	recovered, err := db.OpenAt(d, opts)
	if err != nil {
		return res, err
	}
	defer recovered.Close()
	dur := time.Since(start)

	rep := recovered.RecoveryReport()
	res.report = rep
	fmt.Fprintf(out, "\nrecovery completed in %s\n  %s\n", dur.Round(time.Millisecond), rep)
	if *shards > 1 {
		// Shards recover their WAL streams concurrently, each with its own
		// replay pool: the effective parallelism is the product.
		fmt.Fprintf(out, "  sharding: %d shards recovered concurrently x %d goroutines each = %d-way parallelism\n",
			*shards, *parallelism, *shards**parallelism)
	}
	fmt.Fprintf(out, "  throughput: %.1f MiB/s of WAL replayed\n",
		float64(rep.WALBytes)/(1<<20)/dur.Seconds())

	if *verify {
		missing := 0
		for i := 0; i < n; i++ {
			if _, err := recovered.Get(ycsb.Key(uint64(i))); err != nil {
				missing++
			}
		}
		if missing > 0 {
			return res, fmt.Errorf("verification: %d/%d records MISSING", missing, n)
		}
		fmt.Fprintf(out, "  verification: all %d records intact — zero data loss\n", n)
	}
	return res, nil
}
