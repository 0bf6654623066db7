package harness

import (
	"fmt"
	"math/rand"
	"time"

	"rocksmash/internal/db"
	"rocksmash/internal/ycsb"
)

func init() {
	register("fig-wscale", "Writer scaling with group commit (ours): synced fillrandom", figWScale)
}

// figWScale is an experiment this implementation adds: scale concurrent
// writers over the synced fillrandom workload. The commit pipeline
// coalesces queued writers into groups that share a single vectored WAL
// append and fsync, so throughput grows with the writer count while the
// group-size and amortized-sync columns show the mechanism; one writer is
// a group of one and pays one fsync per batch.
func figWScale(cfg Config) error {
	w := cfg.out()
	total := cfg.scale(3000)
	const valLen = 100
	fmt.Fprintf(w, "%-9s %10s %14s %12s %12s\n",
		"writers", "kops/s", "batches/group", "syncsSaved", "p99")
	for _, writers := range []int{1, 2, 4, 8} {
		opts := expOptions(db.PolicyLocalOnly)
		opts.WALSync = true
		opts.MemtableBytes = 64 << 20 // commit path only: never seal mid-run
		d, err := openExp(cfg, fmt.Sprintf("wscale-%d", writers), opts)
		if err != nil {
			return err
		}
		lat, err := parallelFill(d, writers, total, valLen, cfg.seed())
		if err != nil {
			d.Close()
			return err
		}
		m := d.Metrics()
		groupSize := float64(m.CommitGroupBatches) / float64(m.CommitGroups)
		fmt.Fprintf(w, "%-9d %10s %14.2f %12d %12s\n",
			writers, kops(total, lat.dur), groupSize, m.WALSyncsAmortized,
			lat.p99.Round(time.Microsecond))
		if err := d.Close(); err != nil {
			return err
		}
	}
	return nil
}

type fillResult struct {
	dur time.Duration
	p99 time.Duration
}

// parallelFill splits total random-key puts across writers clients and
// reports wall time plus the p99 commit latency across all writers.
func parallelFill(d *db.DB, writers, total, valLen int, seed int64) (fillResult, error) {
	start := time.Now()
	err := Clients(writers, total, nil, func(tid int) func(int) error {
		rng := rand.New(rand.NewSource(seed + int64(tid)))
		val := make([]byte, valLen)
		return func(int) error {
			rng.Read(val[:8])
			return d.Put(ycsb.Key(uint64(rng.Intn(total))), val)
		}
	})
	if err != nil {
		return fillResult{}, err
	}
	return fillResult{dur: time.Since(start), p99: d.Metrics().PutLat.P99}, nil
}
