package harness

import (
	"fmt"
	"time"

	"rocksmash/internal/db"
)

func init() {
	register("fig-shardscale", "Keyspace sharding (ours): fill throughput vs shard count and writer threads", figShardScale)
}

// figShardScale is an ablation this implementation adds: sweep the number
// of keyspace shards against the number of concurrent writers over a
// cloud-resident fillrandom workload sized to keep memtables sealing, so
// the fill is bounded by background work — flushes and compactions paying
// cloud round-trips — not by the commit path (fig-wscale covers that; the
// group-commit pipeline already scales writers within one LSM). A single
// LSM runs one flush queue and one compaction scheduler, so its cloud
// operations serialize: writers stall behind L0 while the engine waits
// out upload and download latency one table at a time. N hash-partitioned
// shards keep N flushes and compactions in flight, overlapping their
// cloud waits, so fill throughput improves with the shard count even on
// few cores — the win is latency hiding, not extra CPU. The balance
// column reports min/max per-shard write counts from the facade's
// per-shard attribution, confirming the FNV-1a partition spreads the
// load.
func figShardScale(cfg Config) error {
	w := cfg.out()
	total := cfg.scale(150000)
	const valLen = 400
	fmt.Fprintf(w, "%-8s %-9s %10s %12s %16s\n",
		"shards", "threads", "kops/s", "p99", "balance min/max")
	for _, shards := range []int{1, 2, 4, 8} {
		for _, threads := range []int{1, 4, 8} {
			opts := expOptions(db.PolicyCloudOnly)
			opts.Shards = shards
			d, err := openExp(cfg, fmt.Sprintf("shardscale-%d-%d", shards, threads), opts)
			if err != nil {
				return err
			}
			lat, err := parallelFill(d, threads, total, valLen, cfg.seed())
			if err != nil {
				d.Close()
				return err
			}
			balance := "n/a"
			if m := d.Metrics(); len(m.Shards) > 1 {
				min, max := m.Shards[0].Writes, m.Shards[0].Writes
				for _, s := range m.Shards[1:] {
					if s.Writes < min {
						min = s.Writes
					}
					if s.Writes > max {
						max = s.Writes
					}
				}
				balance = fmt.Sprintf("%d/%d", min, max)
			}
			fmt.Fprintf(w, "%-8d %-9d %10s %12s %16s\n",
				shards, threads, kops(total, lat.dur),
				lat.p99.Round(time.Microsecond), balance)
			if err := d.Close(); err != nil {
				return err
			}
		}
	}
	return nil
}
