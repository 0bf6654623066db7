package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"rocksmash/internal/db"
	"rocksmash/internal/readprof"
	"rocksmash/internal/ycsb"
)

func init() {
	register("fig-readamp", "Read-path attribution (ours): per-tier block sources vs persistent-cache size", figReadAmp)
}

// readAmpRow is the JSON artifact schema, one row per cache size.
type readAmpRow struct {
	PCacheMB     int     `json:"pcache_mb"`
	Kops         float64 `json:"kops"`
	ProfiledGets int64   `json:"profiled_gets"`
	TablesPerGet float64 `json:"tables_per_get"`
	BlocksPerGet float64 `json:"blocks_per_get"`
	BloomTNRate  float64 `json:"bloom_tn_rate"`
	// Per-tier block counts in readprof.Tier order.
	BlockCacheBlocks int64 `json:"block_cache_blocks"`
	PCacheBlocks     int64 `json:"pcache_blocks"`
	LocalBlocks      int64 `json:"local_blocks"`
	CloudBlocks      int64 `json:"cloud_blocks"`
	// CloudFetchMicros is the cloud fetch time of the timed Gets (1 in 64).
	CloudFetchMicros int64 `json:"cloud_fetch_micros"`
}

// figReadAmp is an ablation this implementation adds on top of the paper's
// evaluation: with every Get profiled (as every Get is), sweep the persistent
// cache size under PolicyMash with only L0 kept local, and show where each
// read's blocks actually came from. As the pcache grows it absorbs block
// reads that would otherwise hit cloud objects, which the per-tier columns
// quantify directly instead of inferring from aggregate hit ratios. The
// rows are also written to readamp.json under the experiment directory so
// plots can consume them.
func figReadAmp(cfg Config) error {
	w := cfg.out()
	records := cfg.scale(30000)
	reads := cfg.scale(10000)

	fmt.Fprintf(w, "%-9s %8s %10s %10s %8s %11s %9s %9s %9s\n",
		"pcache", "kops/s", "tables/get", "blocks/get", "bloomTN",
		"blockcache", "pcache", "local", "cloud")
	var rows []readAmpRow
	for _, mb := range []int{1, 4, 16} {
		opts := expOptions(db.PolicyMash)
		opts.LocalLevels = 1
		opts.PCacheBytes = int64(mb) << 20
		d, r, err := loadAndRun(cfg, fmt.Sprintf("readamp-%dmb", mb), opts, cfg.phase(ycsb.WorkloadC, records, reads))
		if err != nil {
			return err
		}
		ra := d.Metrics().ReadAmp
		row := readAmpRow{
			PCacheMB:         mb,
			Kops:             float64(reads) / r.Dur.Seconds() / 1000,
			ProfiledGets:     ra.ProfiledGets,
			TablesPerGet:     ra.TablesPerGet(),
			BlocksPerGet:     ra.BlocksPerGet(),
			BloomTNRate:      ra.BloomTrueNegativeRate(),
			BlockCacheBlocks: ra.Blocks[readprof.TierBlockCache],
			PCacheBlocks:     ra.Blocks[readprof.TierPCache],
			LocalBlocks:      ra.Blocks[readprof.TierLocal],
			CloudBlocks:      ra.Blocks[readprof.TierCloud],
			CloudFetchMicros: ra.FetchNanos[readprof.TierCloud] / 1000,
		}
		rows = append(rows, row)
		fmt.Fprintf(w, "%-9s %8.2f %10.2f %10.2f %8.3f %11d %9d %9d %9d\n",
			fmt.Sprintf("%dMB", mb), row.Kops, row.TablesPerGet, row.BlocksPerGet,
			row.BloomTNRate, row.BlockCacheBlocks, row.PCacheBlocks,
			row.LocalBlocks, row.CloudBlocks)
		if err := d.Close(); err != nil {
			return err
		}
	}

	path := filepath.Join(cfg.BaseDir, "readamp.json")
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "artifact: %s\n", path)
	return nil
}
