package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"rocksmash/internal/db"
	"rocksmash/internal/readprof"
	"rocksmash/internal/ycsb"
)

func init() {
	register("fig-scan", "Range scans (ours): sorted views + pipelined cloud readahead", figScan)
}

// scanRow is the JSON artifact schema.
type scanRow struct {
	FullScanKeys    int64   `json:"full_scan_keys"`
	FullScanMkeys   float64 `json:"full_scan_mkeys_per_sec"`
	ShortScanOps    float64 `json:"short_scan_ops_per_sec"`
	IterKeys        int64   `json:"iter_keys"`
	IterBlocks      int64   `json:"iter_blocks"`
	CloudBlocks     int64   `json:"iter_cloud_blocks"`
	CloudPerKey     float64 `json:"cloud_blocks_per_scanned_key"`
	ReadaheadSpans  int64   `json:"readahead_spans"`
	ReadaheadBlocks int64   `json:"readahead_blocks"`
	ViewHits        int64   `json:"scan_view_hits"`
	ViewMisses      int64   `json:"scan_view_misses"`
}

// figScan measures the scan path on a cloud-resident tree (only L0 local):
// one full-table scan and a YCSB-E short-scan mix. Every level below L0 is
// one cursor run along its sorted view, and cloud fetches are exact
// pipelined span reads that bulk-admit into the caches, so the read
// profiler sees most blocks served from the block cache: the cloud
// blocks-per-scanned-key column is the per-key read amplification against
// cloud storage. The full scan builds each level's view (the misses column);
// the short scans ride them. The row lands in scan.json for plots.
func figScan(cfg Config) error {
	w := cfg.out()
	records := cfg.scale(30000)
	shortScans := cfg.scale(2000)

	opts := expOptions(db.PolicyMash)
	opts.LocalLevels = 1
	// Keep the caches much smaller than the dataset (even at -quick scale)
	// so the scans actually exercise the cloud tier instead of replaying the
	// load phase's cache admissions, and keep files small enough that the
	// load settles into a multi-table cloud level — the shape the view
	// exists for.
	opts.BlockCacheBytes = 512 << 10
	opts.PCacheBytes = 2 << 20
	opts.MemtableBytes = 256 << 10
	opts.TargetFileBytes = 256 << 10
	d, err := openExp(cfg, "scan", opts)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := loadRecords(d, records); err != nil {
		return err
	}

	// Full-table scan: First → Next until exhausted.
	var keys int64
	start := time.Now()
	it, err := d.NewIterator()
	if err != nil {
		return err
	}
	for it.First(); it.Valid(); it.Next() {
		keys++
	}
	if err := it.Close(); err != nil {
		return err
	}
	fullDur := time.Since(start)

	// YCSB E: 95% short scans (zipfian start key, uniform length),
	// 5% inserts.
	short, err := cfg.phase(ycsb.WorkloadE, records, shortScans).Run(d)
	if err != nil {
		return err
	}

	m := d.Metrics()
	var iterBlocks int64
	for _, b := range m.ReadAmp.IterBlocks {
		iterBlocks += b
	}
	row := scanRow{
		FullScanKeys:    keys,
		FullScanMkeys:   float64(keys) / fullDur.Seconds() / 1e6,
		ShortScanOps:    float64(shortScans) / short.Dur.Seconds(),
		IterKeys:        m.IterKeys,
		IterBlocks:      iterBlocks,
		CloudBlocks:     m.ReadAmp.IterBlocks[readprof.TierCloud],
		ReadaheadSpans:  m.ReadaheadSpans,
		ReadaheadBlocks: m.ReadaheadBlocks,
		ViewHits:        m.ScanViewHits,
		ViewMisses:      m.ScanViewMisses,
	}
	if m.IterKeys > 0 {
		row.CloudPerKey = float64(row.CloudBlocks) / float64(m.IterKeys)
	}
	fmt.Fprintf(w, "%12s %14s %15s %12s %9s %10s %10s\n",
		"fullMkeys/s", "shortScans/s", "cloudBlks/key", "cloudBlks", "raSpans", "viewHits", "viewMiss")
	fmt.Fprintf(w, "%12.3f %14.1f %15.4f %12d %9d %10d %10d\n",
		row.FullScanMkeys, row.ShortScanOps, row.CloudPerKey,
		row.CloudBlocks, row.ReadaheadSpans, row.ViewHits, row.ViewMisses)

	path := filepath.Join(cfg.BaseDir, "scan.json")
	data, err := json.MarshalIndent([]scanRow{row}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "artifact: %s\n", path)
	return d.Close()
}
