// Command mashctl inspects an existing store without opening it for
// writing: the level layout and tier placement (manifest), individual
// SSTables, WAL segments, persistent-cache state, and the simulated cloud
// bill.
//
// Usage:
//
//	mashctl manifest -db /path/to/db
//	mashctl sst      -db /path/to/db -num 7
//	mashctl wal      -db /path/to/db
//	mashctl pcache   -db /path/to/db
//	mashctl cost     -db /path/to/db
//	mashctl verify   -db /path/to/db   # checksum-audit tables, sidecars, WAL
//	mashctl scrub    -db /path/to/db   # open the store and run a repairing scrub
//	mashctl trace    -f trace.jsonl    # summarize an engine event trace
//	mashctl profile  -addr host:port   # read-path attribution from a live /debug/vars
//	mashctl profile  -f trace.jsonl    # slow-read records captured in a trace
//	mashctl top      -addr host:port   # live refreshing dashboard from /vitals
//	mashctl top      -addr host:port -json  # one /vitals report as JSON and exit
//	mashctl doctor   /path/to/bundle   # ranked offline diagnosis of an incident bundle
package main

import (
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"rocksmash/internal/db"
	"rocksmash/internal/keys"
	"rocksmash/internal/manifest"
	"rocksmash/internal/pcache"
	"rocksmash/internal/sstable"
	"rocksmash/internal/storage"
	"rocksmash/internal/wal"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	dbDir := fs.String("db", "", "database directory (as passed to Open)")
	num := fs.Uint64("num", 0, "table file number (sst command)")
	traceFile := fs.String("f", "", "trace file to summarize (trace/profile commands; default <db>/trace.jsonl)")
	top := fs.Int("top", 10, "number of slowest events to list (trace/profile commands)")
	addr := fs.String("addr", "", "live metrics endpoint to scrape (top/profile commands, e.g. 127.0.0.1:8080)")
	interval := fs.Duration("interval", time.Second, "dashboard refresh period (top command)")
	iters := fs.Int("n", 0, "number of dashboard refreshes, 0 = until interrupted (top command)")
	once := fs.Bool("once", false, "render a single dashboard frame and exit (top command)")
	jsonOut := fs.Bool("json", false, "emit one machine-readable /vitals report and exit; implies -once (top command)")
	fs.Parse(os.Args[2:])

	switch cmd {
	case "doctor":
		// The bundle is self-contained: no -db, no live endpoint.
		check(cmdDoctor(os.Stdout, fs.Arg(0)))
		return
	case "top":
		check(cmdTop(*addr, *interval, *iters, *once, *jsonOut))
		return
	case "profile":
		path := *traceFile
		if path == "" && *addr == "" && *dbDir != "" {
			path = filepath.Join(*dbDir, "trace.jsonl")
		}
		check(cmdProfile(os.Stdout, *addr, path, *top))
		return
	}

	if cmd == "trace" {
		// The trace file is self-contained; -db is only a default location.
		path := *traceFile
		if path == "" {
			if *dbDir == "" {
				fatal(errors.New("trace: -f (or -db) is required"))
			}
			path = filepath.Join(*dbDir, "trace.jsonl")
		}
		check(cmdTrace(os.Stdout, path, *top))
		return
	}
	if *dbDir == "" {
		fatal(errors.New("-db is required"))
	}

	local, err := storage.NewLocal(filepath.Join(*dbDir, "local"))
	if err != nil {
		fatal(err)
	}

	// A store opened with Options.Shards > 1 keeps each sub-LSM's
	// manifest, WAL, and tables under a shard-NNN/ prefix; route the
	// per-shard commands through the same prefixes Open uses.
	shards := shardCount(local)

	switch cmd {
	case "manifest":
		eachShard(local, shards, func(sh storage.Backend, _ string) {
			cmdManifest(sh)
		})
	case "sst":
		prefix := ""
		if shards > 1 && *num > 0 {
			// File numbers are striped across shards: shard = num mod N.
			prefix = shardPrefix(int(*num % uint64(shards)))
		}
		cmdSST(*dbDir, storage.NewPrefix(local, prefix), *num, prefix)
	case "wal":
		eachShard(local, shards, func(sh storage.Backend, _ string) {
			cmdWAL(sh)
		})
	case "pcache":
		check(cmdPCache(os.Stdout, *dbDir))
	case "cost":
		cmdCost(*dbDir)
	case "verify":
		var rep verifyReport
		eachShard(local, shards, func(sh storage.Backend, prefix string) {
			rep.merge(verifyStore(*dbDir, sh, prefix))
		})
		fmt.Printf("verified %d tables (%d blocks), %d sidecars, %d wal segments\n",
			rep.tables, rep.blocks, rep.sidecars, rep.walSegments)
		unrepaired := rep.badTables + rep.badSidecars + rep.badWAL
		fmt.Printf("unrepaired damage: tables=%d sidecars=%d wal=%d (wal restored from backup: %d)\n",
			rep.badTables, rep.badSidecars, rep.badWAL, rep.walRepaired)
		if unrepaired > 0 {
			os.Exit(1)
		}
	case "scrub":
		cmdScrub(*dbDir, local, shards)
	default:
		usage()
	}
}

// shardCount reads the root SHARDS marker; 1 means an unsharded store.
func shardCount(local storage.Backend) int {
	data, err := local.ReadAll("SHARDS")
	if err != nil {
		return 1
	}
	n, err := strconv.Atoi(strings.TrimSpace(string(data)))
	if err != nil || n < 1 {
		return 1
	}
	return n
}

func shardPrefix(i int) string { return fmt.Sprintf("shard-%03d/", i) }

// eachShard runs fn once per sub-LSM (with a per-shard header when the
// store is sharded), or once with the root backend when it is not.
func eachShard(local storage.Backend, shards int, fn func(sh storage.Backend, prefix string)) {
	if shards <= 1 {
		fn(local, "")
		return
	}
	for i := 0; i < shards; i++ {
		p := shardPrefix(i)
		fmt.Printf("== shard %d/%d ==\n", i, shards)
		fn(storage.NewPrefix(local, p), p)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: mashctl {manifest|sst|wal|pcache|cost|verify|scrub|trace|profile|top|doctor} -db DIR [-num N] [-f TRACE] [-top N] [-addr HOST:PORT] [-interval D] [-n N] [-once] [-json]")
	fmt.Fprintln(os.Stderr, "       mashctl doctor BUNDLE-DIR   # offline diagnosis of a flight-recorder incident bundle")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mashctl:", err)
	os.Exit(1)
}

// check exits through fatal on a non-nil err.
func check(err error) {
	if err != nil {
		fatal(err)
	}
}

func cmdManifest(local storage.Backend) {
	v, nextNum, lastSeq, flushedSeq, err := manifest.Peek(local)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("nextFileNum=%d lastSeq=%d flushedSeq=%d files=%d\n",
		nextNum, lastSeq, flushedSeq, v.NumFiles())
	for l := 0; l < manifest.NumLevels; l++ {
		if len(v.Levels[l]) == 0 {
			continue
		}
		fmt.Printf("L%d (%d files, %d bytes):\n", l, len(v.Levels[l]), v.LevelSize(l))
		for _, f := range v.Levels[l] {
			fmt.Printf("  %s seq=[%d,%d]\n", f, f.MinSeq, f.MaxSeq)
		}
	}
}

func cmdSST(dbDir string, local storage.Backend, num uint64, prefix string) {
	if num == 0 {
		fatal(errors.New("sst: -num is required"))
	}
	name := manifest.TableName(num)
	f, err := local.Open(name)
	if errors.Is(err, storage.ErrNotFound) {
		cloud, cerr := storage.NewCloud(filepath.Join(dbDir, "cloud"), storage.NoLatency(), storage.DefaultCost())
		if cerr != nil {
			fatal(cerr)
		}
		f, err = storage.NewPrefix(cloud, prefix).Open(name)
	}
	if err != nil {
		fatal(err)
	}
	r, err := sstable.Open(f, num)
	if err != nil {
		fatal(err)
	}
	defer r.Close()
	p := r.Properties()
	fmt.Printf("table #%d\n  entries=%d deletes=%d rawKeys=%dB rawVals=%dB\n",
		num, p.NumEntries, p.NumDeletes, p.RawKeyBytes, p.RawValBytes)
	fmt.Printf("  keys %q .. %q  seq=[%d,%d]\n",
		keys.UserKey(p.Smallest), keys.UserKey(p.Largest), p.MinSeq, p.MaxSeq)
	fmt.Printf("  dataBlocks=%d pinnedMetadata=%dB\n", len(r.DataHandles()), r.MetadataBytes())
}

func cmdWAL(local storage.Backend) {
	m, err := wal.Open(local, wal.DefaultOptions(), 1)
	if err != nil {
		fatal(err)
	}
	segs := m.Segments()
	fmt.Printf("%d WAL segment(s)\n", len(segs))
	for _, s := range segs {
		state := "active/unsealed"
		if s.Closed {
			state = "closed"
		}
		fmt.Printf("  %s  %8dB  seq=[%d,%d]  %s\n",
			wal.SegmentName("wal", s.Num), s.Bytes, s.MinSeq, s.MaxSeq, state)
	}
}

// cmdPCache summarizes the persistent cache's INDEX snapshot in the geometry
// it records. It only reads: the store's next Open finds the cache as warm
// as it was.
func cmdPCache(w io.Writer, dbDir string) error {
	s, err := pcache.Inspect(filepath.Join(dbDir, "pcache"))
	if errors.Is(err, fs.ErrNotExist) {
		s, err = "pcache: no index snapshot (store open, not closed cleanly, or no packed cache): the next open starts cold", nil
	}
	if err == nil {
		_, err = fmt.Fprintln(w, s)
	}
	return err
}

func cmdCost(dbDir string) {
	cloud, err := storage.NewCloud(filepath.Join(dbDir, "cloud"), storage.NoLatency(), storage.DefaultCost())
	if err != nil {
		fatal(err)
	}
	fmt.Println("note: request/egress counters reset per process; capacity is authoritative")
	fmt.Println(cloud.CostReport())
}

// verifyReport is the per-artifact outcome of one offline verification
// pass: how many artifacts of each class were checked and how many carry
// damage no backup could fix.
type verifyReport struct {
	tables, blocks, sidecars, walSegments int
	badTables, badSidecars, badWAL        int
	walRepaired                           int
}

func (r *verifyReport) merge(o verifyReport) {
	r.tables += o.tables
	r.blocks += o.blocks
	r.sidecars += o.sidecars
	r.walSegments += o.walSegments
	r.badTables += o.badTables
	r.badSidecars += o.badSidecars
	r.badWAL += o.badWAL
	r.walRepaired += o.walRepaired
}

// tailOnlyFile backs a metadata-only sstable open: the sidecar holds just
// the table's metadata tail, so any read below it returns EOF.
type tailOnlyFile struct{ size int64 }

func (f tailOnlyFile) ReadAt([]byte, int64) (int, error) { return 0, io.EOF }
func (f tailOnlyFile) Size() int64                       { return f.size }
func (f tailOnlyFile) Close() error                      { return nil }

// verifyStore walks every local artifact of one (sub-)store — live tables
// on both tiers, metadata sidecars, sealed WAL segments — and verifies
// every checksum end to end. prefix selects the same shard subtree on the
// cloud tier that local already points at. WAL segments with a clean
// cloud-backup copy are restored in place; everything else only reports.
func verifyStore(dbDir string, local storage.Backend, prefix string) verifyReport {
	var rep verifyReport
	v, _, _, _, err := manifest.Peek(local)
	if err != nil {
		fatal(err)
	}
	rawCloud, err := storage.NewCloud(filepath.Join(dbDir, "cloud"), storage.NoLatency(), storage.DefaultCost())
	if err != nil {
		fatal(err)
	}
	cloud := storage.NewPrefix(rawCloud, prefix)
	v.AllFiles(func(level int, fm *manifest.FileMetadata) {
		var be storage.Backend = local
		if fm.Tier == storage.TierCloud {
			be = cloud
			if !verifySidecarFile(local, fm.Num, &rep) {
				fmt.Printf("  L%d %s: SIDECAR CORRUPT (delete meta/%06d.meta to rebuild from cloud)\n",
					level, fm, fm.Num)
			}
		}
		bad := 0
		f, err := be.Open(manifest.TableName(fm.Num))
		if err != nil {
			fmt.Printf("  L%d %s: OPEN FAILED: %v\n", level, fm, err)
			rep.badTables++
			return
		}
		r, err := sstable.Open(f, fm.Num)
		if err != nil {
			fmt.Printf("  L%d %s: METADATA CORRUPT: %v\n", level, fm, err)
			f.Close()
			rep.badTables++
			return
		}
		for _, h := range r.DataHandles() {
			if _, err := sstable.ReadRawBlock(r.File(), h); err != nil {
				fmt.Printf("  L%d %s block@%d: %v\n", level, fm, h.Offset, err)
				bad++
			}
			rep.blocks++
		}
		r.Close()
		rep.tables++
		if bad > 0 {
			rep.badTables++
		}
	})

	// Sealed WAL segments: record-checksum walk with backup-tier restore,
	// the same pass the engine's own scrubber runs.
	wopts := wal.DefaultOptions()
	wopts.Backup = cloud
	if m, err := wal.Open(local, wopts, 1); err == nil {
		checked, corrupt, repaired := m.Scrub()
		rep.walSegments += checked
		rep.badWAL += corrupt - repaired
		rep.walRepaired += repaired
	}
	return rep
}

// verifySidecarFile structurally validates a cloud-tier table's local
// metadata sidecar, when one is cached. Returns false only for a present
// but corrupt sidecar.
func verifySidecarFile(local storage.Backend, num uint64, rep *verifyReport) bool {
	buf, err := local.ReadAll(fmt.Sprintf("meta/%06d.meta", num))
	if err != nil {
		return true // none cached; the next open rebuilds it from the cloud tail
	}
	rep.sidecars++
	ok := false
	if len(buf) >= 8 {
		tailOff := binary.LittleEndian.Uint64(buf)
		tail := buf[8:]
		f := tailOnlyFile{int64(tailOff) + int64(len(tail))}
		if r, err := sstable.Open(sstable.NewTailReader(f, int64(tailOff), tail), num); err == nil {
			r.Close()
			ok = true
		}
	}
	if !ok {
		rep.badSidecars++
	}
	return ok
}

// cmdScrub opens the store read-write and runs one repairing scrub pass:
// corrupt local tables are re-materialized from their cloud copies,
// damaged sidecars dropped for rebuild, WAL segments restored from backup.
// Exits nonzero when damage survives the pass.
func cmdScrub(dbDir string, local storage.Backend, shards int) {
	opts := db.DefaultOptions()
	opts.Shards = shards
	d, err := db.OpenAt(dbDir, opts)
	if err != nil {
		fatal(err)
	}
	rep := d.Scrub()
	m := d.Metrics()
	if err := d.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("scrubbed %d artifacts: %d tables, %d sidecars, %d wal segments\n",
		rep.Checked, rep.Tables, rep.Sidecars, rep.WALSegments)
	fmt.Printf("corrupt=%d repaired=%d unrepaired=%d quarantined=%d\n",
		rep.Corrupt, rep.Repaired, rep.Unrepaired, m.QuarantinedTables)
	if rep.Unrepaired > 0 {
		os.Exit(1)
	}
}
