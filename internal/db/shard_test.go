package db

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rocksmash/internal/batch"
	"rocksmash/internal/event"
	"rocksmash/internal/retry"
	"rocksmash/internal/storage"
)

func shardTestOptions(p Policy, shards int) Options {
	o := testOptions(p)
	o.Shards = shards
	return o
}

func openShardTest(t *testing.T, p Policy, shards int) (*DB, string) {
	t.Helper()
	dir := t.TempDir()
	d, err := OpenAt(dir, shardTestOptions(p, shards))
	if err != nil {
		t.Fatal(err)
	}
	return d, dir
}

func TestShardedBasic(t *testing.T) {
	d, dir := openShardTest(t, PolicyMash, 4)

	const n = 2000
	for i := 0; i < n; i++ {
		mustPut(t, d, fmt.Sprintf("key%06d", i), fmt.Sprintf("val%06d", i))
	}
	for i := 0; i < n; i += 3 {
		if err := d.Delete([]byte(fmt.Sprintf("key%06d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}
	verify := func(d *DB, label string) {
		t.Helper()
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("key%06d", i)
			v, err := d.Get([]byte(k))
			if i%3 == 0 {
				if err != ErrNotFound {
					t.Fatalf("%s: deleted %s: got %v", label, k, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: %s: %v", label, k, err)
			}
			if want := fmt.Sprintf("val%06d", i); string(v) != want {
				t.Fatalf("%s: %s = %q want %q", label, k, v, want)
			}
		}
	}
	verify(d, "live")

	// Per-shard attribution: every shard must have seen a fair slice of the
	// hashed keyspace.
	m := d.Metrics()
	if len(m.Shards) != 4 {
		t.Fatalf("Metrics().Shards has %d entries, want 4", len(m.Shards))
	}
	var writes int64
	for _, s := range m.Shards {
		writes += s.Writes
		if s.Writes < int64(n)/16 {
			t.Fatalf("shard %d underloaded: %d writes of %d", s.Shard, s.Writes, n)
		}
	}
	if writes != m.Writes {
		t.Fatalf("shard writes sum %d != aggregate %d", writes, m.Writes)
	}
	if !strings.Contains(d.DumpStats(), "** Shards **") {
		t.Fatal("DumpStats missing the Shards section")
	}

	// Clean reopen: marker verified, all shards recover.
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenAt(dir, shardTestOptions(PolicyMash, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	verify(d2, "reopened")
}

// TestShardedMatchesUnsharded drives the same operation trace into a
// 1-shard and a 4-shard store and requires byte-identical contents: full
// forward scan, full reverse scan, and point reads all agree.
func TestShardedMatchesUnsharded(t *testing.T) {
	one, _ := openShardTest(t, PolicyMash, 1)
	defer one.Close()
	four, _ := openShardTest(t, PolicyMash, 4)
	defer four.Close()

	rng := rand.New(rand.NewSource(42))
	// splits counts the sub-batches the 4-engine store commits beyond the
	// batches the trace issues (one per extra engine a batch touches).
	splits := 0
	apply := func(d *DB) {
		t.Helper()
		r := rand.New(rand.NewSource(77))
		for step := 0; step < 4000; step++ {
			k := fmt.Sprintf("key%05d", r.Intn(800))
			switch r.Intn(10) {
			case 0:
				if err := d.Delete([]byte(k)); err != nil {
					t.Fatal(err)
				}
			case 1:
				b := batch.New()
				touched := map[int]bool{}
				for j := 0; j < 1+r.Intn(5); j++ {
					bk := []byte(fmt.Sprintf("key%05d", r.Intn(800)))
					b.Set(bk, []byte(fmt.Sprintf("b%d-%d", step, j)))
					touched[shardIndex(bk, 4)] = true
				}
				if d == four {
					splits += len(touched) - 1
				}
				if err := d.Write(b); err != nil {
					t.Fatal(err)
				}
			default:
				if err := d.Put([]byte(k), []byte(fmt.Sprintf("v%d", step))); err != nil {
					t.Fatal(err)
				}
			}
			if step%700 == 650 {
				if err := d.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := d.CompactAll(); err != nil {
			t.Fatal(err)
		}
	}
	apply(one)
	apply(four)

	dump := func(d *DB, reverse bool) []byte {
		t.Helper()
		it, err := d.NewIterator()
		if err != nil {
			t.Fatal(err)
		}
		defer it.Close()
		var buf bytes.Buffer
		if reverse {
			for it.Last(); it.Valid(); it.Prev() {
				fmt.Fprintf(&buf, "%s=%s\n", it.Key(), it.Value())
			}
		} else {
			for it.First(); it.Valid(); it.Next() {
				fmt.Fprintf(&buf, "%s=%s\n", it.Key(), it.Value())
			}
		}
		if it.Err() != nil {
			t.Fatal(it.Err())
		}
		return buf.Bytes()
	}
	if !bytes.Equal(dump(one, false), dump(four, false)) {
		t.Fatal("forward scans differ between 1-shard and 4-shard stores")
	}
	if !bytes.Equal(dump(one, true), dump(four, true)) {
		t.Fatal("reverse scans differ between 1-shard and 4-shard stores")
	}

	for trial := 0; trial < 300; trial++ {
		k := []byte(fmt.Sprintf("key%05d", rng.Intn(900)))
		v1, e1 := one.Get(k)
		v4, e4 := four.Get(k)
		if (e1 == nil) != (e4 == nil) || !bytes.Equal(v1, v4) {
			t.Fatalf("Get(%s): unsharded (%q,%v) vs sharded (%q,%v)", k, v1, e1, v4, e4)
		}
	}

	// The same trace must add up to the same counters however many engines
	// served it. A batch split across engines carries one more batch header
	// per extra sub-batch; table bytes differ (four trees cut different
	// tables), so for those each store must reconcile with itself.
	m1, m4 := one.Metrics(), four.Metrics()
	if m1.Writes != m4.Writes || m1.Reads != m4.Reads || m1.IterKeys != m4.IterKeys {
		t.Errorf("counters differ: 1 engine writes=%d reads=%d iterKeys=%d, 4 engines writes=%d reads=%d iterKeys=%d",
			m1.Writes, m1.Reads, m1.IterKeys, m4.Writes, m4.Reads, m4.IterKeys)
	}
	if want := m1.BytesWritten + int64(splits*batch.New().Size()); m4.BytesWritten != want {
		t.Errorf("BytesWritten: 4 engines %d, want %d (1 engine %d + %d split headers)",
			m4.BytesWritten, want, m1.BytesWritten, splits)
	}
	if len(m1.Shards) != 0 || len(m4.Shards) != 4 {
		t.Errorf("Metrics().Shards has %d entries at 1 engine and %d at 4, want 0 and 4", len(m1.Shards), len(m4.Shards))
	}
	for _, m := range []Metrics{m1, m4} {
		var in, out, tables int64
		for _, lw := range m.LevelWriteAmp {
			in += lw.BytesInSource + lw.BytesInTarget
			out += lw.BytesOut
		}
		for _, b := range m.LevelBytes {
			tables += int64(b)
		}
		if m.FlushBytes == 0 || in != m.CompactBytesIn || out != m.CompactBytesOut || tables != m.LocalBytes+m.CloudBytes {
			t.Errorf("%d shards: flush=%d compact in=%d/%d out=%d/%d tables=%d/%d do not reconcile", len(m.Shards),
				m.FlushBytes, in, m.CompactBytesIn, out, m.CompactBytesOut, tables, m.LocalBytes+m.CloudBytes)
		}
	}
}

// TestShardedBreakerTripsOnce scripts one cloud outage against four
// engines: the store has one cloud breaker, so the outage is one trip in
// Metrics, one BreakerState event, and one user callback — not one per
// engine. The cooldown outlasts the test so no probe re-trips it.
func TestShardedBreakerTripsOnce(t *testing.T) {
	dir := t.TempDir()
	o := shardTestOptions(PolicyCloudOnly, 4)
	var userOpens atomic.Int64
	o.CloudBreaker = retry.BreakerConfig{
		Cooldown: time.Hour,
		OnStateChange: func(_, to retry.State) {
			if to == retry.StateOpen {
				userOpens.Add(1)
			}
		},
	}
	rec := &event.Recorder{}
	o.EventListener = rec
	local, err := storage.NewLocal(filepath.Join(dir, "local"))
	if err != nil {
		t.Fatal(err)
	}
	cloud, err := storage.NewCloud(filepath.Join(dir, "cloud"), o.CloudLatency, o.CloudCost)
	if err != nil {
		t.Fatal(err)
	}
	faulty := storage.NewFaulty(cloud, storage.FaultConfig{})
	o.pcacheDir = filepath.Join(dir, "pcache")
	d, err := Open(o, local, faulty)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	faulty.StartOutage(0)
	for i := 0; i < 400; i++ {
		mustPut(t, d, fmt.Sprintf("key%04d", i), pipelineValue(i))
	}
	if err := d.Flush(); err != nil {
		t.Fatalf("flush during outage must degrade, not fail: %v", err)
	}
	m := d.Metrics()
	if m.BreakerState != "open" || m.BreakerTrips != 1 {
		t.Fatalf("breaker %s after %d trips, want open after exactly 1", m.BreakerState, m.BreakerTrips)
	}
	if m.DegradedTables < 4 {
		t.Fatalf("%d degraded tables: the outage should have reached every engine's flush", m.DegradedTables)
	}
	if n := userOpens.Load(); n != 1 {
		t.Errorf("user OnStateChange saw %d opens, want 1", n)
	}
	events := 0
	for _, e := range rec.Events() {
		if bs, ok := e.Payload.(event.BreakerState); ok && bs.Tier == "cloud" && bs.To == "open" {
			events++
		}
	}
	if events != 1 {
		t.Errorf("listener saw %d cloud breaker-open events, want 1", events)
	}
}

// TestShardedIteratorDirectionSwitch exercises the facade merge's
// direction-switch repositioning against a sorted model.
func TestShardedIteratorDirectionSwitch(t *testing.T) {
	d, _ := openShardTest(t, PolicyLocalOnly, 4)
	defer d.Close()
	var sorted []string
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("key%04d", i)
		mustPut(t, d, k, "v")
		sorted = append(sorted, k)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	it, err := d.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()

	rng := rand.New(rand.NewSource(9))
	pos := -1 // index into sorted, -1 = unpositioned
	it.First()
	pos = 0
	for step := 0; step < 2000; step++ {
		switch rng.Intn(4) {
		case 0:
			it.Next()
			pos++
		case 1:
			it.Prev()
			pos--
		case 2:
			i := rng.Intn(len(sorted))
			it.Seek([]byte(sorted[i]))
			pos = i
		default:
			i := rng.Intn(len(sorted))
			it.SeekForPrev([]byte(sorted[i]))
			pos = i
		}
		if pos < 0 || pos >= len(sorted) {
			if it.Valid() {
				t.Fatalf("step %d: expected exhausted, at %q", step, it.Key())
			}
			// Re-establish a known position: a real iterator stays
			// exhausted until re-seeked, same as the single-LSM one.
			i := rng.Intn(len(sorted))
			it.Seek([]byte(sorted[i]))
			pos = i
		}
		if !it.Valid() || string(it.Key()) != sorted[pos] {
			t.Fatalf("step %d: at %q (valid=%v), want %q", step, it.Key(), it.Valid(), sorted[pos])
		}
	}
}

// TestShardedSnapshotConsistency pins a snapshot while writes continue on
// every shard: the snapshot must keep showing the captured state, because
// the shared sequence source gives all shards one visibility watermark.
func TestShardedSnapshotConsistency(t *testing.T) {
	d, _ := openShardTest(t, PolicyMash, 4)
	defer d.Close()

	model := map[string]string{}
	for i := 0; i < 600; i++ {
		k := fmt.Sprintf("key%04d", i)
		v := fmt.Sprintf("gen0-%d", i)
		mustPut(t, d, k, v)
		model[k] = v
	}
	snap := d.GetSnapshot()
	defer snap.Release()

	// Overwrite everything and churn the physical layout.
	for i := 0; i < 600; i++ {
		mustPut(t, d, fmt.Sprintf("key%04d", i), fmt.Sprintf("gen1-%d", i))
	}
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}

	for k, want := range model {
		got, err := snap.Get([]byte(k))
		if err != nil {
			t.Fatalf("snapshot Get(%s): %v", k, err)
		}
		if string(got) != want {
			t.Fatalf("snapshot Get(%s) = %q want %q", k, got, want)
		}
	}
	it, err := snap.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	seen := 0
	for it.First(); it.Valid(); it.Next() {
		if model[string(it.Key())] != string(it.Value()) {
			t.Fatalf("snapshot iterator: %s = %q want %q", it.Key(), it.Value(), model[string(it.Key())])
		}
		seen++
	}
	if seen != len(model) {
		t.Fatalf("snapshot iterator saw %d keys, want %d", seen, len(model))
	}
}

// TestShardedCrashPointRecovery is the crash-point sweep over a 4-shard
// store: storage dies at a random operation index, the store crashes, and
// every acknowledged write must survive the (concurrent, per-shard) WAL
// replay at reopen.
func TestShardedCrashPointRecovery(t *testing.T) {
	seeds := 30
	if testing.Short() {
		seeds = 6
	}
	for seed := 0; seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%03d", seed), func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			rng := rand.New(rand.NewSource(int64(seed)*6151 + 11))
			crashAt := int64(10 + rng.Intn(500))

			o := crashOptions(dir)
			o.Shards = 4
			local, err := storage.NewLocal(filepath.Join(dir, "local"))
			if err != nil {
				t.Fatal(err)
			}
			cloud, err := storage.NewCloud(filepath.Join(dir, "cloud"), o.CloudLatency, o.CloudCost)
			if err != nil {
				t.Fatal(err)
			}
			fl := storage.NewFaulty(local, storage.FaultConfig{})
			fc := storage.NewFaulty(cloud, storage.FaultConfig{})
			var ops atomic.Int64
			dead := func(op, name string) error {
				if ops.Add(1) > crashAt {
					return errors.New("crash point reached")
				}
				return nil
			}
			fl.SetHook(dead)
			fc.SetHook(dead)

			acked := map[string]string{}
			d, err := Open(o, fl, fc)
			if err == nil {
				for i := 0; i < 400; i++ {
					k := fmt.Sprintf("k%04d", i)
					v := fmt.Sprintf("value-%04d", i)
					if perr := d.Put([]byte(k), []byte(v)); perr != nil {
						break
					}
					acked[k] = v
					if i%41 == 40 {
						if ferr := d.Flush(); ferr != nil {
							break
						}
					}
				}
				d.Crash()
			}

			local2, err := storage.NewLocal(filepath.Join(dir, "local"))
			if err != nil {
				t.Fatal(err)
			}
			cloud2, err := storage.NewCloud(filepath.Join(dir, "cloud"), o.CloudLatency, o.CloudCost)
			if err != nil {
				t.Fatal(err)
			}
			o2 := crashOptions(dir)
			o2.Shards = 4
			d2, err := Open(o2, local2, cloud2)
			if err != nil {
				t.Fatalf("crashAt=%d acked=%d: reopen after crash: %v", crashAt, len(acked), err)
			}
			defer d2.Close()
			for k, v := range acked {
				got, gerr := d2.Get([]byte(k))
				if gerr != nil {
					t.Fatalf("crashAt=%d: acked key %s lost: %v", crashAt, k, gerr)
				}
				if string(got) != v {
					t.Fatalf("crashAt=%d: acked key %s corrupted", crashAt, k)
				}
			}
		})
	}
}

func TestShardMarkerMismatch(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenAt(dir, shardTestOptions(PolicyLocalOnly, 2))
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, d, "a", "1")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := OpenAt(dir, shardTestOptions(PolicyLocalOnly, 3)); err == nil {
		t.Fatal("reopening a 2-shard store with Shards=3 must fail")
	}
	if _, err := OpenAt(dir, shardTestOptions(PolicyLocalOnly, 1)); err == nil {
		t.Fatal("reopening a 2-shard store unsharded must fail")
	}
	d2, err := OpenAt(dir, shardTestOptions(PolicyLocalOnly, 2))
	if err != nil {
		t.Fatalf("reopening with the recorded shard count: %v", err)
	}
	defer d2.Close()
	if v, err := d2.Get([]byte("a")); err != nil || string(v) != "1" {
		t.Fatalf("Get(a) = %q, %v", v, err)
	}
}

// TestShardingRejectsExistingUnshardedStore also pins what "unsharded"
// means now that one engine is the Shards:1 case of the sharded path: the
// layout and the stats surfaces of a store that predates sharding.
func TestShardingRejectsExistingUnshardedStore(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenAt(dir, testOptions(PolicyMash))
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, d, "a", "1")
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}
	mustGet(t, d, "a", "1")

	if n := len(d.Metrics().Shards); n != 0 {
		t.Errorf("Metrics().Shards has %d entries on a one-engine store, want none", n)
	}
	var sections []string
	for _, line := range strings.Split(d.DumpStats(), "\n") {
		if strings.HasPrefix(line, "** DB Stats (") {
			line = "** DB Stats **" // the header carries uptime and interval
		}
		if strings.HasPrefix(line, "** ") {
			sections = append(sections, strings.Trim(line, "* "))
		}
	}
	if got, want := strings.Join(sections, "|"),
		"DB Stats|Level Shape|Flush & Compaction|Robustness|Latency (cumulative)|Caches|Read Path|Storage I/O"; got != want {
		t.Errorf("one-engine DumpStats sections:\n got %s\nwant %s", got, want)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Root-level manifest, WAL and tables; no shard marker, no shard prefix.
	for _, tier := range []string{"local", "cloud"} {
		be, err := storage.NewLocal(filepath.Join(dir, tier))
		if err != nil {
			t.Fatal(err)
		}
		names, err := be.List("")
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, n := range names {
			if n == shardMarkerName || strings.HasPrefix(n, "shard-") {
				t.Errorf("%s tier of a one-engine store holds %s", tier, n)
			}
			seen[strings.SplitN(n, "/", 2)[0]] = true
		}
		if tier == "local" && !(seen["CURRENT"] && seen["wal"] && seen["sst"]) {
			t.Errorf("local tier root lacks CURRENT, wal/ or sst/: %v", names)
		}
	}
	if _, err := OpenAt(dir, shardTestOptions(PolicyLocalOnly, 4)); err == nil {
		t.Fatal("opening an existing unsharded store with Shards=4 must fail")
	}
	// The original layout still opens.
	d2, err := OpenAt(dir, testOptions(PolicyLocalOnly))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if v, err := d2.Get([]byte("a")); err != nil || string(v) != "1" {
		t.Fatalf("Get(a) = %q, %v", v, err)
	}
}

func TestShardedCrossShardBatch(t *testing.T) {
	d, _ := openShardTest(t, PolicyLocalOnly, 4)
	defer d.Close()

	b := batch.New()
	for i := 0; i < 200; i++ {
		b.Set([]byte(fmt.Sprintf("batch%05d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	if err := d.Write(b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("batch%05d", i)
		v, err := d.Get([]byte(k))
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if want := fmt.Sprintf("v%d", i); string(v) != want {
			t.Fatalf("%s = %q want %q", k, v, want)
		}
	}

	// Mixed sets and cross-shard deletes in one batch.
	b2 := batch.New()
	for i := 0; i < 200; i += 2 {
		b2.Delete([]byte(fmt.Sprintf("batch%05d", i)))
	}
	if err := d.Write(b2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		_, err := d.Get([]byte(fmt.Sprintf("batch%05d", i)))
		if i%2 == 0 && err != ErrNotFound {
			t.Fatalf("deleted batch%05d still readable (%v)", i, err)
		}
		if i%2 == 1 && err != nil {
			t.Fatalf("batch%05d: %v", i, err)
		}
	}
}

func TestShardedBackupRestore(t *testing.T) {
	d, _ := openShardTest(t, PolicyMash, 3)
	defer d.Close()
	for i := 0; i < 800; i++ {
		mustPut(t, d, fmt.Sprintf("key%05d", i), fmt.Sprintf("val%05d", i))
	}
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}
	bdir := t.TempDir()
	if err := d.Backup(bdir); err != nil {
		t.Fatal(err)
	}

	o := shardTestOptions(PolicyMash, 3)
	o.pcacheDir = filepath.Join(bdir, "pcache")
	local, err := storage.NewLocal(filepath.Join(bdir, "local"))
	if err != nil {
		t.Fatal(err)
	}
	cloud, err := storage.NewCloud(filepath.Join(bdir, "cloud"), o.CloudLatency, o.CloudCost)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(o, local, cloud)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 800; i++ {
		k := fmt.Sprintf("key%05d", i)
		v, err := r.Get([]byte(k))
		if err != nil {
			t.Fatalf("restored %s: %v", k, err)
		}
		if want := fmt.Sprintf("val%05d", i); string(v) != want {
			t.Fatalf("restored %s = %q want %q", k, v, want)
		}
	}
}
