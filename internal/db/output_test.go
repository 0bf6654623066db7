package db

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"rocksmash/internal/keys"
	"rocksmash/internal/manifest"
	"rocksmash/internal/memtable"
	"rocksmash/internal/sstable"
	"rocksmash/internal/storage"
)

// sinkEngine opens a store whose tiers are Faulty decorators and returns its
// engine, for driving a tableSink directly. Nothing is written, so nothing
// runs in the background.
func sinkEngine(t *testing.T, o Options) (*engine, *storage.Faulty, *storage.Faulty) {
	t.Helper()
	d, lf, cf, err := OpenAtChaosLocal(t.TempDir(), o, storage.FaultConfig{}, storage.FaultConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d.engines[0], lf, cf
}

// sinkKey is the internal key of version seq of user key i.
func sinkKey(prefix string, i int, seq uint64) []byte {
	return keys.MakeInternalKey(nil, []byte(fmt.Sprintf("%s%06d", prefix, i)), seq, keys.KindSet)
}

// tableEntries returns the internal keys a built table holds, in order.
func tableEntries(t *testing.T, bt *builtTable) [][]byte {
	t.Helper()
	r, err := sstable.Open(bytesReader{bt.data}, bt.meta.Num)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var out [][]byte
	it := r.NewIter()
	for it.First(); it.Valid(); it.Next() {
		out = append(out, append([]byte(nil), it.Key()...))
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// checkOutputs checks that outs are ordered and disjoint by user key, hold
// want entries between them, and, when target > 0, that every one but the
// last reached the target.
func checkOutputs(t *testing.T, outs []*builtTable, target int64, want int) {
	t.Helper()
	n := 0
	for i, o := range outs {
		n += len(tableEntries(t, o))
		if i > 0 && bytes.Compare(keys.UserKey(outs[i-1].meta.Largest), keys.UserKey(o.meta.Smallest)) >= 0 {
			t.Errorf("tables %d and %d overlap: %q >= %q", i-1, i, outs[i-1].meta.Largest, o.meta.Smallest)
		}
		if target > 0 && i < len(outs)-1 && int64(o.meta.Size) < target {
			t.Errorf("table %d of %d is %d bytes, under the %d-byte target", i, len(outs), o.meta.Size, target)
		}
	}
	if n != want {
		t.Errorf("tables hold %d entries, want %d", n, want)
	}
}

// TestTableSinkCutsPastTarget feeds a sink many small keys. At a target it
// must cut them into several tables, each past the target but the last; at
// a target of 0 into one. Either way the tables are ordered, disjoint and
// landed on the sink's tier.
func TestTableSinkCutsPastTarget(t *testing.T) {
	e, lf, _ := sinkEngine(t, testOptions(PolicyLocalOnly))
	const n = 2000
	for _, target := range []int64{8 << 10, 0} {
		s := e.newTableSink(storage.TierLocal, target, n*100, false)
		for i := 0; i < n; i++ {
			if err := s.add(sinkKey("k", i, uint64(i+1)), []byte(pipelineValue(i))); err != nil {
				t.Fatal(err)
			}
		}
		outs, err := s.finish()
		if err != nil {
			t.Fatal(err)
		}
		if target > 0 && len(outs) < 3 || target == 0 && len(outs) != 1 {
			t.Fatalf("%d tables from %d keys at a %d-byte target", len(outs), n, target)
		}
		checkOutputs(t, outs, target, n)
		for _, o := range outs {
			if _, err := lf.Size(manifest.TableName(o.meta.Num)); err != nil || o.meta.Tier != storage.TierLocal {
				t.Errorf("table %d on %s: %v", o.meta.Num, o.meta.Tier, err)
			}
		}
	}
}

// TestTableSinkKeepsUserKeyInOneTable straddles the target with a key of
// many versions: all of them must land in one table.
func TestTableSinkKeepsUserKeyInOneTable(t *testing.T) {
	e, _, _ := sinkEngine(t, testOptions(PolicyLocalOnly))
	const target, versions = 8 << 10, 200
	s := e.newTableSink(storage.TierLocal, target, 1<<20, false)
	add := func(ik []byte) {
		t.Helper()
		if err := s.add(ik, []byte("value-of-some-forty-bytes-for-each-one")); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	for ; s.b == nil || int64(s.b.EstimatedSize()) < target-1<<10; n++ {
		add(sinkKey("a", n, 1))
	}
	for v := versions; v > 0; v-- {
		add(sinkKey("m", 0, uint64(v)))
	}
	for i := 0; i < 100; i++ {
		add(sinkKey("z", i, 1))
	}
	outs, err := s.finish()
	if err != nil {
		t.Fatal(err)
	}
	checkOutputs(t, outs, target, n+versions+100)
	straddle := []byte("m000000")
	for i, o := range outs {
		var got int
		for _, ik := range tableEntries(t, o) {
			if bytes.Equal(keys.UserKey(ik), straddle) {
				got++
			}
		}
		if got != 0 && got != versions {
			t.Fatalf("table %d holds %d of the %d versions of %s", i, got, versions, straddle)
		}
		if got == versions && int64(o.meta.Size) < target {
			t.Fatalf("the versions did not straddle the target: their table is %d bytes", o.meta.Size)
		}
	}
}

// TestTableSinkAbortRemovesLanded fails the PUT of one of a sink's tables on
// both tiers: finish must report it, and abort must leave neither tier with
// a table object or a sidecar of the job.
func TestTableSinkAbortRemovesLanded(t *testing.T) {
	o := testOptions(PolicyCloudOnly)
	o.CloudBreaker.FailureThreshold = 100
	o.LocalBreaker.FailureThreshold = 100
	e, lf, cf := sinkEngine(t, o)
	const target, n, k = 8 << 10, 2000, 4
	victim := manifest.TableName(e.vs.PeekFileNum() + k - 1)
	fail := func(op, name string) error {
		if op == "PUT" && name == victim {
			return errors.New("injected PUT failure")
		}
		return nil
	}
	lf.SetHook(fail)
	cf.SetHook(fail)
	s := e.newTableSink(storage.TierCloud, target, n*100, false)
	var err error
	for i := 0; i < n && err == nil; i++ {
		err = s.add(sinkKey("k", i, uint64(i+1)), []byte(pipelineValue(i)))
	}
	if err == nil {
		_, err = s.finish()
	}
	if err == nil || !strings.Contains(err.Error(), "injected PUT failure") {
		t.Fatalf("sink with table %d failing on both tiers: err %v, want the PUT failure", k, err)
	}
	s.abort()
	waitFor(t, "aborted tables to be removed", 5*time.Second, func() bool {
		var left []string
		for _, l := range []struct {
			be     *storage.Faulty
			prefix string
		}{{cf, "sst/"}, {lf, "sst/"}, {lf, "meta/"}} {
			names, err := l.be.List(l.prefix)
			if err != nil {
				t.Fatal(err)
			}
			left = append(left, names...)
		}
		return len(left) == 0
	})
}

// TestTableWriterFitsTable checks the buffers the table sink takes for its
// tables from the store's free list: a flush's one table, hinted with its
// memtable's size, and a compaction's outputs, hinted with three targets'
// worth of input and cut at the target, each end in the buffer they took —
// one of the size class the sink's size falls in, or of that size when it
// falls in none — so building them never regrows (and re-zeroes) it.
func TestTableWriterFitsTable(t *testing.T) {
	o := DefaultOptions()
	o.Policy = PolicyLocalOnly
	e, _, _ := sinkEngine(t, o)
	const target = 1 << 20
	for _, valueLen := range []int{16, 100, 1000} {
		t.Run(fmt.Sprintf("value%d", valueLen), func(t *testing.T) {
			value := make([]byte, valueLen)
			key := func(i int) []byte { return []byte(fmt.Sprintf("key%021d", i)) }
			fits := func(what string, s *tableSink) {
				t.Helper()
				outs, err := s.finish()
				if err != nil {
					t.Fatal(err)
				}
				start := int(s.size)
				if c := e.bufs.class(start); c != nil {
					start = c.size
				}
				for i, out := range outs {
					if got := cap(out.data); got != start {
						t.Errorf("%s table %d of %d bytes regrew its buffer: cap %d -> %d", what, i, len(out.data), start, got)
					}
				}
			}

			// Flush: a memtable sealed at MemtableBytes.
			mem := memtable.New()
			for i := 0; mem.ApproximateSize() < target; i++ {
				mem.Add(uint64(i+1), keys.KindSet, key(i), value)
			}
			s := e.newTableSink(storage.TierLocal, 0, mem.ApproximateSize(), false)
			it := &memIter{}
			mem.InitIterator(&it.it)
			for it.First(); it.Valid(); it.Next() {
				if err := s.add(it.Key(), it.Value()); err != nil {
					t.Fatal(err)
				}
			}
			fits("flush", s)

			// Compaction: outputs cut at the first user key past the target.
			const input = 3 * target
			s = e.newTableSink(storage.TierLocal, target, input, false)
			for i, fed := 0, 0; fed < input; i++ {
				ik := keys.MakeInternalKey(nil, key(i), uint64(i+1), keys.KindSet)
				if err := s.add(ik, value); err != nil {
					t.Fatal(err)
				}
				fed += len(ik) + len(value)
			}
			fits("compaction", s)
		})
	}
}
