package db

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"rocksmash/internal/keys"
)

// sortedModel is the reference a scan is checked against: the live keys in
// order, with a cursor that moves the way Iterator does.
type sortedModel struct {
	keys []string
	kv   map[string]string
	pos  int // -1 or len(keys): not positioned
}

func newSortedModel(kv map[string]string) *sortedModel {
	m := &sortedModel{kv: kv, pos: -1}
	for k := range kv {
		m.keys = append(m.keys, k)
	}
	sort.Strings(m.keys)
	return m
}

func (m *sortedModel) valid() bool { return m.pos >= 0 && m.pos < len(m.keys) }
func (m *sortedModel) first()      { m.pos = 0 }
func (m *sortedModel) last()       { m.pos = len(m.keys) - 1 }
func (m *sortedModel) next()       { m.pos++ }
func (m *sortedModel) prev()       { m.pos-- }
func (m *sortedModel) seek(k string) {
	m.pos = sort.SearchStrings(m.keys, k)
}
func (m *sortedModel) seekForPrev(k string) {
	m.pos = sort.Search(len(m.keys), func(i int) bool { return m.keys[i] > k }) - 1
}

// TestScanViewMatchesModel loads a store with a randomized history of puts,
// deletes, flushes and compactions — a scan builds the views halfway, so
// the final CompactAll's installs splice them — and drives one iterator
// through a randomized trace of seeks, nexts, prevs and direction switches,
// checking position, key and value against a sorted in-memory model after
// every step. Runs unsharded and sharded.
func TestScanViewMatchesModel(t *testing.T) {
	for _, shards := range []int{1, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			t.Parallel()
			o := viewTestOptions()
			o.Shards = shards
			d, err := OpenAt(t.TempDir(), o)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()

			rng := rand.New(rand.NewSource(int64(shards)*31 + 7))
			pad := fmt.Sprintf("%0100d", 3)
			live := map[string]string{}
			for i := 0; i < 4000; i++ {
				k := fmt.Sprintf("key%06d", rng.Intn(1500))
				if rng.Intn(12) == 0 {
					if err := d.Delete([]byte(k)); err != nil {
						t.Fatal(err)
					}
					delete(live, k)
				} else {
					v := fmt.Sprintf("v%06d-%s", i, pad)
					mustPut(t, d, k, v)
					live[k] = v
				}
				switch {
				case i%977 == 976:
					if err := d.Flush(); err != nil {
						t.Fatal(err)
					}
				case i == 2000:
					if err := d.CompactAll(); err != nil {
						t.Fatal(err)
					}
					mustScan(t, d, live)
				}
			}
			if err := d.CompactAll(); err != nil {
				t.Fatal(err)
			}

			it, err := d.NewIterator()
			if err != nil {
				t.Fatal(err)
			}
			m := newSortedModel(live)
			for step := 0; step < 3000; step++ {
				var op string
				switch rng.Intn(10) {
				case 0:
					k := fmt.Sprintf("key%06d", rng.Intn(1600))
					op = "Seek(" + k + ")"
					it.Seek([]byte(k))
					m.seek(k)
				case 1:
					k := fmt.Sprintf("key%06d", rng.Intn(1600))
					op = "SeekForPrev(" + k + ")"
					it.SeekForPrev([]byte(k))
					m.seekForPrev(k)
				case 2:
					op = "First"
					it.First()
					m.first()
				case 3:
					op = "Last"
					it.Last()
					m.last()
				case 4, 5, 6:
					if !m.valid() {
						op = "First"
						it.First()
						m.first()
					} else {
						op = "Next"
						it.Next()
						m.next()
					}
				default:
					if !m.valid() {
						op = "Last"
						it.Last()
						m.last()
					} else {
						op = "Prev"
						it.Prev()
						m.prev()
					}
				}
				if it.Err() != nil {
					t.Fatalf("step %d %s: %v", step, op, it.Err())
				}
				if it.Valid() != m.valid() {
					t.Fatalf("step %d %s: valid %t, model %t", step, op, it.Valid(), m.valid())
				}
				if !m.valid() {
					continue
				}
				if k := m.keys[m.pos]; string(it.Key()) != k || string(it.Value()) != m.kv[k] {
					t.Fatalf("step %d %s: at %q, model at %q (or the values differ)", step, op, it.Key(), k)
				}
			}
			if err := it.Close(); err != nil {
				t.Fatal(err)
			}
			if d.Metrics().ScanViewHits == 0 {
				t.Fatal("the trace rode no spliced view; the final CompactAll's installs spliced none")
			}
		})
	}
}

// TestScanViewUnderConcurrentCompaction runs one scan on a quiet store, which
// builds every level's view, and then walks full scans while a writer
// overwrites the keyspace and keeps compacting it. Each scan must see exactly
// the loaded key set, in order; no scan may build a view, because every
// compaction's install splices the views of the levels it changes; and at
// the end every installed view must equal the one its members' indexes
// derive. Run with -race this also covers the views' publication on the
// versions the scans pin.
func TestScanViewUnderConcurrentCompaction(t *testing.T) {
	d, _ := openTest(t, PolicyMash)
	defer d.Close()
	model := loadAndSettle(t, d, 2500)
	mustScan(t, d, model)
	built := d.Metrics().ScanViewMisses
	compactions := d.Metrics().Compactions

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			k := fmt.Sprintf("key%05d", i%2500)
			if err := d.Put([]byte(k), []byte(fmt.Sprintf("new%07d", i))); err != nil {
				return
			}
			i++
			if i%400 == 0 {
				if err := d.CompactAll(); err != nil {
					return
				}
			}
		}
	}()

	deadline := time.Now().Add(20 * time.Second)
	for round := 0; round < 6 || d.Metrics().Compactions < compactions+5; round++ {
		if time.Now().After(deadline) {
			t.Fatalf("%d compactions in %d rounds; the writer is not compacting", d.Metrics().Compactions-compactions, round)
		}
		it, err := d.NewIterator()
		if err != nil {
			t.Fatal(err)
		}
		var seen []string
		for it.First(); it.Valid(); it.Next() {
			seen = append(seen, string(it.Key()))
		}
		if it.Err() != nil {
			t.Fatalf("round %d: %v", round, it.Err())
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		if len(seen) != len(model) {
			t.Fatalf("round %d: scan saw %d keys, want %d", round, len(seen), len(model))
		}
		if !sort.StringsAreSorted(seen) {
			t.Fatalf("round %d: scan out of order", round)
		}
		for _, k := range seen {
			if _, ok := model[k]; !ok {
				t.Fatalf("round %d: unexpected key %q", round, k)
			}
		}
		if got := d.Metrics().ScanViewMisses; got != built {
			t.Fatalf("round %d: scans built %d views under compaction; installs should have spliced them", round, got-built)
		}
	}
	close(stop)
	wg.Wait()
	checkInstalledViews(t, d)
}

// sliceIter is a synthetic internalIterator over pre-sorted internal keys,
// used to benchmark the merging layer in isolation.
type sliceIter struct {
	ikeys [][]byte
	i     int
}

func (s *sliceIter) First() { s.i = 0 }
func (s *sliceIter) Last()  { s.i = len(s.ikeys) - 1 }
func (s *sliceIter) Valid() bool {
	return s.i >= 0 && s.i < len(s.ikeys)
}
func (s *sliceIter) SeekGE(ikey []byte) {
	s.i = sort.Search(len(s.ikeys), func(i int) bool {
		return keys.Compare(s.ikeys[i], ikey) >= 0
	})
}
func (s *sliceIter) SeekLT(ikey []byte) {
	s.i = sort.Search(len(s.ikeys), func(i int) bool {
		return keys.Compare(s.ikeys[i], ikey) >= 0
	}) - 1
}
func (s *sliceIter) Next() {
	if s.i < len(s.ikeys) {
		s.i++
	}
}
func (s *sliceIter) Prev() {
	if s.i >= 0 {
		s.i--
	}
}
func (s *sliceIter) Key() []byte   { return s.ikeys[s.i] }
func (s *sliceIter) Value() []byte { return s.ikeys[s.i] }
func (s *sliceIter) Err() error    { return nil }
func (s *sliceIter) Close() error  { return nil }

// BenchmarkMergingIter measures a full forward sweep through the loser
// tree at varying fan-in: the same 64k total keys striped round-robin
// across 2, 4, 8 and 16 children, so wider merges pay tree depth, not more
// data.
func BenchmarkMergingIter(b *testing.B) {
	const total = 1 << 16
	for _, fan := range []int{2, 4, 8, 16} {
		fan := fan
		b.Run(fmt.Sprintf("children=%d", fan), func(b *testing.B) {
			kids := make([]*sliceIter, fan)
			for i := range kids {
				kids[i] = &sliceIter{}
			}
			for i := 0; i < total; i++ {
				ik := keys.MakeInternalKey(nil, []byte(fmt.Sprintf("key%08d", i)), 1, keys.KindSet)
				c := kids[i%fan]
				c.ikeys = append(c.ikeys, ik)
			}
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				children := make([]internalIterator, fan)
				for i, k := range kids {
					children[i] = k
				}
				m := newMergingIter(children...)
				cnt := 0
				for m.First(); m.Valid(); m.Next() {
					cnt++
				}
				if cnt != total {
					b.Fatalf("merged %d keys, want %d", cnt, total)
				}
			}
			b.ReportMetric(float64(total), "keys/op")
		})
	}
}
