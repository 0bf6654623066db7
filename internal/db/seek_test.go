package db

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"rocksmash/internal/cache"
	"rocksmash/internal/manifest"
	"rocksmash/internal/storage"
)

// gatedCloud passes a cloud backend through and calls gate, when set, before
// every data read of a table object; the function gate returns runs once the
// read has landed. A gate may sleep or block.
type gatedCloud struct {
	storage.Backend
	mu   sync.Mutex
	gate func(name string, off int64) (landed func())
}

func (g *gatedCloud) setGate(fn func(name string, off int64) func()) {
	g.mu.Lock()
	g.gate = fn
	g.mu.Unlock()
}

func (g *gatedCloud) Open(name string) (storage.Reader, error) {
	r, err := g.Backend.Open(name)
	if err != nil || !strings.Contains(name, "sst/") { // shard-NNN/sst/... on a sharded store
		return r, err
	}
	return &gatedReader{Reader: r, g: g, name: name}, nil
}

type gatedReader struct {
	storage.Reader
	g    *gatedCloud
	name string
}

func (r *gatedReader) ReadAt(p []byte, off int64) (int, error) {
	r.g.mu.Lock()
	gate := r.g.gate
	r.g.mu.Unlock()
	if gate != nil {
		defer gate(r.name, off)()
	}
	return r.Reader.ReadAt(p, off)
}

// openGated opens a store of options o on a local directory and a gated
// zero-latency cloud under dir.
func openGated(t *testing.T, dir string, o Options, g *gatedCloud) *DB {
	t.Helper()
	local, err := storage.NewLocal(filepath.Join(dir, "local"))
	if err != nil {
		t.Fatal(err)
	}
	if g.Backend == nil {
		if g.Backend, err = storage.NewCloud(filepath.Join(dir, "cloud"), storage.NoLatency(), o.CloudCost); err != nil {
			t.Fatal(err)
		}
	}
	o.pcacheDir = filepath.Join(dir, "pcache")
	d, err := Open(o, local, g)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestSeekFansOutCloudLevels seeks a cold store whose engines each keep two
// levels in the cloud, behind sorted views, on a cloud whose every table
// read takes getLatency. The seek must start the GET of every level it
// positions in before any lands, and so cost one round trip, not one per
// level (or per engine).
func TestSeekFansOutCloudLevels(t *testing.T) {
	const getLatency = 100 * time.Millisecond
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			o := testOptions(PolicyCloudOnly)
			o.Shards = shards
			o.L0CompactTrigger = 1 // CompactAll leaves L0 empty
			o.LevelBaseBytes = 16 << 10
			g := &gatedCloud{}
			d := openGated(t, dir, o, g)
			// Small levels and a second generation over the first keys: two
			// or more cloud levels in every engine.
			pinLoad(t, d, 3000, "one")
			if err := d.CompactAll(); err != nil {
				t.Fatal(err)
			}
			pinLoad(t, d, 300, "two")
			if err := d.CompactAll(); err != nil {
				t.Fatal(err)
			}
			levels := 0
			for i, e := range d.engines {
				v := e.vs.Current()
				n := 0
				for l := 1; l < manifest.NumLevels; l++ {
					if len(v.Levels[l]) > 0 {
						n++
					}
				}
				if len(v.Levels[0]) != 0 || n < 2 {
					t.Fatalf("engine %d: %d files in L0 and %d populated levels below, want none and two or more", i, len(v.Levels[0]), n)
				}
				levels += n
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			d = openGated(t, dir, o, g) // cold caches
			defer d.Close()

			var mu sync.Mutex
			landed, early := 0, 0 // early: reads started before the first landed
			g.setGate(func(string, int64) func() {
				mu.Lock()
				if landed == 0 {
					early++
				}
				mu.Unlock()
				time.Sleep(getLatency)
				return func() {
					mu.Lock()
					landed++
					mu.Unlock()
				}
			})
			it, err := d.NewIterator()
			if err != nil {
				t.Fatal(err)
			}
			begin := time.Now()
			it.Seek([]byte("key"))
			took := time.Since(begin)
			if !it.Valid() || string(it.Key()) != "key000000" {
				t.Fatalf("seek landed on %q (valid=%v), want key000000", it.Key(), it.Valid())
			}
			if err := it.Close(); err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			defer mu.Unlock()
			t.Logf("cold seek over %d cloud levels: %d GETs started before the first landed, %s", levels, early, took)
			if early < levels {
				t.Errorf("%d table GETs started before the first landed, want one per cloud level of each engine (%d)", early, levels)
			}
			if took >= 2*getLatency {
				t.Errorf("cold seek over %d cloud levels took %s, want under two GET round trips (%s)", levels, took, 2*getLatency)
			}
		})
	}
}

// heldScan is a store whose one engine holds its tree in one cloud level
// behind a sorted view, and an iterator that pins an older version of that
// level: every table it reads is named by no other version. The iterator has
// sought, and the GET of its first readahead span is held in flight.
type heldScan struct {
	d       *DB
	e       *engine
	it      *Iterator
	name    string // the held read's table object, its number and offset
	num     uint64
	off     int64
	release chan struct{}
	unhold  func() // closes release, once
}

func holdReadahead(t *testing.T) *heldScan {
	t.Helper()
	dir := t.TempDir()
	o := testOptions(PolicyCloudOnly)
	o.L0CompactTrigger = 1     // CompactAll leaves L0 empty
	o.LevelBaseBytes = 4 << 20 // and the whole load in L1
	g := &gatedCloud{}
	d := openGated(t, dir, o, g)
	pinLoad(t, d, 1500, "one")
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d = openGated(t, dir, o, g) // cold caches
	e := d.engines[0]
	it, err := d.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite everything: the iterator's tables are now its alone.
	pinLoad(t, d, 1500, "two")
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}
	pinned := map[string]uint64{}
	cur, v := e.vs.Current(), it.kids[0].hold.v
	if n := v.NumFiles(); n != len(v.Levels[1]) {
		t.Fatalf("the iterator's version has %d tables, %d of them in L1: want them all there", n, len(v.Levels[1]))
	}
	for _, f := range v.Levels[1] {
		pinned[manifest.TableName(f.Num)] = f.Num
		for _, g := range cur.Levels[1] {
			if g.Num == f.Num {
				t.Fatalf("table %d is in the current version too", f.Num)
			}
		}
	}

	// The seek's own span passes; the readahead behind it is held.
	h := &heldScan{d: d, e: e, it: it, release: make(chan struct{})}
	h.unhold = sync.OnceFunc(func() { close(h.release) })
	t.Cleanup(h.unhold)
	type read struct {
		name string
		off  int64
	}
	held := make(chan read, 8)
	var mu sync.Mutex
	passed := 0
	g.setGate(func(name string, off int64) func() {
		mu.Lock()
		passed++
		first := passed == 1
		mu.Unlock()
		select {
		case <-h.release: // released: every read passes
		default:
			if !first {
				held <- read{name, off}
				<-h.release
			}
		}
		return func() {}
	})
	it.Seek([]byte("key"))
	if !it.Valid() || string(it.Key()) != "key000000" {
		t.Fatalf("seek landed on %q (valid=%v), want key000000", it.Key(), it.Valid())
	}
	select {
	case r := <-held:
		h.name, h.off = r.name, r.off
	case <-time.After(10 * time.Second):
		t.Fatal("no readahead GET started behind the seek")
	}
	var ok bool
	if h.num, ok = pinned[h.name]; !ok {
		t.Fatalf("held read of %s, which is not a table of the iterator's version", h.name)
	}
	closed := make(chan error, 1)
	go func() { closed <- it.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		h.unhold()
		t.Fatal("Iterator.Close waited for readahead in flight")
	}
	return h
}

// TestIteratorCloseLeavesReadahead closes an iterator while a readahead GET
// of a table only that iterator's version names is in flight. Close returns
// at once; the table is neither deleted nor dropped from the caches before
// the GET lands, so none of its blocks is admitted after it is retired; and
// DB.Close or Crash right after wait the GET out and return.
func TestIteratorCloseLeavesReadahead(t *testing.T) {
	t.Run("retire", func(t *testing.T) {
		h := holdReadahead(t)
		defer h.d.Close()
		h.e.retireObsolete()
		if _, err := h.e.cloud.Size(h.name); err != nil {
			t.Errorf("%s retired with a GET of it in flight: %v", h.name, err)
		}
		h.unhold()
		h.e.scanTails.Wait() // landed, admitted, and let go of its hold
		deadline := time.Now().Add(10 * time.Second)
		for {
			if _, err := h.e.cloud.Size(h.name); err != nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s still listed after its last GET landed", h.name)
			}
			time.Sleep(2 * time.Millisecond)
		}
		if _, ok := h.e.blockCache.Get(cache.Key{FileNum: h.num, Offset: uint64(h.off)}); ok {
			t.Errorf("block at %d of retired table %s is in the block cache", h.off, h.name)
		}
	})
	for _, end := range []string{"Close", "Crash"} {
		t.Run(end, func(t *testing.T) {
			h := holdReadahead(t)
			done := make(chan struct{})
			go func() {
				if end == "Close" {
					if err := h.d.Close(); err != nil {
						t.Error(err)
					}
				} else {
					h.d.Crash()
				}
				close(done)
			}()
			select {
			case <-done:
				t.Errorf("DB.%s returned with a readahead GET in flight", end)
			case <-time.After(50 * time.Millisecond):
			}
			h.unhold()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatalf("DB.%s did not return after the GET landed", end)
			}
		})
	}
}
