package pcache

import (
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"rocksmash/internal/cache"
)

// stamped returns a block body that names the block it belongs to.
func stamped(fileNum, blockOff uint64, n int) []byte {
	b := make([]byte, n)
	binary.LittleEndian.PutUint64(b, fileNum)
	binary.LittleEndian.PutUint64(b[8:], blockOff)
	return b
}

func isStamped(body []byte, fileNum, blockOff uint64) bool {
	return binary.LittleEndian.Uint64(body) == fileNum && binary.LittleEndian.Uint64(body[8:]) == blockOff
}

// TestRecycledRegionIsAMissNotCorruption: a Get locates its entry, unlocks
// and reads; a Put that recycles the region in between leaves it holding
// another table's bytes. That is a miss. It used to fail the CRC and be
// reported as corruption of the cache file — a counter, an event into the
// flight recorder and scrub reconciliation, and a dropped entry — some
// hundred times a second in this shape, with nothing wrong on disk.
func TestRecycledRegionIsAMissNotCorruption(t *testing.T) {
	const (
		regionBytes = 32 << 10
		blockBytes  = 4 << 10
		files       = 1500
	)
	run := func(t *testing.T, c BlockCache, files uint64) {
		var newest atomic.Uint64
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					top := newest.Load()
					if top >= files {
						return
					}
					for f := top; f+4 > top && f > 0; f-- {
						body, ok := c.Get(f, 0)
						if ok && !isStamped(body, f, 0) {
							t.Errorf("Get(%d, 0) served another block's bytes", f)
							return
						}
					}
				}
			}()
		}
		// Four regions: every file recycles the region of the file four back.
		for f := uint64(1); f <= files; f++ {
			for off := uint64(0); off < regionBytes; off += blockBytes {
				c.Put(f, off, stamped(f, off, blockBytes))
			}
			newest.Store(f)
		}
		wg.Wait()
		if n := c.Stats().CorruptReads.Load(); n != 0 {
			t.Fatalf("%d corrupt reads reported with nothing corrupted", n)
		}
	}
	t.Run("mash", func(t *testing.T) {
		dir := t.TempDir()
		c, err := New(Options{Dir: dir, CapacityBytes: 4 * regionBytes, RegionBytes: regionBytes})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		run(t, c, files)

		// Rot under an entry nobody recycled is still corruption: counted
		// once, and the entry dropped.
		c.Put(files+1, 0, stamped(files+1, 0, blockBytes))
		c.mu.Lock()
		id := c.byFile[files+1][0]
		c.mu.Unlock()
		f, err := os.OpenFile(filepath.Join(dir, "DATA"), os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte{0xff}, int64(id)*regionBytes+100); err != nil {
			t.Fatal(err)
		}
		f.Close()
		for i := 0; i < 2; i++ {
			if _, ok := c.Get(files+1, 0); ok {
				t.Fatal("corrupt cached block returned as a hit")
			}
		}
		if n := c.Stats().CorruptReads.Load(); n != 1 {
			t.Fatalf("CorruptReads = %d after one real bit flip, want 1", n)
		}
	})
	// The generic cache keeps one file per block, written under a temporary
	// name and renamed: a path only ever holds its own block's bytes, so the
	// same race ends in a failed open, which is a miss. (A file per Put: a
	// tenth of the run.)
	t.Run("generic", func(t *testing.T) { run(t, newGeneric(t, 4*regionBytes), files/10) })
}

// TestRetiredTableStaysOutOfTheCache: a compaction retires a table
// (InvalidateFile, then DropFile) while readers are evicting and re-reading
// its blocks. A demotion already on its way when DropFile runs, or a block a
// reader of an older version fetches afterwards, must not give the dead
// table a region to sit in until eviction happens upon it.
func TestRetiredTableStaysOutOfTheCache(t *testing.T) {
	const (
		blockBytes = 4 << 10
		blocks     = 64 // per table
		retired    = 5
	)
	both(t, func(t *testing.T, pc BlockCache) {
		// A block cache of 16 blocks, so that nearly every read demotes.
		bc := cache.NewWithSink(16*blockBytes, func(k cache.Key, body []byte) {
			pc.Put(k.FileNum, k.Offset, body)
		})
		var wg sync.WaitGroup
		gone := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(g)))
				// Keep going for a while after the table is retired.
				for after := 0; after < 2000; {
					select {
					case <-gone:
						after++
					default:
					}
					file := uint64(1 + rng.Intn(8))
					off := uint64(rng.Intn(blocks) * blockBytes)
					k := cache.Key{FileNum: file, Offset: off}
					if _, ok := bc.Get(k); ok {
						continue
					}
					body, ok := pc.Get(file, off)
					if !ok {
						body = stamped(file, off, blockBytes)
					}
					bc.PutCloud(k, body)
				}
			}(g)
		}
		for pc.Stats().Inserted.Load() < 500 {
			runtime.Gosched()
		}
		bc.InvalidateFile(retired)
		pc.DropFile(retired)
		close(gone)
		wg.Wait()
		bc.DemoteAll()

		for off := uint64(0); off < blocks*blockBytes; off += blockBytes {
			if _, ok := pc.Probe(retired, off); ok {
				t.Fatalf("block %d of retired table %d is cached", off, retired)
			}
		}
		if m, ok := pc.(*PCache); ok {
			m.mu.Lock()
			defer m.mu.Unlock()
			if ids := m.byFile[retired]; len(ids) != 0 {
				t.Fatalf("retired table %d owns regions %v", retired, ids)
			}
			for i := range m.regions {
				if m.regions[i].fileNum == retired {
					t.Fatalf("region %d is owned by retired table %d", i, retired)
				}
			}
		}
	})
}
