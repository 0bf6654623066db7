package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"time"

	"rocksmash/internal/arena"
	"rocksmash/internal/block"
	"rocksmash/internal/bloom"
	"rocksmash/internal/cache"
	"rocksmash/internal/keys"
	"rocksmash/internal/memtable"
	"rocksmash/internal/pcache"
	"rocksmash/internal/skiplist"
	"rocksmash/internal/sstable"
	"rocksmash/internal/storage"
	"rocksmash/internal/wal"
)

// timeKernel runs chunk, which performs and returns a number of calls, until
// the budget is spent, and returns nanoseconds per call. reset prepares the
// next chunk and is not timed.
func timeKernel(budget time.Duration, reset func(), chunk func() int) float64 {
	var calls int
	var busy time.Duration
	for busy < budget {
		if reset != nil {
			reset()
		}
		t0 := time.Now()
		n := chunk()
		busy += time.Since(t0)
		calls += n
	}
	return float64(busy.Nanoseconds()) / float64(calls)
}

// runKernels times direct calls into the leaf packages on the workload's own
// keys and values: what one call costs with nothing else running.
func runKernels(c config, dir string, in *inputs) (values, error) {
	v := values{}
	o := c.storeOptions()
	rng := rand.New(rand.NewSource(c.seed))
	val := newValue(rng)

	// Up to 16 Ki of the workload's keys, in key order, as user and as
	// internal keys; probe visits them in a seeded random order.
	n := min(in.keys.len(), 16<<10)
	ukeys := make([][]byte, n)
	for i := range ukeys {
		ukeys[i] = in.keys.key(uint32(i))
	}
	sort.Slice(ukeys, func(i, j int) bool { return bytes.Compare(ukeys[i], ukeys[j]) < 0 })
	ikeys := make([][]byte, n)
	hashes := make([]uint32, n)
	for i, k := range ukeys {
		ikeys[i] = keys.MakeInternalKey(nil, k, uint64(i+1), keys.KindSet)
		hashes[i] = bloom.Hash(k)
	}
	probe := rng.Perm(n)
	maxSeq := uint64(n + 1)

	// skiplist and memtable: a fresh structure per chunk, filled in random
	// order as a memtable is.
	var list *skiplist.List
	v["skiplist.insert_ns"] = timeKernel(c.kernel,
		func() { list = skiplist.New(arena.New()) },
		func() int {
			for _, i := range probe {
				list.Insert(ikeys[i], val)
			}
			return n
		})
	var mem *memtable.MemTable
	v["memtable.add_ns"] = timeKernel(c.kernel,
		func() { mem = memtable.New() },
		func() int {
			for _, i := range probe {
				mem.Add(uint64(i+1), keys.KindSet, ukeys[i], val)
			}
			return n
		})
	lost := 0 // keys a structure must hold and did not return
	v["memtable.get_ns"] = timeKernel(c.kernel, nil, func() int {
		for _, i := range probe {
			if _, found, _ := mem.Get(ukeys[i], maxSeq); !found {
				lost++
			}
		}
		return n
	})

	// wal: one commit's payload per append, as a single Put produces.
	local, err := storage.NewLocal(filepath.Join(dir, "kernels"))
	if err != nil {
		return nil, err
	}
	payload := make([]byte, len(ukeys[0])+valueLen+16)
	for _, k := range []struct {
		name  string
		sync  bool
		chunk int
		unit  float64
	}{{"wal.append_ns", false, 1024, 1}, {"wal.append_sync_us", true, 8, 1e3}} {
		m, err := wal.Open(local, wal.Options{Dir: "wal-" + k.name, SegmentBytes: o.WALSegmentBytes, Sync: k.sync, Extended: true}, 1)
		if err != nil {
			return nil, fmt.Errorf("kernel %s: %w", k.name, err)
		}
		var seq uint64
		var werr error
		v[k.name] = timeKernel(c.kernel, nil, func() int {
			for i := 0; i < k.chunk; i++ {
				seq++
				if _, err := m.AppendBatch([]wal.Entry{{Payload: payload, MinSeq: seq, MaxSeq: seq}}); err != nil {
					werr = err
				}
			}
			return k.chunk
		}) / k.unit
		if err := m.Close(); werr != nil || err != nil {
			return nil, fmt.Errorf("kernel %s: %v %v", k.name, werr, err)
		}
	}

	// bloom: a filter over the keys, probed with keys it holds.
	filter := bloom.New(hashes, o.BloomBitsPerKey)
	v["bloom.probe_ns"] = timeKernel(c.kernel, nil, func() int {
		for _, i := range probe {
			if !filter.MayContain(hashes[i]) {
				lost++
			}
		}
		return n
	})
	if lost > 0 {
		return nil, fmt.Errorf("kernels: the memtable or the bloom filter lost %d keys", lost)
	}

	// block: one data block of the store's block size.
	bb := block.NewBuilder(sstable.DefaultBuilderOptions().RestartInterval)
	inBlock := 0
	for ; inBlock < n && bb.EstimatedSize() < o.BlockBytes; inBlock++ {
		bb.Add(ikeys[inBlock], val)
	}
	br, err := block.NewReader(bb.Finish())
	if err != nil {
		return nil, fmt.Errorf("kernel block: %w", err)
	}
	bit := br.NewIter()
	v["block.seek_ns"] = timeKernel(c.kernel, nil, func() int {
		for i := 0; i < 1024; i++ {
			bit.SeekGE(ikeys[probe[i%n]%inBlock])
		}
		return 1024
	})
	v["block.next_ns"] = timeKernel(c.kernel, nil, func() int {
		calls := 0
		for r := 0; r < 64; r++ {
			for bit.First(); bit.Valid(); bit.Next() {
				calls++
			}
		}
		return calls
	})

	// sstable: build a table of the keys on the local tier, then look them up.
	var built int
	build := func() error {
		built++
		w, err := local.Create(fmt.Sprintf("sst/%06d.sst", built))
		if err != nil {
			return err
		}
		b := sstable.NewBuilder(w, sstable.BuilderOptions{BlockBytes: o.BlockBytes, BloomBitsPerKey: o.BloomBitsPerKey, Compression: o.Compression})
		for i, k := range ikeys {
			if err := b.Add(k, val); err != nil {
				w.Close()
				return fmt.Errorf("adding entry %d: %w", i, err)
			}
		}
		if _, err := b.Finish(); err != nil {
			w.Close()
			return err
		}
		return w.Close()
	}
	var berr error
	v["sstable.build_ns_per_entry"] = timeKernel(c.kernel, nil, func() int {
		if err := build(); err != nil {
			berr = err
		}
		return n
	})
	if berr != nil {
		return nil, fmt.Errorf("kernel sstable build: %w", berr)
	}
	f, err := local.Open(fmt.Sprintf("sst/%06d.sst", built))
	if err != nil {
		return nil, err
	}
	tr, err := sstable.Open(f, uint64(built))
	if err != nil {
		return nil, fmt.Errorf("kernel sstable open: %w", err)
	}
	defer tr.Close()
	var gerr error
	v["sstable.get_ns"] = timeKernel(c.kernel, nil, func() int {
		for _, i := range probe[:min(n, 1024)] {
			if _, found, _, err := tr.Get(ukeys[i], maxSeq); err != nil || !found {
				gerr = fmt.Errorf("key %d: found=%v err=%v", i, found, err)
			}
		}
		return min(n, 1024)
	})
	if gerr != nil {
		return nil, fmt.Errorf("kernel sstable get: %w", gerr)
	}

	// cache and pcache: blocks of the store's block size, an eighth of the
	// smaller cache's capacity so that nearly every lookup hits.
	body := make([]byte, o.BlockBytes)
	rng.Read(body)
	blocks := int(min(o.BlockCacheBytes, o.PCacheBytes)) / o.BlockBytes / 8
	bc := cache.New(o.BlockCacheBytes)
	for i := 0; i < blocks; i++ {
		bc.Put(cache.Key{FileNum: 1, Offset: uint64(i * o.BlockBytes)}, body)
	}
	v["cache.get_ns"] = timeKernel(c.kernel, nil, func() int {
		for i := 0; i < blocks; i++ {
			bc.Get(cache.Key{FileNum: 1, Offset: uint64(i * o.BlockBytes)})
		}
		return blocks
	})
	fresh := uint64(0) // puts admit blocks not seen before, as a miss does
	v["cache.put_ns"] = timeKernel(c.kernel, nil, func() int {
		for i := 0; i < blocks; i++ {
			fresh++
			bc.Put(cache.Key{FileNum: 2, Offset: fresh}, body)
		}
		return blocks
	})
	pc, err := pcache.New(pcache.Options{Dir: filepath.Join(dir, "kernels", "pcache"), CapacityBytes: o.PCacheBytes, RegionBytes: o.PCacheRegionBytes})
	if err != nil {
		return nil, fmt.Errorf("kernel pcache: %w", err)
	}
	defer pc.Close()
	for i := 0; i < blocks; i++ {
		pc.Put(1, uint64(i*o.BlockBytes), body)
	}
	v["pcache.get_us"] = timeKernel(c.kernel, nil, func() int {
		for i := 0; i < blocks; i++ {
			pc.Get(1, uint64(i*o.BlockBytes))
		}
		return blocks
	}) / 1e3
	v["pcache.put_us"] = timeKernel(c.kernel, nil, func() int {
		for i := 0; i < blocks; i++ {
			fresh++
			pc.Put(2, fresh*uint64(o.BlockBytes), body)
		}
		return blocks
	}) / 1e3

	// storage: what the cloud simulator itself costs per 4 KiB GET when its
	// latency model is zero; this sits inside every cold number.
	cloud, err := storage.NewCloud(filepath.Join(dir, "kernels", "cloud"), storage.LatencyModel{}, storage.DefaultCost())
	if err != nil {
		return nil, err
	}
	const object = 1 << 20
	if err := storage.WriteObject(cloud, "obj", make([]byte, object)); err != nil {
		return nil, err
	}
	r, err := cloud.Open("obj")
	if err != nil {
		return nil, err
	}
	defer r.Close()
	buf := make([]byte, 4<<10)
	var rerr error
	v["storage.cloud.sim_overhead_us"] = timeKernel(c.kernel, nil, func() int {
		for i := 0; i < 256; i++ {
			if _, err := r.ReadAt(buf, int64(probe[i%n]%(object/len(buf)))*int64(len(buf))); err != nil {
				rerr = err
			}
		}
		return 256
	}) / 1e3
	if rerr != nil {
		return nil, fmt.Errorf("kernel cloud read: %w", rerr)
	}
	return v, nil
}
