package db

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"rocksmash/internal/batch"
	"rocksmash/internal/keys"
	"rocksmash/internal/storage"
)

// Keyspace sharding: Options.Shards = N runs N engines behind the one DB
// facade. Each engine is a complete LSM — its own memtable stack, eWAL
// segment stream, flush queue, and compaction scheduler — so engines never
// contend on each other's commit, rotation, or compaction locks and
// recover their WALs concurrently at Open. With N > 1 each engine is rooted
// under a "shard-NNN/" prefix of the local and cloud backends and allocates
// file numbers in its own residue class mod N; with N == 1 the one engine
// sits directly on the caller's backends with dense file numbers, the
// layout of a store that predates sharding. DESIGN.md §5f tabulates what
// the facade owns and what each engine owns.
//
// Keys route to engines by a stable hash of the user key; iteration merges
// the per-engine iterators (disjoint keyspaces, so no deduplication).

// shardMarkerName is the root-level object recording the shard count. It
// is written on the first sharded open and verified on every reopen: the
// shard count is part of the on-disk layout (it determines both the
// directory shape and the key-to-shard mapping) and cannot change without
// a rewrite. An unsharded store has no marker.
const shardMarkerName = "SHARDS"

func shardPrefix(i int) string { return fmt.Sprintf("shard-%03d/", i) }

// enginePrefix is where engine i's objects live under the store's
// backends: the root itself for an unsharded store.
func (o Options) enginePrefix(i int) string {
	if o.Shards == 1 {
		return ""
	}
	return shardPrefix(i)
}

// prefixed scopes b to prefix; the empty prefix (and a nil backend) pass
// through unwrapped, so an unsharded store pays nothing per I/O.
func prefixed(b storage.Backend, prefix string) storage.Backend {
	if b == nil || prefix == "" {
		return b
	}
	return storage.NewPrefix(b, prefix)
}

// shardIndex maps a user key to its shard with FNV-1a 64. The mapping
// must be deterministic across processes and restarts — it decides which
// engine's LSM holds the key.
func shardIndex(key []byte, n int) int {
	if n == 1 {
		return 0
	}
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, c := range key {
		h ^= uint64(c)
		h *= prime64
	}
	return int(h % uint64(n))
}

func (d *DB) engineFor(key []byte) *engine {
	return d.engines[shardIndex(key, len(d.engines))]
}

// ensureShardLayout checks that the directory's layout matches n shards,
// persisting the shard count on the first sharded open. Both mismatches
// are refused: an unsharded open of a sharded directory would see an empty
// root, and a sharded open of an unsharded store would silently split the
// keyspace across empty shards while the old data sat unreachable at the
// root.
func ensureShardLayout(local storage.Backend, n int) error {
	data, err := local.ReadAll(shardMarkerName)
	if err != nil {
		if n == 1 {
			return nil
		}
		if _, err := local.ReadAll("CURRENT"); err == nil {
			return errors.New("db: cannot open an existing unsharded store with Shards > 1")
		}
		return storage.WriteObject(local, shardMarkerName, []byte(strconv.Itoa(n)+"\n"))
	}
	mark := strings.TrimSpace(string(data))
	if n == 1 {
		return fmt.Errorf("db: store was created with Shards=%s; reopen with the same shard count", mark)
	}
	have, perr := strconv.Atoi(mark)
	if perr != nil {
		return fmt.Errorf("db: unreadable shard marker %q", string(data))
	}
	if have != n {
		return fmt.Errorf("db: store has %d shards, opened with Shards=%d", have, n)
	}
	return nil
}

// errMultiShard is the internal sentinel that stops engineOf's scan early
// once a batch is known to span engines.
var errMultiShard = errors.New("multi-shard")

// engineOf returns the engine every op of b hashes to, or nil when b spans
// engines. One engine owns every key, so an unsharded store skips the
// decoding pass over the batch.
func (d *DB) engineOf(b *batch.Batch) (*engine, error) {
	n := len(d.engines)
	if n == 1 {
		return d.engines[0], nil
	}
	target := -1
	err := b.Iterate(func(op batch.Op) error {
		s := shardIndex(op.Key, n)
		if target < 0 {
			target = s
			return nil
		}
		if s != target {
			return errMultiShard
		}
		return nil
	})
	if err == errMultiShard {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return d.engines[target], nil
}

// splitWrite commits a batch that spans engines as per-engine sub-batches,
// concurrently.
func (d *DB) splitWrite(b *batch.Batch) error {
	n := len(d.engines)
	subs := make([]*batch.Batch, n)
	if err := b.Iterate(func(op batch.Op) error {
		s := shardIndex(op.Key, n)
		if subs[s] == nil {
			subs[s] = batch.New()
		}
		if op.Kind == keys.KindDelete {
			subs[s].Delete(op.Key)
		} else {
			subs[s].Set(op.Key, op.Value)
		}
		return nil
	}); err != nil {
		return err
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, sb := range subs {
		if sb == nil {
			continue
		}
		wg.Add(1)
		go func(i int, sb *batch.Batch) {
			defer wg.Done()
			errs[i] = d.engines[i].write(sb)
		}(i, sb)
	}
	wg.Wait()
	return errors.Join(errs...)
}
