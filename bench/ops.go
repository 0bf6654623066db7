package main

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sync/atomic"

	"rocksmash/internal/ycsb"
)

// valueLen is the size of every value the benchmark writes. The first 16
// bytes name the key index and the version, so any answer can be checked.
const valueLen = 400

// opsPerClient is the length of each client's pre-generated operation list.
// A client that reaches the end starts again from the beginning: reads repeat
// and writes become updates with new versions.
const opsPerClient = 1 << 19

// op is one pre-generated operation: a client operation kind, the index of
// the key it names, and for a scan the number of records to read.
type op struct {
	idx  uint32
	kind uint8
	n    uint8
}

// keyTable holds ycsb.Key(i) for every index a workload can name, in one
// pointer-free arena so the garbage collector has nothing to scan.
type keyTable struct {
	flat []byte
	off  []uint32
}

func newKeyTable(n int) *keyTable {
	t := &keyTable{flat: make([]byte, 0, n*24), off: make([]uint32, 1, n+1)}
	for i := 0; i < n; i++ {
		t.flat = append(t.flat, ycsb.Key(uint64(i))...)
		t.off = append(t.off, uint32(len(t.flat)))
	}
	return t
}

func (t *keyTable) key(i uint32) []byte { return t.flat[t.off[i]:t.off[i+1]:t.off[i+1]] }
func (t *keyTable) len() int            { return len(t.off) - 1 }

// model is the benchmark's record of what it wrote. Every key has one
// writer, so issued and acked are exact: a read that overlaps a write may
// see any version from the last one acknowledged before it began to the last
// one issued when it returned.
type model struct {
	issued []atomic.Uint32
	acked  []atomic.Uint32
}

// newModel starts with records keys at version 1, as set-up loads them.
func newModel(keyspace, records int) *model {
	m := &model{issued: make([]atomic.Uint32, keyspace), acked: make([]atomic.Uint32, keyspace)}
	for i := 0; i < records; i++ {
		m.issued[i].Store(1)
		m.acked[i].Store(1)
	}
	return m
}

// live counts the keys that hold an acknowledged value.
func (m *model) live() int {
	n := 0
	for i := range m.acked {
		if m.acked[i].Load() > 0 {
			n++
		}
	}
	return n
}

func fillValue(v []byte, idx, version uint32) {
	binary.LittleEndian.PutUint64(v[0:8], uint64(idx))
	binary.LittleEndian.PutUint64(v[8:16], uint64(version))
}

// newValue returns a value buffer whose body is seeded filler; the client
// rewrites the header before each write.
func newValue(rng *rand.Rand) []byte {
	v := make([]byte, valueLen)
	rng.Read(v)
	return v
}

// checkValue reports whether v is a value written for key index idx at a
// version in [lo, hi].
func checkValue(v []byte, idx, lo, hi uint32) bool {
	if len(v) != valueLen || binary.LittleEndian.Uint64(v[0:8]) != uint64(idx) {
		return false
	}
	ver := binary.LittleEndian.Uint64(v[8:16])
	return ver >= uint64(lo) && ver <= uint64(hi)
}

// checkRecord checks one record an iterator returned: the value's header
// must name a key index whose key is the one returned, at a version in the
// range the model allows (exactly the acknowledged one when exact is set).
func (m *model) checkRecord(keys *keyTable, key, header []byte, valLen int, exact bool) bool {
	if valLen != valueLen || len(header) < 16 {
		return false
	}
	idx := binary.LittleEndian.Uint64(header[0:8])
	if idx >= uint64(keys.len()) || !bytes.Equal(keys.key(uint32(idx)), key) {
		return false
	}
	ver := binary.LittleEndian.Uint64(header[8:16])
	if exact {
		return ver == uint64(m.acked[idx].Load())
	}
	return ver >= 1 && ver <= uint64(m.issued[idx].Load())
}

// generator draws the operations of one client. own maps a key index to the
// nearest one this client is the single writer of.
type generator struct {
	rng      *rand.Rand
	zipf     *ycsb.Zipfian
	client   int
	clients  int
	records  int
	keyspace int
	next     int // next key index this client inserts
}

func newGenerator(seed int64, client, clients, records, keyspace int) *generator {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(client)))
	g := &generator{rng: rng, client: client, clients: clients, records: records, keyspace: keyspace, next: records + client}
	if records > 0 {
		g.zipf = ycsb.NewZipfian(rng, uint64(records), 0.99)
	}
	return g
}

func (g *generator) own(idx int) uint32 { return uint32(idx - idx%g.clients + g.client) }

// zipfian draws a loaded record by popularity rank (theta 0.99, as YCSB).
func (g *generator) zipfian() int { return min(int(g.zipf.Next()), g.records-1) }

func (g *generator) insert() op {
	idx := g.next
	g.next += g.clients
	return op{kind: kindPut, idx: uint32(idx)}
}

// list pre-generates n operations with draw.
func (g *generator) list(n int, draw func(*generator) op) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = draw(g)
	}
	return ops
}
