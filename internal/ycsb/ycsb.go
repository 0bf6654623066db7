// Package ycsb implements the YCSB core workload generators (A–F) used by
// the paper's evaluation: key-choosers (zipfian, latest, uniform) and the
// standard operation mixes. The closed-loop runner that drives a store with
// them is harness.Phase.
package ycsb

import (
	"fmt"
	"math"
	"math/rand"
)

// OpKind is one YCSB operation type.
type OpKind int

// YCSB operation kinds.
const (
	OpRead OpKind = iota
	OpUpdate
	OpInsert
	OpScan
	OpReadModifyWrite
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "READ"
	case OpUpdate:
		return "UPDATE"
	case OpInsert:
		return "INSERT"
	case OpScan:
		return "SCAN"
	case OpReadModifyWrite:
		return "RMW"
	default:
		return "?"
	}
}

// Workload is a YCSB core workload definition.
type Workload struct {
	Name       string
	ReadProp   float64
	UpdateProp float64
	InsertProp float64
	ScanProp   float64
	RMWProp    float64
	// Distribution: "zipfian", "uniform", or "latest".
	Distribution string
	// MaxScanLen bounds SCAN lengths (uniform in [1, MaxScanLen]).
	MaxScanLen int
}

// Core workloads A–F as defined by the YCSB paper.
var (
	WorkloadA = Workload{Name: "A", ReadProp: 0.5, UpdateProp: 0.5, Distribution: "zipfian"}
	WorkloadB = Workload{Name: "B", ReadProp: 0.95, UpdateProp: 0.05, Distribution: "zipfian"}
	WorkloadC = Workload{Name: "C", ReadProp: 1.0, Distribution: "zipfian"}
	WorkloadD = Workload{Name: "D", ReadProp: 0.95, InsertProp: 0.05, Distribution: "latest"}
	WorkloadE = Workload{Name: "E", ScanProp: 0.95, InsertProp: 0.05, Distribution: "zipfian", MaxScanLen: 100}
	WorkloadF = Workload{Name: "F", ReadProp: 0.5, RMWProp: 0.5, Distribution: "zipfian"}
)

// ByName returns the core workload with the given letter.
func ByName(name string) (Workload, error) {
	switch name {
	case "A", "a":
		return WorkloadA, nil
	case "B", "b":
		return WorkloadB, nil
	case "C", "c":
		return WorkloadC, nil
	case "D", "d":
		return WorkloadD, nil
	case "E", "e":
		return WorkloadE, nil
	case "F", "f":
		return WorkloadF, nil
	}
	return Workload{}, fmt.Errorf("ycsb: unknown workload %q", name)
}

// Zipfian generates integers in [0, n) with a zipf distribution, using the
// Gray et al. method so the constant can be chosen freely (YCSB uses
// theta = 0.99).
type Zipfian struct {
	n     uint64
	theta float64
	alpha float64
	zetan float64
	zeta2 float64
	eta   float64
	rng   *rand.Rand
}

// NewZipfian returns a zipfian chooser over [0, n).
func NewZipfian(rng *rand.Rand, n uint64, theta float64) *Zipfian {
	z := &Zipfian{n: n, theta: theta, rng: rng}
	z.zetan = zeta(n, theta)
	z.zeta2 = zeta(2, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	return z
}

func zeta(n uint64, theta float64) float64 {
	var s float64
	for i := uint64(1); i <= n; i++ {
		s += 1 / math.Pow(float64(i), theta)
	}
	return s
}

// Next returns the next sample. Rank 0 is the most popular item.
func (z *Zipfian) Next() uint64 {
	u := z.rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	return uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

// KeyChooser picks keys for operations.
type KeyChooser interface {
	// Next returns a key index given the current number of inserted keys.
	Next(inserted uint64) uint64
}

type zipfChooser struct{ z *Zipfian }

func (c zipfChooser) Next(uint64) uint64 { return c.z.Next() }

type uniformChooser struct{ rng *rand.Rand }

func (c uniformChooser) Next(inserted uint64) uint64 {
	if inserted == 0 {
		return 0
	}
	return uint64(c.rng.Int63n(int64(inserted)))
}

type latestChooser struct{ z *Zipfian }

func (c latestChooser) Next(inserted uint64) uint64 {
	if inserted == 0 {
		return 0
	}
	off := c.z.Next() % inserted
	return inserted - 1 - off
}

// scrambleKey spreads sequential ranks across the keyspace so popular keys
// are not physically adjacent (YCSB's hashed key order).
func scrambleKey(rank uint64) uint64 {
	h := rank * 0x9e3779b97f4a7c15
	h ^= h >> 32
	return h
}

// Key formats the YCSB key for an item index.
func Key(idx uint64) []byte {
	return []byte(fmt.Sprintf("user%019d", scrambleKey(idx)))
}

// SequentialKey formats the key for loading item idx without scrambling
// lookups (Key(idx) must be used consistently; this is Key's alias for
// clarity at load time).
func SequentialKey(idx uint64) []byte { return Key(idx) }

// Generator produces a stream of YCSB operations.
type Generator struct {
	w        Workload
	rng      *rand.Rand
	chooser  KeyChooser
	inserted uint64
	valueLen int
}

// DefaultTheta is YCSB's default zipfian constant.
const DefaultTheta = 0.99

// NewGenerator builds a generator over an initial keyspace of recordCount
// items with the given value size and the zipfian constant DefaultTheta.
func NewGenerator(w Workload, recordCount uint64, valueLen int, seed int64) *Generator {
	return NewGeneratorWithTheta(w, recordCount, valueLen, seed, DefaultTheta)
}

// NewGeneratorWithTheta is NewGenerator with an explicit zipfian skew
// constant, used by the skew-sensitivity experiment.
func NewGeneratorWithTheta(w Workload, recordCount uint64, valueLen int, seed int64, theta float64) *Generator {
	rng := rand.New(rand.NewSource(seed))
	g := &Generator{w: w, rng: rng, inserted: recordCount, valueLen: valueLen}
	switch w.Distribution {
	case "uniform":
		g.chooser = uniformChooser{rng}
	case "latest":
		g.chooser = latestChooser{NewZipfian(rng, recordCount, theta)}
	default:
		g.chooser = zipfChooser{NewZipfian(rng, recordCount, theta)}
	}
	return g
}

// Op is one generated operation.
type Op struct {
	Kind    OpKind
	Key     []byte
	Value   []byte // for UPDATE/INSERT/RMW
	ScanLen int    // for SCAN
}

// Value synthesizes a deterministic value body.
func (g *Generator) value() []byte {
	v := make([]byte, g.valueLen)
	g.rng.Read(v)
	return v
}

// Next produces the next operation in the workload mix.
func (g *Generator) Next() Op {
	r := g.rng.Float64()
	w := g.w
	switch {
	case r < w.ReadProp:
		return Op{Kind: OpRead, Key: Key(g.chooser.Next(g.inserted))}
	case r < w.ReadProp+w.UpdateProp:
		return Op{Kind: OpUpdate, Key: Key(g.chooser.Next(g.inserted)), Value: g.value()}
	case r < w.ReadProp+w.UpdateProp+w.InsertProp:
		idx := g.inserted
		g.inserted++
		return Op{Kind: OpInsert, Key: Key(idx), Value: g.value()}
	case r < w.ReadProp+w.UpdateProp+w.InsertProp+w.ScanProp:
		n := 1
		if w.MaxScanLen > 1 {
			n = g.rng.Intn(w.MaxScanLen) + 1
		}
		return Op{Kind: OpScan, Key: Key(g.chooser.Next(g.inserted)), ScanLen: n}
	default:
		return Op{Kind: OpReadModifyWrite, Key: Key(g.chooser.Next(g.inserted)), Value: g.value()}
	}
}

// Inserted returns the current record count.
func (g *Generator) Inserted() uint64 { return g.inserted }
