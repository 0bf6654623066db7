package harness

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"rocksmash/internal/db"
	"rocksmash/internal/histogram"
	"rocksmash/internal/ycsb"
)

// Clients runs total closed-loop operations across threads clients. Client
// tid runs the op closure worker(tid) builds — so it owns its generator or
// RNG state — over a contiguous range of indexes, the last client taking
// the remainder. Each op's latency lands in h when h is non-nil. A client
// stops at its first error; the first error of all is returned.
func Clients(threads, total int, h *histogram.H, worker func(tid int) func(i int) error) (err error) {
	threads = max(threads, 1)
	var (
		wg sync.WaitGroup
		mu sync.Mutex
	)
	per := total / threads
	for t := 0; t < threads; t++ {
		lo, hi := t*per, (t+1)*per
		if t == threads-1 {
			hi = total
		}
		op := worker(t)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				s := time.Now()
				if e := op(i); e != nil {
					mu.Lock()
					if err == nil {
						err = e
					}
					mu.Unlock()
					return
				}
				if h != nil {
					h.Record(time.Since(s))
				}
			}
		}()
	}
	wg.Wait()
	return err
}

// Phase is one closed-loop YCSB phase: Ops operations of Workload over a
// store loaded with Records records of ValueLen bytes, run by Threads
// clients. Client tid draws from its own generator, seeded Seed+tid.
type Phase struct {
	Workload ycsb.Workload
	Records  int
	Ops      int
	Threads  int
	ValueLen int
	Seed     int64
	// Theta is the zipfian constant; 0 means the YCSB default.
	Theta float64
	// TolerateUnavailable counts a Get or an iterator Close answered with
	// ErrCloudUnavailable — degraded mode's contract for cold cloud reads
	// while the breaker is open — instead of failing the phase. Any other
	// read error, and a write error, still fails the phase: degraded mode
	// keeps writes available.
	TolerateUnavailable bool
}

// PhaseResult is what one phase measured.
type PhaseResult struct {
	// Reads holds the latencies of reads and scans, Writes those of
	// updates, inserts and read-modify-writes. A read that was only
	// counted as unavailable is in neither.
	Reads, Writes *histogram.H
	Unavailable   int64 // reads counted under TolerateUnavailable
	Scanned       int64 // keys the scans stepped over
	Dur           time.Duration
}

// Run drives the phase against d. ErrNotFound is a normal read outcome.
func (p Phase) Run(d *db.DB) (PhaseResult, error) {
	r := PhaseResult{Reads: histogram.New(), Writes: histogram.New()}
	var unavailable, scanned atomic.Int64
	// read classifies a read's error: ok when it served, ErrNotFound
	// included; a tolerated unavailable read is counted, neither ok nor an
	// error.
	read := func(err error) (ok bool, _ error) {
		switch {
		case err == nil || errors.Is(err, db.ErrNotFound):
			return true, nil
		case p.TolerateUnavailable && errors.Is(err, db.ErrCloudUnavailable):
			unavailable.Add(1)
			return false, nil
		}
		return false, err
	}
	theta := p.Theta
	if theta == 0 {
		theta = ycsb.DefaultTheta
	}
	start := time.Now()
	err := Clients(p.Threads, p.Ops, nil, func(tid int) func(int) error {
		gen := ycsb.NewGeneratorWithTheta(p.Workload, uint64(p.Records), p.ValueLen, p.Seed+int64(tid), theta)
		return func(int) error {
			op := gen.Next()
			s := time.Now()
			h := r.Writes
			switch op.Kind {
			case ycsb.OpRead:
				_, err := d.Get(op.Key)
				if ok, err := read(err); !ok {
					return err
				}
				h = r.Reads
			case ycsb.OpUpdate, ycsb.OpInsert:
				if err := d.Put(op.Key, op.Value); err != nil {
					return err
				}
			case ycsb.OpScan:
				it, err := d.NewIterator()
				if err != nil {
					return err
				}
				it.Seek(op.Key)
				j := 0
				for ; j < op.ScanLen && it.Valid(); j++ {
					it.Next()
				}
				scanned.Add(int64(j))
				if ok, err := read(it.Close()); !ok {
					return err
				}
				h = r.Reads
			case ycsb.OpReadModifyWrite:
				_, err := d.Get(op.Key)
				if _, err := read(err); err != nil {
					return err
				}
				if err := d.Put(op.Key, op.Value); err != nil {
					return err
				}
			}
			h.Record(time.Since(s))
			return nil
		}
	})
	r.Dur = time.Since(start)
	r.Unavailable, r.Scanned = unavailable.Load(), scanned.Load()
	return r, err
}
