package main

import (
	"runtime/debug"
	"runtime/metrics"
	"time"
)

// procDelta is what the Go runtime reports for one measured phase.
type procDelta struct {
	allocs     uint64 // heap objects allocated
	allocBytes uint64
	gcPause    time.Duration
	heapPeak   uint64 // largest live-heap reading, sampled every 100 ms
}

type procSampler struct {
	start procDelta
	peak  uint64
	quit  chan struct{}
	done  chan struct{}
}

func readProc() (p procDelta, heap uint64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/memory/classes/heap/objects:bytes"},
	}
	metrics.Read(s)
	var gc debug.GCStats
	debug.ReadGCStats(&gc)
	return procDelta{allocs: s[0].Value.Uint64(), allocBytes: s[1].Value.Uint64(), gcPause: gc.PauseTotal}, s[2].Value.Uint64()
}

// startProcSampler reads the runtime's counters and starts sampling the heap.
func startProcSampler() *procSampler {
	p := &procSampler{quit: make(chan struct{}), done: make(chan struct{})}
	p.start, p.peak = readProc()
	go func() {
		defer close(p.done)
		heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.quit:
				return
			case <-tick.C:
				metrics.Read(heap)
				p.peak = max(p.peak, heap[0].Value.Uint64())
			}
		}
	}()
	return p
}

// stop ends the sampling and returns the change since the start.
func (p *procSampler) stop() procDelta {
	close(p.quit)
	<-p.done
	end, heap := readProc()
	return procDelta{
		allocs:     end.allocs - p.start.allocs,
		allocBytes: end.allocBytes - p.start.allocBytes,
		gcPause:    end.gcPause - p.start.gcPause,
		heapPeak:   max(p.peak, heap),
	}
}
