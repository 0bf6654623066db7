package cache

import (
	"math/bits"
	"sync/atomic"
)

// Sketch estimates how often each block has been read lately: a count-min
// sketch of 4-bit counters with periodic halving, as in TinyLFU (Einziger,
// Friedman & Manes, ACM TOS 2017). The read path counts into it and the
// persistent cache's admission door reads it, so a block leaving the block
// cache displaces what is below only if it has been read more often than
// that. Every method is safe for concurrent use and takes no lock.
type Sketch struct {
	// rows holds sketchDepth rows of mask+1 counters each, sixteen to a word.
	rows [sketchDepth][]atomic.Uint64
	mask uint64
	// adds counts increments since the last halving; sample is how many
	// trigger the next one.
	adds   atomic.Int64
	sample int64
}

const (
	sketchDepth = 4
	// sketchSample is the TinyLFU sample size in multiples of the blocks the
	// caches hold: counts are halved once that many reads have been counted,
	// so a block that was hot long ago ages out.
	sketchSample = 10
	// nibbles masks the low three bits of every 4-bit counter of a word:
	// a halved word is (w >> 1) & nibbles.
	nibbles = 0x7777_7777_7777_7777
)

// NewSketch returns a sketch sized for caches that together hold blocks
// blocks: each row has a power of two ≥ 4 × blocks counters, which keeps
// the collisions of the blocks a read stream touches beside the cached ones
// rare (16 counters per cached block in all, as in Caffeine's sketch).
func NewSketch(blocks int) *Sketch {
	width := uint64(1) << bits.Len64(uint64(max(4*blocks, 16)-1))
	s := &Sketch{mask: width - 1, sample: sketchSample * int64(max(blocks, 1))}
	for i := range s.rows {
		s.rows[i] = make([]atomic.Uint64, width/16)
	}
	return s
}

// hash spreads a key over 64 bits; row i's counter index is derived from
// its two halves by double hashing.
func (k Key) hash() uint64 {
	h := k.FileNum*0x9e3779b97f4a7c15 ^ k.Offset*0xbf58476d1ce4e5b9
	h ^= h >> 31
	h *= 0x94d049bb133111eb
	return h ^ h>>29
}

func (s *Sketch) index(h uint64, row int) uint64 {
	return (h + uint64(row)*(h>>32|1)) & s.mask
}

// Add counts one read of k. Counters saturate at 15.
func (s *Sketch) Add(k Key) {
	h := k.hash()
	for i := range s.rows {
		idx := s.index(h, i)
		w, shift := &s.rows[i][idx>>4], (idx&15)*4
		for {
			old := w.Load()
			if old>>shift&15 == 15 || w.CompareAndSwap(old, old+1<<shift) {
				break
			}
		}
	}
	if s.adds.Add(1) == s.sample {
		s.halve()
	}
}

// halve ages every counter by half. Exactly one Add reaches the sample size
// and runs it; an Add racing with it lands before or after its words are
// halved.
func (s *Sketch) halve() {
	for i := range s.rows {
		for j := range s.rows[i] {
			w := &s.rows[i][j]
			for {
				old := w.Load()
				if w.CompareAndSwap(old, old>>1&nibbles) {
					break
				}
			}
		}
	}
	s.adds.Add(-s.sample / 2)
}

// Estimate returns k's count: the least of its counters. Other keys that
// share a counter can only inflate it, so it is at least k's reads since the
// last halving, up to the ceiling of 15.
func (s *Sketch) Estimate(k Key) int {
	h := k.hash()
	est := uint64(15)
	for i := range s.rows {
		idx := s.index(h, i)
		est = min(est, s.rows[i][idx>>4].Load()>>((idx&15)*4)&15)
	}
	return int(est)
}
