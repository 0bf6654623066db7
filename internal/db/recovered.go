package db

import "rocksmash/internal/memtable"

// getFromRecovered probes the recovery runs for the newest entry of seek's
// user key visible at its snapshot. The runs were rebuilt from distinct WAL
// segments, so a key may appear in several of them with different sequence
// numbers; the largest visible one wins, and only the winner's value is
// copied out.
func getFromRecovered(runs []*memtable.Run, seek []byte) (value []byte, live, found bool) {
	var bestSeq uint64
	for _, r := range runs {
		v, seq, ok, isLive := r.GetSeek(seek)
		if ok && (!found || seq > bestSeq) {
			found, bestSeq, live = true, seq, isLive
			value = v // run bytes until the loop is done
		}
	}
	if !live {
		return nil, false, found
	}
	return append([]byte(nil), value...), true, true
}

// takeRecoveredLocked detaches the recovery runs (caller holds d.mu).
func (d *engine) takeRecoveredLocked() []*memtable.Run {
	r := d.recovered
	d.recovered = nil
	return r
}

// recoveredBytesLocked sums the recovery runs' sizes (caller holds d.mu).
func (d *engine) recoveredBytesLocked() int64 {
	var n int64
	for _, r := range d.recovered {
		n += r.ApproximateSize()
	}
	return n
}
