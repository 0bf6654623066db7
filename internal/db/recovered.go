package db

import (
	"bytes"

	"rocksmash/internal/keys"
	"rocksmash/internal/memtable"
)

// getFromRecovered scans the recovery memtables for the newest entry of
// key visible at snapshot seq. The memtables were rebuilt from distinct
// WAL segments, so a key may appear in several of them with different
// sequence numbers; the largest visible one wins.
func getFromRecovered(ms []*memtable.MemTable, key []byte, seq uint64) (value []byte, live, found bool) {
	var bestSeq uint64
	seek := keys.MakeSeekKey(nil, key, seq)
	for _, m := range ms {
		it := m.NewIterator()
		it.SeekGE(seek)
		if !it.Valid() {
			continue
		}
		ik := it.Key()
		if !bytes.Equal(keys.UserKey(ik), key) {
			continue
		}
		s, kind := keys.DecodeTrailer(ik)
		if !found || s > bestSeq {
			found = true
			bestSeq = s
			if kind == keys.KindSet {
				live = true
				value = append([]byte(nil), it.Value()...)
			} else {
				live = false
				value = nil
			}
		}
	}
	return value, live, found
}

// takeRecoveredLocked detaches the recovery memtables (caller holds d.mu).
func (d *engine) takeRecoveredLocked() []*memtable.MemTable {
	r := d.recovered
	d.recovered = nil
	return r
}

// recoveredBytes sums the recovery memtables' sizes (caller holds d.mu).
func (d *engine) recoveredBytesLocked() int64 {
	var n int64
	for _, m := range d.recovered {
		n += m.ApproximateSize()
	}
	return n
}
