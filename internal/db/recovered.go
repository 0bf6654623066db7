package db

import (
	"bytes"

	"rocksmash/internal/keys"
	"rocksmash/internal/memtable"
)

// getFromRecovered scans the recovery memtables for the newest entry of
// seek's user key visible at its snapshot. The memtables were rebuilt from
// distinct WAL segments, so a key may appear in several of them with
// different sequence numbers; the largest visible one wins, and only the
// winner's value is copied out.
func getFromRecovered(ms []*memtable.MemTable, seek []byte) (value []byte, live, found bool) {
	var bestSeq uint64
	key := keys.UserKey(seek)
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
			live = kind == keys.KindSet
			value = it.Value() // arena bytes until the loop is done
		}
	}
	if !live {
		return nil, false, found
	}
	return append([]byte(nil), value...), true, true
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
