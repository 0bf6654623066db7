package db

import (
	"sort"
	"sync"

	"rocksmash/internal/cache"
	"rocksmash/internal/pcache"
	"rocksmash/internal/sstable"
)

// Iterator readahead: a scan over a cloud-tier table misses block after
// block in file order, paying one GET's first-byte latency per block. Once
// two consecutive misses land at adjacent offsets the access is treated as
// sequential and escalated: the next miss issues a single range GET covering
// up to IteratorReadaheadBlocks blocks, and the extra blocks are
// bulk-admitted into the persistent cache and block cache so the scan's
// following reads hit locally.

// raState tracks per-table sequential-access detection. It lives on the
// tableHandle so detection spans iterators: a scan that reopens iterators
// per level still reads one table front to back.
type raState struct {
	mu      sync.Mutex
	handles []sstable.Handle // lazily loaded block index
	loaded  bool
	broken  bool // block index unavailable; readahead disabled
	nextOff uint64
	primed  bool // nextOff is valid (guards the offset-0 first read)
}

// tryReadahead serves a cloud-tier block miss with a multi-block range GET
// when the access pattern looks sequential. ok=false means the miss was not
// sequential, the span degenerated to one block, or the span read failed —
// in every case the caller falls back to the normal single-block read, so
// readahead is purely an optimization and never a new failure mode.
func (h *tableHandle) tryReadahead(db *engine, fileNum uint64, hd sstable.Handle, n int) ([]byte, bool) {
	ra := &h.ra
	ra.mu.Lock()
	defer ra.mu.Unlock()
	if ra.broken {
		return nil, false
	}
	if !ra.loaded {
		hs, err := h.reader.DataHandles()
		if err != nil {
			ra.broken = true
			return nil, false
		}
		ra.handles, ra.loaded = hs, true
	}

	sequential := ra.primed && hd.Offset == ra.nextOff
	ra.primed, ra.nextOff = true, hd.End()
	if !sequential {
		return nil, false
	}

	i := sort.Search(len(ra.handles), func(j int) bool {
		return ra.handles[j].Offset >= hd.Offset
	})
	if i == len(ra.handles) || ra.handles[i].Offset != hd.Offset {
		return nil, false
	}
	end := i + n
	if end > len(ra.handles) {
		end = len(ra.handles)
	}
	// PlanSpans clamps the span at any physical gap in the file.
	span := sstable.PlanSpans(ra.handles[i:end], n)[0]
	if len(span) <= 1 {
		return nil, false
	}

	bodies, err := sstable.ReadRawSpan(h.reader.File(), span)
	if err != nil {
		return nil, false
	}
	bulk := make([]pcache.Block, len(span))
	for j, bh := range span {
		bulk[j] = pcache.Block{Off: bh.Offset, Body: bodies[j]}
		db.blockCache.Put(cache.Key{FileNum: fileNum, Offset: bh.Offset}, bodies[j])
	}
	db.pcache.PutBulk(fileNum, bulk)
	ra.nextOff = span[len(span)-1].End()
	db.stats.ReadaheadSpans.Add(1)
	db.stats.ReadaheadBlocks.Add(int64(len(span)))
	return bodies[0], true
}
