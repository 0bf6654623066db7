package pcache

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	"rocksmash/internal/cache"
	"rocksmash/internal/event"
)

const (
	// minRegions is how many regions New wants a cache divided into: with
	// one open region per cached table, 512 keeps the open-region slack of
	// a hundred tables near a tenth of the capacity (it was a third at 128).
	minRegions = 512
	// minRegionBytes stops the division where a region would no longer hold
	// several blocks: eight of the store's default ones.
	minRegionBytes    = 8 * defaultBlockBytes
	defaultBlockBytes = 4 << 10
)

// packedEntry describes one cached block inside a region: 20 bytes per
// block, stored in a sorted slice (the paper's space-efficient metadata).
type packedEntry struct {
	blockOff uint64 // block offset within the SSTable (identity)
	regOff   uint32 // byte offset within the region
	length   uint32
	crc      uint32
}

const packedEntrySize = 20

// region is one allocation unit of the cache file.
type region struct {
	fileNum uint64 // owning SSTable; 0 = free
	used    uint32 // bytes consumed
	// epoch counts the times the region was freed. Bytes written under one
	// epoch never change, so a reader that located an entry, unlocked and
	// read can tell a recycled region from rot by comparing epochs.
	epoch   uint32
	ref     bool // CLOCK reference bit
	entries []packedEntry
}

// packed is the paper's index: the DATA file cut into regions, each owned
// by one SSTable, evicted a region at a time by CLOCK.
type packed struct {
	f           *os.File // nil for a snapshot Inspect decoded
	dir         string
	regionBytes int64
	regions     []region
	byFile      map[uint64][]int32 // fileNum -> region ids (append order)
	openReg     map[uint64]int32   // fileNum -> region currently accepting blocks
	freeList    []int32
	hand        int32 // CLOCK hand
}

const (
	indexMagic   = 0x70636163686531 // "pcache1"
	indexVersion = 1
)

// openPacked opens DATA under opts.Dir with the geometry opts settles on,
// loading and consuming the INDEX snapshot. corrupt reports a snapshot that
// failed its checksum.
func openPacked(opts Options) (p *packed, corrupt bool, err error) {
	rb := opts.RegionBytes
	if rb <= 0 {
		rb = 256 << 10
	}
	rb = min(rb, max(minRegionBytes, opts.CapacityBytes/minRegions))
	f, err := os.OpenFile(filepath.Join(opts.Dir, "DATA"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, false, err
	}
	p = &packed{f: f, dir: opts.Dir, regionBytes: rb}
	n := int(max(opts.CapacityBytes, rb) / rb)
	rbs, regions, err := readIndex(opts.Dir)
	switch {
	case err == nil && (rbs != rb || len(regions) != n):
		err = errStaleIndex // geometry changed: discard
	case errors.Is(err, os.ErrNotExist):
		err = nil // cold start, not an error
	}
	if err != nil || regions == nil {
		// Cold start on any snapshot problem; cache contents are disposable.
		regions = make([]region, n)
	}
	p.install(regions)
	// The snapshot describes DATA as the last clean Close left it, and DATA
	// moves on from here. Consumed once: after a crash the next open finds
	// no snapshot and starts cold, instead of loading this one over regions
	// that have been recycled since and counting their entries as corrupt
	// reads.
	if rerr := os.Remove(filepath.Join(opts.Dir, "INDEX")); rerr != nil && !os.IsNotExist(rerr) {
		f.Close()
		return nil, false, rerr
	}
	return p, errors.Is(err, errBadIndex), nil
}

// install makes regions the index and derives the per-file maps and the
// free list from them.
func (p *packed) install(regions []region) {
	p.regions = regions
	p.byFile = map[uint64][]int32{}
	p.openReg = map[uint64]int32{}
	for i := range regions {
		if fn := regions[i].fileNum; fn != 0 {
			p.byFile[fn] = append(p.byFile[fn], int32(i))
		}
	}
	for i := len(regions) - 1; i >= 0; i-- { // the lowest free region is taken first
		if regions[i].fileNum == 0 {
			p.freeList = append(p.freeList, int32(i))
		}
	}
}

// locate returns the index of blockOff's entry in region id, and whether
// it is there.
func (p *packed) locate(id int32, blockOff uint64) (int, bool) {
	es := p.regions[id].entries
	i := sort.Search(len(es), func(i int) bool { return es[i].blockOff >= blockOff })
	return i, i < len(es) && es[i].blockOff == blockOff
}

func (p *packed) find(fileNum, blockOff uint64, touch bool) (slot, bool) {
	for _, id := range p.byFile[fileNum] {
		if i, ok := p.locate(id, blockOff); ok {
			r := &p.regions[id]
			if touch {
				r.ref = true
			}
			e := r.entries[i]
			return slot{
				fileNum: fileNum, blockOff: blockOff, region: id, epoch: r.epoch,
				at: int64(id)*p.regionBytes + int64(e.regOff), length: e.length, crc: e.crc,
			}, true
		}
	}
	return slot{}, false
}

func (p *packed) read(s slot) ([]byte, error) {
	buf := make([]byte, s.length)
	_, err := p.f.ReadAt(buf, s.at)
	return buf, err
}

// forget removes the block's entry from its region (its bytes stay dead in
// the region until the region is reused), unless the region has been freed
// since find saw it.
func (p *packed) forget(s slot) bool {
	r := &p.regions[s.region]
	if r.epoch != s.epoch {
		return false
	}
	if i, ok := p.locate(s.region, s.blockOff); ok {
		r.entries = append(r.entries[:i], r.entries[i+1:]...)
	}
	return true
}

// admits is the door's rule for regions: with no free region left, a block
// is admitted only if the sketch estimates it above the mean of the region
// CLOCK would recycle next. Space left in the file's open region is
// capacity too, so the door stands in front of it as well.
func (p *packed) admits(sk *cache.Sketch, fileNum, blockOff uint64, _ int) bool {
	if len(p.freeList) > 0 {
		return true
	}
	id, ok := p.peekVictim(fileNum)
	if !ok {
		return true
	}
	r := &p.regions[id]
	var sum int
	for _, e := range r.entries {
		sum += sk.Estimate(cache.Key{FileNum: r.fileNum, Offset: e.blockOff})
	}
	return sk.Estimate(cache.Key{FileNum: fileNum, Offset: blockOff})*len(r.entries) > sum
}

// insert appends the block to the file's open region, allocating (and if
// necessary evicting) a region when it does not fit.
func (p *packed) insert(fileNum, blockOff uint64, body []byte, evs []event.PCacheEvict) (bool, []event.PCacheEvict) {
	id, ok := p.openReg[fileNum]
	if ok && int64(p.regions[id].used)+int64(len(body)) > p.regionBytes {
		ok = false
	}
	if !ok {
		if id, ok, evs = p.allocRegion(fileNum, evs); !ok {
			return false, evs
		}
		p.openReg[fileNum] = id
	}
	r := &p.regions[id]
	if _, err := p.f.WriteAt(body, int64(id)*p.regionBytes+int64(r.used)); err != nil {
		return false, evs
	}
	i, _ := p.locate(id, blockOff)
	r.entries = append(r.entries, packedEntry{})
	copy(r.entries[i+1:], r.entries[i:])
	r.entries[i] = packedEntry{
		blockOff: blockOff, regOff: r.used, length: uint32(len(body)),
		crc: crc32.Checksum(body, castagnoli),
	}
	r.used += uint32(len(body))
	r.ref = true
	return true, evs
}

// allocRegion returns a free region for fileNum, evicting via CLOCK when
// none is free. It never evicts a region of fileNum itself.
func (p *packed) allocRegion(fileNum uint64, evs []event.PCacheEvict) (int32, bool, []event.PCacheEvict) {
	if len(p.freeList) == 0 {
		vid, ok := p.clockVictim(fileNum)
		if !ok {
			return 0, false, evs
		}
		evs = p.evictRegion(vid, "clock", evs)
	}
	id := p.freeList[len(p.freeList)-1]
	p.freeList = p.freeList[:len(p.freeList)-1]
	r := &p.regions[id]
	r.fileNum = fileNum
	r.used = 0
	r.ref = false
	if r.entries == nil {
		// Sized for the store's default blocks once, instead of grown to
		// it by doubling in every one of several hundred regions.
		r.entries = make([]packedEntry, 0, p.regionBytes/defaultBlockBytes)
	}
	r.entries = r.entries[:0]
	p.byFile[fileNum] = append(p.byFile[fileNum], id)
	return id, true, evs
}

// peekVictim returns the region clockVictim would pick, without moving the
// hand or clearing a reference bit: the first region from the hand whose
// bit is clear, else — after the pass that would clear them all — the first
// region from the hand.
func (p *packed) peekVictim(skipFile uint64) (int32, bool) {
	n := int32(len(p.regions))
	first := int32(-1)
	for i := int32(0); i < n; i++ {
		id := (p.hand + i) % n
		r := &p.regions[id]
		if r.fileNum == 0 || r.fileNum == skipFile {
			continue
		}
		if !r.ref {
			return id, true
		}
		if first < 0 {
			first = id
		}
	}
	return first, first >= 0
}

func (p *packed) clockVictim(skipFile uint64) (int32, bool) {
	n := int32(len(p.regions))
	for pass := int32(0); pass < 2*n; pass++ {
		id := p.hand
		p.hand = (p.hand + 1) % n
		r := &p.regions[id]
		if r.fileNum == 0 || r.fileNum == skipFile {
			continue
		}
		if r.ref {
			r.ref = false
			continue
		}
		return id, true
	}
	return 0, false
}

// evictRegion frees one region and unlinks it from its file.
func (p *packed) evictRegion(id int32, reason string, evs []event.PCacheEvict) []event.PCacheEvict {
	r := &p.regions[id]
	fn := r.fileNum
	evs = append(evs, event.PCacheEvict{File: fn, Blocks: len(r.entries), Bytes: int64(r.used), Reason: reason})
	ids := p.byFile[fn]
	for i, x := range ids {
		if x == id {
			p.byFile[fn] = append(ids[:i], ids[i+1:]...)
			break
		}
	}
	if len(p.byFile[fn]) == 0 {
		delete(p.byFile, fn)
	}
	if open, ok := p.openReg[fn]; ok && open == id {
		delete(p.openReg, fn)
	}
	r.fileNum = 0
	r.used = 0
	r.epoch++
	r.ref = false
	r.entries = r.entries[:0]
	p.freeList = append(p.freeList, id)
	return evs
}

// dropFile frees the file's regions: constant time per region, the
// compaction-aware win over per-block eviction.
func (p *packed) dropFile(fileNum uint64, evs []event.PCacheEvict) []event.PCacheEvict {
	for _, id := range append([]int32(nil), p.byFile[fileNum]...) {
		evs = p.evictRegion(id, "drop-file", evs)
	}
	return evs
}

// usage charges the exact packed-index footprint.
func (p *packed) usage() (blocks int, used, meta int64) {
	for i := range p.regions {
		r := &p.regions[i]
		blocks += len(r.entries)
		used += int64(r.used)
		// Per-region fixed header (fileNum, used, epoch, ref, slice header).
		meta += 8 + 4 + 4 + 1 + 24 + int64(len(r.entries))*packedEntrySize
	}
	// byFile / openReg maps are per *file*, not per block; charge them too.
	meta += int64(len(p.byFile))*(8+24) + int64(len(p.openReg))*(8+4)
	return blocks, used, meta
}

// close snapshots the index so a restart can warm-start, and releases DATA.
func (p *packed) close() error {
	var buf []byte
	buf = binary.LittleEndian.AppendUint64(buf, indexMagic)
	buf = binary.LittleEndian.AppendUint32(buf, indexVersion)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(p.regionBytes))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.regions)))
	for i := range p.regions {
		r := &p.regions[i]
		buf = binary.LittleEndian.AppendUint64(buf, r.fileNum)
		buf = binary.LittleEndian.AppendUint32(buf, r.used)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.entries)))
		for _, e := range r.entries {
			buf = binary.LittleEndian.AppendUint64(buf, e.blockOff)
			buf = binary.LittleEndian.AppendUint32(buf, e.regOff)
			buf = binary.LittleEndian.AppendUint32(buf, e.length)
			buf = binary.LittleEndian.AppendUint32(buf, e.crc)
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
	tmp := filepath.Join(p.dir, "INDEX.tmp")
	err := os.WriteFile(tmp, buf, 0o644)
	if err == nil {
		err = os.Rename(tmp, filepath.Join(p.dir, "INDEX"))
	}
	return errors.Join(err, p.f.Close())
}

var (
	errBadIndex = errors.New("pcache: bad index snapshot")
	// errStaleIndex marks a structurally intact snapshot written under a
	// different geometry or format version: a clean invalidation, not
	// corruption (IndexWasCorrupt stays false).
	errStaleIndex = errors.New("pcache: stale index snapshot")
)

// readIndex decodes dir's INDEX snapshot: the region size it was written
// under and its regions. A missing snapshot is an os.ErrNotExist.
func readIndex(dir string) (regionBytes int64, regions []region, err error) {
	data, err := os.ReadFile(filepath.Join(dir, "INDEX"))
	if err != nil {
		return 0, nil, err
	}
	if len(data) < 28 {
		return 0, nil, errBadIndex
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(tail) ||
		binary.LittleEndian.Uint64(body) != indexMagic {
		return 0, nil, errBadIndex
	}
	if binary.LittleEndian.Uint32(body[8:]) != indexVersion {
		return 0, nil, errStaleIndex
	}
	regionBytes = int64(binary.LittleEndian.Uint64(body[12:]))
	n := binary.LittleEndian.Uint32(body[20:])
	p := body[24:]
	regions = make([]region, n)
	for i := range regions {
		if len(p) < 16 {
			return 0, nil, errBadIndex
		}
		r := &regions[i]
		r.fileNum = binary.LittleEndian.Uint64(p)
		r.used = binary.LittleEndian.Uint32(p[8:])
		cnt := binary.LittleEndian.Uint32(p[12:])
		p = p[16:]
		if len(p) < int(cnt)*packedEntrySize {
			return 0, nil, errBadIndex
		}
		for j := uint32(0); j < cnt; j++ {
			r.entries = append(r.entries, packedEntry{
				blockOff: binary.LittleEndian.Uint64(p),
				regOff:   binary.LittleEndian.Uint32(p[8:]),
				length:   binary.LittleEndian.Uint32(p[12:]),
				crc:      binary.LittleEndian.Uint32(p[16:]),
			})
			p = p[packedEntrySize:]
		}
	}
	return regionBytes, regions, nil
}

// Inspect summarizes the INDEX snapshot under dir — what the next open of
// the cache will find — in the geometry the snapshot records. It reads the
// snapshot only: nothing is removed or rewritten, so the cache stays warm.
// With no snapshot (the store is open, or did not close cleanly) the error
// is an os.ErrNotExist.
func Inspect(dir string) (string, error) {
	rb, regions, err := readIndex(dir)
	if err != nil {
		return "", err
	}
	p := &packed{regionBytes: rb}
	p.install(regions)
	blocks, used, meta := p.usage()
	total := int64(len(regions)) * rb
	return fmt.Sprintf("pcache{regions=%d x %dB free=%d blocks=%d used=%dB (%.2f of capacity) meta=%dB}",
		len(regions), rb, len(p.freeList), blocks, used, float64(used)/float64(max(total, 1)), meta), nil
}
