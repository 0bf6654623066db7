package db

import (
	"bytes"
	"errors"

	"rocksmash/internal/keys"
	"rocksmash/internal/manifest"
	"rocksmash/internal/memtable"
	"rocksmash/internal/readprof"
	"rocksmash/internal/skiplist"
	"rocksmash/internal/sstable"
)

// internalIterator walks internal keys in either direction.
type internalIterator interface {
	First()
	Last()
	SeekGE(ikey []byte)
	SeekLT(ikey []byte)
	Next()
	Prev()
	Valid() bool
	Key() []byte
	Value() []byte
	Err() error
	Close() error
}

// memIter adapts the skiplist iterator, held by value.
type memIter struct {
	it skiplist.Iterator
}

func (m *memIter) First()             { m.it.First() }
func (m *memIter) Last()              { m.it.Last() }
func (m *memIter) SeekGE(ikey []byte) { m.it.SeekGE(ikey) }
func (m *memIter) SeekLT(ikey []byte) { m.it.SeekLT(ikey) }
func (m *memIter) Next()              { m.it.Next() }
func (m *memIter) Prev()              { m.it.Prev() }
func (m *memIter) Valid() bool        { return m.it.Valid() }
func (m *memIter) Key() []byte        { return m.it.Key() }
func (m *memIter) Value() []byte      { return m.it.Value() }
func (m *memIter) Err() error         { return nil }
func (m *memIter) Close() error       { return nil }

// runIter adapts the iterator of a sorted run rebuilt by WAL recovery.
type runIter struct{ *memtable.RunIterator }

func (runIter) Err() error   { return nil }
func (runIter) Close() error { return nil }

// tableIter adapts one table's iterator, holding its handle reference. It
// holds the iterator by value, and the data block keys start in keyBuf.
type tableIter struct {
	h      *tableHandle
	it     sstable.Iter
	keyBuf [iterKeyScratch]byte
}

// init makes t an unpositioned walk of h's table, taking over the caller's
// reference. t stays where it is from then on: its key buffer is its own.
func (t *tableIter) init(h *tableHandle) {
	t.h = h
	h.reader.InitIter(&t.it, t.keyBuf[:])
}

func (t *tableIter) First()             { t.it.First() }
func (t *tableIter) Last()              { t.it.Last() }
func (t *tableIter) SeekGE(ikey []byte) { t.it.SeekGE(ikey) }
func (t *tableIter) SeekLT(ikey []byte) { t.it.SeekLT(ikey) }
func (t *tableIter) Next()              { t.it.Next() }
func (t *tableIter) Prev()              { t.it.Prev() }
func (t *tableIter) Valid() bool        { return t.it.Valid() }
func (t *tableIter) Key() []byte        { return t.it.Key() }
func (t *tableIter) Value() []byte      { return t.it.Value() }
func (t *tableIter) Err() error         { return t.it.Err() }
func (t *tableIter) Close() error {
	if t.h != nil {
		t.h.release()
		t.h = nil
	}
	return nil
}

// mergingIter N-way merges child iterators in either direction. Ties on
// identical internal keys cannot occur (sequence numbers are unique); ties
// on user keys resolve by internal-key order, which puts newer entries
// first when moving forward. Switching direction mid-stream re-seeks the
// non-current children around the current key (the LevelDB technique).
//
// Child selection runs on a loser tree: internal nodes 1..k-1 record the
// loser of their match and tree[0] the overall winner, so a seek costs one
// full O(k) tournament but every advance replays only the winner's
// leaf-to-root path — O(log k) compares instead of the former linear
// findSmallest/findLargest scan.
type mergingIter struct {
	children []internalIterator
	tree     []int // loser tree over child indices; tree[0] is the winner; starts in treeBuf
	cur      int   // index of child at the merge frontier, -1 if exhausted
	reverse  bool
	pivot    []byte // scratch: the current key while a direction switch re-seeks the other children
	err      error

	treeBuf [iterChildren]int
}

func newMergingIter(children ...internalIterator) *mergingIter {
	m := &mergingIter{}
	m.init(children)
	return m
}

// init makes m an unpositioned merge of children. m stays where it is from
// then on: its loser tree starts in an array of its own.
func (m *mergingIter) init(children []internalIterator) {
	m.children, m.cur = children, -1
}

// beats reports whether child a precedes child b in the current direction.
// Exhausted children always lose, and the (exhausted, exhausted) tie breaks
// by index, so the order is total.
func (m *mergingIter) beats(a, b int) bool {
	av, bv := m.children[a].Valid(), m.children[b].Valid()
	switch {
	case !av && !bv:
		return a < b
	case !av:
		return false
	case !bv:
		return true
	}
	if c := keys.Compare(m.children[a].Key(), m.children[b].Key()); c != 0 {
		if m.reverse {
			return c > 0
		}
		return c < 0
	}
	return a < b
}

// initNode computes the winner of the subtree rooted at node, recording
// each match's loser at its internal node. Leaves live at k..2k-1; leaf
// k+i stands for child i.
func (m *mergingIter) initNode(node int) int {
	if k := len(m.children); node >= k {
		return node - k
	}
	a := m.initNode(2 * node)
	b := m.initNode(2*node + 1)
	if m.beats(a, b) {
		m.tree[node] = b
		return a
	}
	m.tree[node] = a
	return b
}

// build replays the whole tournament (after a seek or direction switch).
func (m *mergingIter) build() {
	k := len(m.children)
	if k == 0 {
		m.cur = -1
		return
	}
	if m.tree == nil {
		if k <= len(m.treeBuf) {
			m.tree = m.treeBuf[:k]
		} else {
			m.tree = make([]int, k)
		}
	}
	if k == 1 {
		m.tree[0] = 0
	} else {
		m.tree[0] = m.initNode(1)
	}
	m.setCur()
}

// fix replays only the advanced winner's leaf-to-root path.
func (m *mergingIter) fix(w int) {
	if k := len(m.children); k >= 2 {
		for node := (w + k) / 2; node >= 1; node /= 2 {
			if m.beats(m.tree[node], w) {
				m.tree[node], w = w, m.tree[node]
			}
		}
		m.tree[0] = w
	}
	m.setCur()
}

func (m *mergingIter) setCur() {
	if w := m.tree[0]; m.children[w].Valid() {
		m.cur = w
	} else {
		m.cur = -1
	}
}

// captureErrs folds every child's error state, preserving the contract
// that a child failure surfaces on the next positioning check.
func (m *mergingIter) captureErrs() {
	for _, c := range m.children {
		if err := c.Err(); err != nil && m.err == nil {
			m.err = err
		}
	}
}

// prefetch fans a forward positioning to ikey (First when nil) out before
// any child waits: every view child but skip starts the cloud GET its
// positioning needs, so the merge pays one round trip however many cloud
// levels it seeks.
func (m *mergingIter) prefetch(ikey []byte, skip int) {
	for i, c := range m.children {
		if vi, ok := c.(*viewIter); ok && i != skip {
			vi.prefetch(ikey)
		}
	}
}

func (m *mergingIter) First() {
	m.prefetch(nil, -1)
	for _, c := range m.children {
		c.First()
	}
	m.reverse = false
	m.captureErrs()
	m.build()
}

func (m *mergingIter) Last() {
	for _, c := range m.children {
		c.Last()
	}
	m.reverse = true
	m.captureErrs()
	m.build()
}

func (m *mergingIter) SeekGE(ikey []byte) {
	m.prefetch(ikey, -1)
	for _, c := range m.children {
		c.SeekGE(ikey)
	}
	m.reverse = false
	m.captureErrs()
	m.build()
}

func (m *mergingIter) SeekLT(ikey []byte) {
	for _, c := range m.children {
		c.SeekLT(ikey)
	}
	m.reverse = true
	m.captureErrs()
	m.build()
}

func (m *mergingIter) Next() {
	if m.cur < 0 {
		return
	}
	if m.reverse {
		// Direction switch: every other child must be repositioned to the
		// first key after the current one. Internal keys are unique, so
		// SeekGE(current) cannot land on an equal key in other children.
		m.pivot = append(m.pivot[:0], m.children[m.cur].Key()...)
		m.prefetch(m.pivot, m.cur)
		for i, c := range m.children {
			if i != m.cur {
				c.SeekGE(m.pivot)
			}
		}
		m.reverse = false
		m.children[m.cur].Next()
		m.captureErrs()
		m.build()
		return
	}
	w := m.cur
	m.children[w].Next()
	if err := m.children[w].Err(); err != nil && m.err == nil {
		m.err = err
	}
	m.fix(w)
}

func (m *mergingIter) Prev() {
	if m.cur < 0 {
		return
	}
	if !m.reverse {
		// Direction switch: reposition the other children to the last key
		// before the current one.
		m.pivot = append(m.pivot[:0], m.children[m.cur].Key()...)
		for i, c := range m.children {
			if i != m.cur {
				c.SeekLT(m.pivot)
			}
		}
		m.reverse = true
		m.children[m.cur].Prev()
		m.captureErrs()
		m.build()
		return
	}
	w := m.cur
	m.children[w].Prev()
	if err := m.children[w].Err(); err != nil && m.err == nil {
		m.err = err
	}
	m.fix(w)
}

func (m *mergingIter) Valid() bool   { return m.cur >= 0 && m.err == nil }
func (m *mergingIter) Key() []byte   { return m.children[m.cur].Key() }
func (m *mergingIter) Value() []byte { return m.children[m.cur].Value() }
func (m *mergingIter) Err() error    { return m.err }
func (m *mergingIter) Close() error {
	var firstErr error
	for _, c := range m.children {
		if err := c.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if m.err != nil {
		return m.err
	}
	return firstErr
}

// Iterator is the user-facing bidirectional iterator over live keys at a
// snapshot. One merge walks every engine's children — level views,
// memtables, L0 tables — together: sequence numbers come from the one shared
// seqSource and engine keyspaces are disjoint, so internal keys are unique
// across engines. The iterator collapses internal versions: for each user
// key the newest visible entry wins, and tombstones hide older versions.
//
// The iterator is one object holding the merge and its loser tree, the
// engine's hold and memtable iterators, the child list and the scratch its
// moves assemble keys and values in. An engine's level walks are one more
// allocation and its L0 table iterators another; a store of several engines
// adds one for their parts. It is not recycled: a span GET in flight may
// still hold a part of it after Close (scanHold), so the collector owns its
// lifetime.
type Iterator struct {
	merged mergingIter
	seq    uint64
	// parts[i] is engine i's: its hold pins the version, whose view children
	// open their tables lazily, as the walk reaches them. Sized once, before
	// any child points into it. A pin and its views' tables outlive Close
	// while a view's span GETs are in flight.
	parts []engineIters

	// prof accumulates the iterator's data-block reads by source tier over
	// its whole lifetime (nil once Close has folded it in); seeks counts
	// positioning operations. Both fold into the first engine's scan-side
	// aggregates at Close, kept separate from per-Get read-amp accounting.
	// nkeys counts live keys yielded, the denominator of the store's
	// blocks-per-scanned-key rate.
	prof  *readprof.Profile
	seeks int64
	nkeys int64

	key    []byte
	value  []byte
	valid  bool
	err    error
	closed bool

	// Scratch the iterator owns, so a move allocates nothing once they have
	// grown: seek holds the internal key handed to the merged iterator, skip
	// the user key whose remaining versions the next settle must pass over.
	seek []byte
	skip []byte

	// The tree's own storage: the single engine's part, the child list and
	// the buffers seek, skip, key and value start in.
	one      [1]engineIters
	children [iterChildren]internalIterator
	seekBuf  [iterKeyScratch]byte
	skipBuf  [iterKeyScratch]byte
	keyBuf   [iterKeyScratch]byte
	valueBuf [iterValueScratch]byte
}

const (
	// iterChildren is the child list an iterator holds inline: an engine's
	// six deeper levels, two memtables and a few L0 tables, or four engines'
	// memtables and a table each. More children grow it.
	iterChildren = 16
	// iterKeyScratch is the room for an internal key that a tree's buffers
	// start with, and iterValueScratch for a value: a longer one grows the
	// buffer once, as before.
	iterKeyScratch   = 64
	iterValueScratch = 512
)

// engineIters is one engine's part of an iterator tree: the hold on what
// its children borrow and its memtable iterators, held by value.
type engineIters struct {
	hold     scanHold
	mem, imm memIter
}

// NewIterator returns an iterator over the DB at the current sequence.
func (d *DB) NewIterator() (*Iterator, error) {
	for {
		// Catch the global watermark up to the acked frontier so every write
		// that returned before this call is inside the merged view.
		d.seqs.waitVisible(d.ackedSeq())
		it, err := d.NewIteratorAt(d.seqs.visible.Load())
		if err != nil || !d.droppedAbove(it.seq) {
			return it, err
		}
		// A compaction that began after the sequence was taken may have
		// dropped, from the versions just pinned, what it should see.
		_ = it.Close()
	}
}

// NewIteratorAt returns an iterator at snapshot seq.
func (d *DB) NewIteratorAt(seq uint64) (*Iterator, error) {
	if d.closed.Load() {
		return nil, ErrClosed
	}
	it := &Iterator{seq: seq, prof: d.engines[0].newProfile()}
	it.seek, it.skip = it.seekBuf[:0], it.skipBuf[:0]
	it.key, it.value = it.keyBuf[:0], it.valueBuf[:0]
	if it.parts = it.one[:]; len(d.engines) > 1 {
		it.parts = make([]engineIters, len(d.engines))
	}
	children := it.children[:0]
	var err error
	for i, e := range d.engines {
		if children, err = e.iterChildren(children, &it.parts[i], it.prof); err != nil {
			it.parts = it.parts[:i+1]
			break
		}
	}
	it.merged.init(children)
	if err != nil {
		_ = it.Close()
		return nil, err
	}
	return it, nil
}

// iterChildren pins the engine's current version in its part's hold and
// appends the engine's iterators at it to children: one view per populated
// level below L0, then the memtables, then the L0 tables. The level walks
// share one allocation, and so do the L0 table iterators.
func (d *engine) iterChildren(children []internalIterator, part *engineIters, prof *readprof.Profile) ([]internalIterator, error) {
	rs := d.rs.Load()
	v := d.vs.Acquire()
	hold := &part.hold
	hold.init(d, v)
	populated := 0
	for lvl := 1; lvl < manifest.NumLevels; lvl++ {
		if len(v.Levels[lvl]) > 0 {
			populated++
		}
	}
	if populated > 0 {
		hold.views = make([]viewIter, 0, populated)
	}
	// Every level below L0 is one cursor run along its sorted view.
	for lvl := 1; lvl < manifest.NumLevels; lvl++ {
		vw, err := d.levelView(v, lvl)
		if err != nil {
			return children, err
		}
		if len(v.Levels[lvl]) > 0 {
			hold.views = hold.views[:len(hold.views)+1]
			vi := &hold.views[len(hold.views)-1]
			vi.init(d, hold, vw, v.Levels[lvl], prof)
			children = append(children, vi)
		}
	}
	rs.mem.InitIterator(&part.mem.it)
	children = append(children, &part.mem)
	if rs.imm != nil {
		rs.imm.InitIterator(&part.imm.it)
		children = append(children, &part.imm)
	}
	for _, r := range rs.recovered {
		children = append(children, runIter{r.NewIterator()})
	}
	if len(v.Levels[0]) == 0 {
		return children, nil
	}
	tables := make([]tableIter, len(v.Levels[0]))
	for i, f := range v.Levels[0] {
		h, err := d.tables.get(d, f)
		if err != nil {
			return children, err
		}
		ti := &tables[i]
		ti.init(h)
		ti.it.SetProfile(prof)
		children = append(children, ti)
	}
	return children, nil
}

// NewIteratorSnapshot returns an iterator bound to a snapshot.
func (s *Snapshot) NewIterator() (*Iterator, error) { return s.db.NewIteratorAt(s.seq) }

// First positions at the smallest live key.
func (it *Iterator) First() {
	it.seeks++
	it.merged.First()
	it.settle(nil)
}

// Seek positions at the first live key >= ukey.
func (it *Iterator) Seek(ukey []byte) {
	it.seeks++
	it.seek = keys.MakeSeekKey(it.seek[:0], ukey, it.seq)
	it.merged.SeekGE(it.seek)
	it.settle(nil)
}

// Next advances to the following live key.
func (it *Iterator) Next() {
	if !it.Valid() {
		return
	}
	it.skip = append(it.skip[:0], it.key...)
	if it.merged.Valid() {
		it.merged.Next()
	} else {
		// The merged iterator was exhausted in the other direction while
		// we still hold a position; re-establish it.
		it.seek = keys.MakeSeekKey(it.seek[:0], it.skip, it.seq)
		it.merged.SeekGE(it.seek)
	}
	it.settle(it.skip)
}

// Last positions at the largest live key.
func (it *Iterator) Last() {
	it.seeks++
	it.merged.Last()
	it.settleReverse(nil)
}

// SeekForPrev positions at the last live key <= ukey.
func (it *Iterator) SeekForPrev(ukey []byte) {
	it.seeks++
	// ukey++"\x00" is the immediate successor user key: every entry of
	// ukey itself sorts before it.
	succ := append(append(it.seek[:0], ukey...), 0)
	it.seek = keys.MakeSeekKey(succ, nil, keys.MaxSequence) // appends the trailer only
	it.merged.SeekLT(it.seek)
	it.settleReverse(nil)
}

// Prev moves to the preceding live key.
func (it *Iterator) Prev() {
	if !it.Valid() {
		return
	}
	it.skip = append(it.skip[:0], it.key...)
	bound := it.skip
	switch {
	case !it.merged.Valid():
		// Exhausted forward while positioned: re-establish backward. The
		// seek key for (bound, MaxSequence) sorts before every entry of
		// bound, so SeekLT lands on the previous user key's entries.
		it.seek = keys.MakeSeekKey(it.seek[:0], bound, keys.MaxSequence)
		it.merged.SeekLT(it.seek)
	case bytes.Equal(keys.UserKey(it.merged.Key()), bound):
		// Forward positioning leaves the merged iterator ON the yielded
		// entry; step off it (settleReverse skips its other versions).
		it.merged.Prev()
	default:
		// Reverse positioning leaves the merged iterator on the next
		// unprocessed entry already; do not skip it.
	}
	it.settleReverse(bound)
}

// settle advances the merged iterator until it rests on the newest visible,
// live entry of a user key different from skipKey (nil, or it.skip).
func (it *Iterator) settle(skipKey []byte) {
	it.valid = false
	for it.merged.Valid() {
		ik := it.merged.Key()
		if !keys.Valid(ik) {
			it.err = errors.New("db: invalid internal key in iterator")
			return
		}
		uk := keys.UserKey(ik)
		seq, kind := keys.DecodeTrailer(ik)
		switch {
		case seq > it.seq:
			// Not visible at this snapshot.
		case skipKey != nil && bytes.Equal(uk, skipKey):
			// Older version of a key already yielded (or skipped).
		case kind == keys.KindDelete:
			// Tombstone hides everything older for this key.
			it.skip = append(it.skip[:0], uk...)
			skipKey = it.skip
		default:
			it.key = append(it.key[:0], uk...)
			it.value = append(it.value[:0], it.merged.Value()...)
			it.valid = true
			it.nkeys++
			return
		}
		it.merged.Next()
	}
	if err := it.merged.Err(); err != nil {
		it.err = err
	}
}

// settleReverse walks the merged iterator backward until it rests on the
// newest visible live entry of the largest user key below the current
// position (skipping boundKey, which was already yielded; nil, or it.skip).
// Moving backward visits a key's versions oldest-first, so the candidate for
// a key is refreshed until the key changes; the final candidate is the newest
// visible version, and a tombstone candidate hides the key entirely. The
// candidate is kept in it.key / it.value, which mean nothing until valid is
// set.
func (it *Iterator) settleReverse(boundKey []byte) {
	it.valid = false
	var curLive, have bool
	for it.merged.Valid() {
		ik := it.merged.Key()
		if !keys.Valid(ik) {
			it.err = errors.New("db: invalid internal key in iterator")
			return
		}
		uk := keys.UserKey(ik)
		seq, kind := keys.DecodeTrailer(ik)

		if boundKey != nil && bytes.Equal(uk, boundKey) {
			it.merged.Prev()
			continue
		}
		if have && !bytes.Equal(uk, it.key) {
			// Finished the previous key's versions; its candidate is the
			// newest visible one.
			if curLive {
				break
			}
			// Tombstone: the key is dead, keep scanning backward.
			have = false
		}
		if seq <= it.seq {
			it.key = append(it.key[:0], uk...)
			curLive = kind == keys.KindSet
			if curLive {
				it.value = append(it.value[:0], it.merged.Value()...)
			}
			have = true
		}
		it.merged.Prev()
	}
	if err := it.merged.Err(); err != nil {
		it.err = err
		return
	}
	if have && curLive {
		it.valid = true
		it.nkeys++
	}
}

// Valid reports whether the iterator is positioned on a live entry.
func (it *Iterator) Valid() bool { return it.valid && it.err == nil }

// Key returns the current user key (stable until the next move).
func (it *Iterator) Key() []byte { return it.key }

// Value returns the current value (stable until the next move).
func (it *Iterator) Value() []byte { return it.value }

// Err returns the first error encountered.
func (it *Iterator) Err() error { return it.err }

// Close releases table references, lets go of the iterator's holds and
// folds its counters into the first engine's aggregates. Iterators must be
// closed. It does not wait for readahead in flight: a hold's version pin
// and its views' tables go with the last of its span GETs to land.
func (it *Iterator) Close() error {
	if it.closed {
		return it.err
	}
	it.closed = true
	it.valid = false
	if err := it.merged.Close(); err != nil && it.err == nil {
		it.err = err
	}
	for i := range it.parts {
		it.parts[i].hold.release()
	}
	d := it.parts[0].hold.d
	if it.nkeys > 0 {
		d.stats.IterKeys.Add(it.nkeys)
	}
	d.readAgg.mergeIter(it.prof, it.seeks)
	profilePool.Put(it.prof)
	it.prof = nil
	return it.err
}
