package db

import (
	"bytes"
	"errors"

	"rocksmash/internal/keys"
	"rocksmash/internal/manifest"
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

// memIter adapts the skiplist iterator.
type memIter struct {
	it *skiplist.Iterator
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

// tableIter adapts one table's iterator, holding its handle reference.
type tableIter struct {
	h  *tableHandle
	it *sstable.Iter
}

func newTableIter(h *tableHandle) *tableIter {
	return &tableIter{h: h, it: h.reader.NewIter()}
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

// levelIter concatenates the sorted, non-overlapping files of one level
// (≥ 1), opening at most one table at a time.
type levelIter struct {
	db    *engine
	files []*manifest.FileMetadata
	idx   int
	cur   *tableIter
	prof  *readprof.Profile // attached to each lazily opened table iter
	err   error
}

func newLevelIter(db *engine, files []*manifest.FileMetadata) *levelIter {
	return &levelIter{db: db, files: files, idx: -1}
}

func (l *levelIter) openFile(i int) bool {
	if l.cur != nil {
		l.cur.Close()
		l.cur = nil
	}
	if i < 0 || i >= len(l.files) {
		l.idx = len(l.files)
		return false
	}
	h, err := l.db.tables.get(l.db, l.files[i])
	if err != nil {
		l.err = err
		l.idx = len(l.files)
		return false
	}
	l.cur = newTableIter(h)
	l.cur.it.SetProfile(l.prof)
	l.idx = i
	return true
}

func (l *levelIter) First() {
	if l.openFile(0) {
		l.cur.First()
		l.skipExhausted()
	}
}

func (l *levelIter) SeekGE(ikey []byte) {
	// Find the first file whose largest >= ikey.
	lo, hi := 0, len(l.files)
	for lo < hi {
		mid := (lo + hi) / 2
		if keys.Compare(l.files[mid].Largest, ikey) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if l.openFile(lo) {
		l.cur.SeekGE(ikey)
		l.skipExhausted()
	}
}

func (l *levelIter) Next() {
	if l.cur == nil {
		return
	}
	l.cur.Next()
	l.skipExhausted()
}

// Last positions at the final entry of the level.
func (l *levelIter) Last() {
	if l.openFile(len(l.files) - 1) {
		l.cur.Last()
		l.skipExhaustedBackward()
	}
}

// SeekLT positions at the last entry with key < ikey.
func (l *levelIter) SeekLT(ikey []byte) {
	// Find the last file whose smallest < ikey.
	lo, hi := 0, len(l.files)
	for lo < hi {
		mid := (lo + hi) / 2
		if keys.Compare(l.files[mid].Smallest, ikey) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if l.openFile(lo - 1) {
		l.cur.SeekLT(ikey)
		l.skipExhaustedBackward()
	}
}

// Prev moves one entry backward, crossing file boundaries as needed.
func (l *levelIter) Prev() {
	if l.cur == nil {
		return
	}
	l.cur.Prev()
	l.skipExhaustedBackward()
}

func (l *levelIter) skipExhausted() {
	for l.cur != nil && !l.cur.Valid() {
		if err := l.cur.Err(); err != nil {
			l.err = err
			l.cur.Close()
			l.cur = nil
			return
		}
		if !l.openFile(l.idx + 1) {
			return
		}
		l.cur.First()
	}
}

func (l *levelIter) skipExhaustedBackward() {
	for l.cur != nil && !l.cur.Valid() {
		if err := l.cur.Err(); err != nil {
			l.err = err
			l.cur.Close()
			l.cur = nil
			return
		}
		if !l.openFile(l.idx - 1) {
			return
		}
		l.cur.Last()
	}
}

func (l *levelIter) Valid() bool { return l.cur != nil && l.cur.Valid() }
func (l *levelIter) Key() []byte {
	return l.cur.Key()
}
func (l *levelIter) Value() []byte { return l.cur.Value() }
func (l *levelIter) Err() error    { return l.err }
func (l *levelIter) Close() error {
	if l.cur != nil {
		l.cur.Close()
		l.cur = nil
	}
	return l.err
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
	tree     []int // loser tree over child indices; tree[0] is the winner
	cur      int   // index of child at the merge frontier, -1 if exhausted
	reverse  bool
	pivot    []byte // scratch: the current key while a direction switch re-seeks the other children
	err      error
}

func newMergingIter(children ...internalIterator) *mergingIter {
	return &mergingIter{children: children, cur: -1}
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
		m.tree = make([]int, k)
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

func (m *mergingIter) First() {
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

// engineIter is the bidirectional iterator over one engine's live keys at a
// snapshot. It collapses internal versions: for each user key the newest
// visible entry wins, and tombstones hide older versions.
type engineIter struct {
	db     *engine
	merged internalIterator
	seq    uint64
	// v is the version the iterator walks, pinned until close: its level and
	// view children open their tables lazily, as the walk reaches them.
	v *manifest.Version

	// prof accumulates the iterator's data-block reads by source tier over
	// its whole lifetime (nil when profiling is disabled); seeks counts
	// positioning operations. Both fold into the engine's scan-side
	// aggregates at Close, kept separate from per-Get read-amp accounting.
	// nkeys counts live keys yielded, the denominator of the store's
	// blocks-per-scanned-key rate.
	prof  *readprof.Profile
	seeks int64
	nkeys int64

	key   []byte
	value []byte
	valid bool
	err   error

	// Scratch the iterator owns, so a move allocates nothing once they have
	// grown: seek holds the internal key handed to the merged iterator, skip
	// the user key whose remaining versions the next settle must pass over.
	seek []byte
	skip []byte
}

// newIter builds the engine's iterator at snapshot seq.
func (d *engine) newIter(seq uint64) (engineIter, error) {
	rs := d.rs.Load()
	mem, imm := rs.mem, rs.imm
	recovered := rs.recovered
	v := d.vs.Acquire()

	var prof *readprof.Profile
	if rate := d.opts.ReadProfileSampleRate; rate > 0 {
		prof = getProfile()
		prof.Timed = rate == 1 || d.profTick.Add(1)%uint64(rate) == 0
	}

	var children []internalIterator
	children = append(children, &memIter{mem.NewIterator()})
	if imm != nil {
		children = append(children, &memIter{imm.NewIterator()})
	}
	for _, m := range recovered {
		children = append(children, &memIter{m.NewIterator()})
	}
	for _, f := range v.Levels[0] {
		h, err := d.tables.get(d, f)
		if err != nil {
			for _, c := range children {
				c.Close()
			}
			if prof != nil {
				profilePool.Put(prof)
			}
			d.unpin(v)
			return engineIter{}, err
		}
		ti := newTableIter(h)
		ti.it.SetProfile(prof)
		children = append(children, ti)
	}
	for lvl := 1; lvl < manifest.NumLevels; lvl++ {
		files := v.Levels[lvl]
		if len(files) == 0 {
			continue
		}
		// A fresh sorted view replaces the level's lazy per-table merge with
		// one cursor run; a stale or still-building view falls back to the
		// plain levelIter (and records the miss so the rebuild lag is
		// observable).
		if vw := d.viewFor(lvl, files); vw != nil {
			vi := newViewIter(d, vw, files)
			vi.prof = prof
			children = append(children, vi)
			d.stats.ScanViewHits.Add(1)
			if prof != nil {
				prof.ViewHits++
			}
			continue
		}
		if !d.opts.DisableSortedViews {
			d.stats.ScanViewMisses.Add(1)
			if prof != nil {
				prof.ViewMisses++
			}
		}
		li := newLevelIter(d, files)
		li.prof = prof
		children = append(children, li)
	}
	return engineIter{db: d, merged: newMergingIter(children...), seq: seq, v: v, prof: prof}, nil
}

// First positions at the smallest live key.
func (it *engineIter) First() {
	it.seeks++
	it.merged.First()
	it.settle(nil)
}

// Seek positions at the first live key >= ukey.
func (it *engineIter) Seek(ukey []byte) {
	it.seeks++
	it.seek = keys.MakeSeekKey(it.seek[:0], ukey, it.seq)
	it.merged.SeekGE(it.seek)
	it.settle(nil)
}

// Next advances to the following live key; the caller checked valid.
func (it *engineIter) Next() {
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
func (it *engineIter) Last() {
	it.seeks++
	it.merged.Last()
	it.settleReverse(nil)
}

// SeekForPrev positions at the last live key <= ukey.
func (it *engineIter) SeekForPrev(ukey []byte) {
	it.seeks++
	// ukey++"\x00" is the immediate successor user key: every entry of
	// ukey itself sorts before it.
	succ := append(append(it.seek[:0], ukey...), 0)
	it.seek = keys.MakeSeekKey(succ, nil, keys.MaxSequence) // appends the trailer only
	it.merged.SeekLT(it.seek)
	it.settleReverse(nil)
}

// Prev moves to the preceding live key; the caller checked valid.
func (it *engineIter) Prev() {
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
func (it *engineIter) settle(skipKey []byte) {
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
func (it *engineIter) settleReverse(boundKey []byte) {
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

// close releases table references and the version pin, and folds the
// iterator's counters into its engine's aggregates.
func (it *engineIter) close() error {
	err := it.merged.Close()
	it.db.unpin(it.v)
	if it.nkeys > 0 {
		it.db.stats.IterKeys.Add(it.nkeys)
	}
	if it.prof != nil {
		it.db.readAgg.mergeIter(it.prof, it.seeks)
		profilePool.Put(it.prof)
		it.prof = nil
	}
	return err
}

// Iterator is the user-facing bidirectional iterator over live keys at a
// snapshot: one engineIter per engine, all bound to the same snapshot
// sequence, merged by user key. Engine keyspaces are disjoint, so no
// deduplication is needed — the smallest (or largest, in reverse) valid
// child is the current entry.
type Iterator struct {
	kids []engineIter
	cur  int  // index of the child at the merge frontier, -1 when exhausted
	rev  bool // merge direction

	// key and value alias the frontier child's buffers, which only change
	// when this iterator moves it.
	key    []byte
	value  []byte
	valid  bool
	err    error
	closed bool
}

// NewIterator returns an iterator over the DB at the current sequence.
func (d *DB) NewIterator() (*Iterator, error) {
	// Catch the global watermark up to the acked frontier so every write
	// that returned before this call is inside the merged view.
	d.seqs.waitVisible(d.ackedSeq())
	return d.NewIteratorAt(d.seqs.visible.Load())
}

// NewIteratorAt returns an iterator at snapshot seq.
func (d *DB) NewIteratorAt(seq uint64) (*Iterator, error) {
	if d.closed.Load() {
		return nil, ErrClosed
	}
	it := &Iterator{kids: make([]engineIter, len(d.engines)), cur: -1}
	for i, e := range d.engines {
		k, err := e.newIter(seq)
		if err != nil {
			for j := range it.kids[:i] {
				_ = it.kids[j].close()
			}
			return nil, err
		}
		it.kids[i] = k
	}
	return it, nil
}

// NewIteratorSnapshot returns an iterator bound to a snapshot.
func (s *Snapshot) NewIterator() (*Iterator, error) { return s.db.NewIteratorAt(s.seq) }

// First positions at the smallest live key.
func (it *Iterator) First() {
	for i := range it.kids {
		it.kids[i].First()
	}
	it.settle(false)
}

// Seek positions at the first live key >= ukey.
func (it *Iterator) Seek(ukey []byte) {
	for i := range it.kids {
		it.kids[i].Seek(ukey)
	}
	it.settle(false)
}

// Next advances to the following live key.
func (it *Iterator) Next() {
	if !it.valid {
		return
	}
	if it.rev {
		// Direction switch: reposition every other child to the first key
		// after the current one. Engine keyspaces are disjoint, so
		// Seek(current) on another engine lands strictly past it.
		for i := range it.kids {
			if i != it.cur {
				it.kids[i].Seek(it.key)
			}
		}
	}
	it.kids[it.cur].Next()
	it.settle(false)
}

// Last positions at the largest live key.
func (it *Iterator) Last() {
	for i := range it.kids {
		it.kids[i].Last()
	}
	it.settle(true)
}

// SeekForPrev positions at the last live key <= ukey.
func (it *Iterator) SeekForPrev(ukey []byte) {
	for i := range it.kids {
		it.kids[i].SeekForPrev(ukey)
	}
	it.settle(true)
}

// Prev moves to the preceding live key.
func (it *Iterator) Prev() {
	if !it.valid {
		return
	}
	if !it.rev {
		// Direction switch: reposition every other child to the last key
		// before the current one (disjoint keyspaces make
		// SeekForPrev(current) land strictly before it on other engines).
		for i := range it.kids {
			if i != it.cur {
				it.kids[i].SeekForPrev(it.key)
			}
		}
	}
	it.kids[it.cur].Prev()
	it.settle(true)
}

// settle makes the frontier child the current entry: the smallest-keyed
// valid child going forward, the largest in reverse.
func (it *Iterator) settle(rev bool) {
	it.rev = rev
	it.valid = false
	it.cur = -1
	for i := range it.kids {
		k := &it.kids[i]
		if k.err != nil && it.err == nil {
			it.err = k.err
		}
		if !k.valid {
			continue
		}
		if it.cur >= 0 {
			c := bytes.Compare(k.key, it.kids[it.cur].key)
			if rev {
				c = -c
			}
			if c >= 0 {
				continue
			}
		}
		it.cur = i
	}
	if it.cur >= 0 && it.err == nil {
		k := &it.kids[it.cur]
		it.key, it.value, it.valid = k.key, k.value, true
	}
}

// Valid reports whether the iterator is positioned on a live entry.
func (it *Iterator) Valid() bool { return it.valid }

// Key returns the current user key (stable until the next move).
func (it *Iterator) Key() []byte { return it.key }

// Value returns the current value (stable until the next move).
func (it *Iterator) Value() []byte { return it.value }

// Err returns the first error encountered.
func (it *Iterator) Err() error { return it.err }

// Close releases table references. Iterators must be closed.
func (it *Iterator) Close() error {
	if it.closed {
		return it.err
	}
	it.closed = true
	it.valid = false
	for i := range it.kids {
		if err := it.kids[i].close(); err != nil && it.err == nil {
			it.err = err
		}
	}
	return it.err
}
