package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rocksmash/internal/event"
)

// span is one timed interval at a layer boundary. op is the id of the client
// operation it belongs to (0 for background work); parent is the name of the
// span that caused it: "" for a client operation or a background job, the
// client operation's name for work done on its behalf, "bg" for storage
// requests no client operation was waiting on.
type span struct {
	name       string
	parent     string
	start, end int64 // ns since the tracer's epoch
	op         int64
	bytes      int64
	// pre is the time the tracer itself took, just before start, to find the
	// span's parent (a stack walk of some 25 µs). It is neither the span's
	// nor its parent's work, so self time counts it as covered.
	pre int64
}

// maxSpans bounds what one recorder keeps; later spans are only counted.
const maxSpans = 4 << 20

// tracer keeps the spans of one traced pass in memory. Client operations go
// into per-client recorders owned by the client goroutine; storage requests
// and engine events, which arrive from any goroutine, share one locked slice.
type tracer struct {
	epoch   time.Time
	clients sync.Map // goroutine id → *clientTrace

	mu      sync.Mutex
	spans   []span
	dropped int64

	stacks sync.Pool
}

type clientTrace struct {
	spans   []span
	dropped int64
	// cur is the operation in flight; read by storage requests issued on
	// this goroutine or on goroutines it started.
	cur     atomic.Int64
	curKind atomic.Int32 // index into clientOps
}

// Client operation kinds; the span names of the client loop.
const (
	kindPut = iota
	kindGet
	kindScan
	kindOpen
	numKinds
)

var clientOps = [numKinds]string{"client.put", "client.get", "client.scan", "client.open"}

func newTracer() *tracer {
	return &tracer{
		epoch:  time.Now(),
		stacks: sync.Pool{New: func() any { b := make([]byte, 16<<10); return &b }},
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// reset forgets the spans recorded so far (set-up and warm-up).
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans, t.dropped = t.spans[:0], 0
	t.mu.Unlock()
}

// registerClient binds the calling goroutine to a client recorder.
func (t *tracer) registerClient() *clientTrace {
	c := &clientTrace{}
	self, _ := t.goroutines()
	t.clients.Store(self, c)
	return c
}

// opBegin and opEnd bracket one client operation.
func (c *clientTrace) opBegin(id int64, kind int) {
	c.curKind.Store(int32(kind))
	c.cur.Store(id)
}

func (c *clientTrace) opEnd(kind int, id, start, end, bytes int64) {
	c.cur.Store(0)
	if len(c.spans) >= maxSpans {
		c.dropped++
		return
	}
	c.spans = append(c.spans, span{name: clientOps[kind], start: start, end: end, op: id, bytes: bytes})
}

// goroutines returns the id of the calling goroutine and of the goroutine
// that started it (0 when the stack text was cut short), parsed from the
// header and the "created by … in goroutine N" trailer of runtime.Stack.
func (t *tracer) goroutines() (self, creator int64) {
	bp := t.stacks.Get().(*[]byte)
	defer t.stacks.Put(bp)
	buf := (*bp)[:runtime.Stack(*bp, false)]
	self = leadingInt(bytes.TrimPrefix(buf, []byte("goroutine ")))
	if i := bytes.LastIndex(buf, []byte(" in goroutine ")); i >= 0 {
		creator = leadingInt(buf[i+len(" in goroutine "):])
	}
	return self, creator
}

func leadingInt(b []byte) int64 {
	var n int64
	for _, c := range b {
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + int64(c-'0')
	}
	return n
}

// inFlight finds the client operation the calling goroutine works for.
func (t *tracer) inFlight() (op int64, name string) {
	self, creator := t.goroutines()
	for _, g := range [2]int64{self, creator} {
		if c, ok := t.clients.Load(g); ok {
			ct := c.(*clientTrace)
			if op = ct.cur.Load(); op != 0 {
				return op, clientOps[ct.curKind.Load()]
			}
		}
	}
	return 0, "bg"
}

// spanStart is what a storage request remembers between begin and end.
type spanStart struct {
	t, pre int64
	op     int64
	parent string
}

func (t *tracer) begin() spanStart {
	t0 := t.now()
	op, parent := t.inFlight()
	t1 := t.now()
	return spanStart{t: t1, pre: t1 - t0, op: op, parent: parent}
}

// end records the span and returns its duration. An object's Create … Close
// can outlive the client operation it began under (a WAL segment does); with
// recheck set the span is background work unless that operation is still
// the one in flight.
func (t *tracer) end(s spanStart, name string, bytes int64, recheck bool) time.Duration {
	now := t.now()
	if recheck && s.op != 0 {
		if op, _ := t.inFlight(); op != s.op {
			s.op, s.parent = 0, "bg"
		}
	}
	t.add(span{name: name, parent: s.parent, start: s.t, end: now, op: s.op, bytes: bytes, pre: s.pre})
	return time.Duration(now - s.t)
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// listener turns the engine's lifecycle events into spans and sums. It is
// attached (Options.EventListener) only in a traced pass.
type listener struct {
	event.NopListener
	tr *tracer
	c  atomic.Pointer[eventCounts]
}

type eventCounts struct {
	flushes, flushNs, flushBytes         atomic.Int64
	compactions, compactNs               atomic.Int64
	readNs, mergeNs, uploadNs, installNs atomic.Int64
	compactIn, compactOut                atomic.Int64
	stalls, stallMemNs, stallL0Ns        atomic.Int64
}

func newListener(tr *tracer) *listener {
	l := &listener{tr: tr}
	l.c.Store(new(eventCounts))
	return l
}

// ended records an event that reports its own duration when it finishes.
func (l *listener) ended(name string, d time.Duration, op int64, parent string, bytes int64) {
	now := l.tr.now()
	l.tr.add(span{name: name, parent: parent, start: now - int64(d), end: now, op: op, bytes: bytes})
}

func (l *listener) OnFlushEnd(e event.FlushEnd) {
	c := l.c.Load()
	c.flushes.Add(1)
	c.flushNs.Add(int64(e.Duration))
	c.flushBytes.Add(e.Bytes)
	l.ended("db.flush", e.Duration, 0, "", e.Bytes)
}

func (l *listener) OnCompactionEnd(e event.CompactionEnd) {
	c := l.c.Load()
	c.compactions.Add(1)
	c.compactNs.Add(int64(e.Duration))
	c.readNs.Add(int64(e.ReadDur))
	c.mergeNs.Add(int64(e.MergeDur))
	c.uploadNs.Add(int64(e.UploadDur))
	c.installNs.Add(int64(e.InstallDur))
	c.compactIn.Add(e.InputBytes)
	c.compactOut.Add(e.OutputBytes)
	l.ended("db.compaction", e.Duration, 0, "", e.OutputBytes)
	// The stages as the engine reports them: read is part of merge, uploads
	// may overlap it, install comes last. They are written as durations
	// ending with the job, not as a timeline.
	for _, st := range []struct {
		name string
		d    time.Duration
	}{{"read", e.ReadDur}, {"merge", e.MergeDur}, {"upload", e.UploadDur}, {"install", e.InstallDur}} {
		l.ended("db.compaction."+st.name, st.d, 0, "db.compaction", 0)
	}
}

// OnWriteStallEnd runs on the stalled writer's goroutine, so the stall is a
// child of the Put that waited.
func (l *listener) OnWriteStallEnd(e event.WriteStallEnd) {
	c := l.c.Load()
	c.stalls.Add(1)
	if e.Reason == "l0" {
		c.stallL0Ns.Add(int64(e.Duration))
	} else {
		c.stallMemNs.Add(int64(e.Duration))
	}
	op, parent := l.tr.inFlight()
	if op == 0 {
		parent = ""
	}
	l.ended("db.stall."+e.Reason, e.Duration, op, parent, 0)
}

// selfTimes returns, per client-operation name, the summed self time: each
// operation's duration minus the part of it its children cover; and the sum
// of those covered parts.
func (t *tracer) selfTimes(clients []*clientTrace) (self map[string]int64, children int64) {
	t.mu.Lock()
	kids := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.op != 0 {
			kids = append(kids, s)
		}
	}
	t.mu.Unlock()
	sort.Slice(kids, func(i, j int) bool {
		if kids[i].op != kids[j].op {
			return kids[i].op < kids[j].op
		}
		return kids[i].start < kids[j].start
	})
	first := make(map[int64]int, len(kids))
	for i := len(kids) - 1; i >= 0; i-- {
		first[kids[i].op] = i
	}
	self = map[string]int64{}
	for _, c := range clients {
		for _, s := range c.spans {
			covered, upto := int64(0), s.start
			if i, ok := first[s.op]; ok {
				for ; i < len(kids) && kids[i].op == s.op; i++ {
					lo, hi := max(kids[i].start-kids[i].pre, upto), min(kids[i].end, s.end)
					if hi > lo {
						covered += hi - lo
						upto = hi
					}
				}
			}
			self[s.name] += s.end - s.start - covered
			children += covered
		}
	}
	return self, children
}

// parentedShare is the share of spans with the given name that resolved to a
// client operation.
func (t *tracer) parentedShare(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var n, parented float64
	for _, s := range t.spans {
		if s.name == name {
			n++
			if s.op != 0 {
				parented++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return parented / n
}

// write stores every span as one JSON line, ordered by start time, and ends
// with a line counting the spans that did not fit in memory.
func (t *tracer) write(path string, clients []*clientTrace) error {
	t.mu.Lock()
	all := append([]span(nil), t.spans...)
	dropped := t.dropped
	t.mu.Unlock()
	for _, c := range clients {
		all = append(all, c.spans...)
		dropped += c.dropped
	}
	sort.Slice(all, func(i, j int) bool { return all[i].start < all[j].start })

	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	for _, s := range all {
		line = append(line[:0], `{"name":"`...)
		line = append(line, s.name...)
		line = append(line, `","start_ns":`...)
		line = strconv.AppendInt(line, s.start, 10)
		line = append(line, `,"end_ns":`...)
		line = strconv.AppendInt(line, s.end, 10)
		line = append(line, `,"op":`...)
		line = strconv.AppendInt(line, s.op, 10)
		line = append(line, `,"parent":"`...)
		line = append(line, s.parent...)
		line = append(line, `","bytes":`...)
		line = strconv.AppendInt(line, s.bytes, 10)
		line = append(line, "}\n"...)
		w.Write(line) // bufio keeps the first error for Flush
	}
	fmt.Fprintf(w, `{"name":"trace.dropped","start_ns":0,"end_ns":0,"op":0,"parent":"","bytes":%d}`+"\n", dropped)
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
