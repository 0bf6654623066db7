package main

import (
	"strings"
	"sync/atomic"

	"rocksmash/internal/storage"
)

// Object classes, told apart by object-name prefix.
const (
	classTable = iota
	classWAL
	classManifest
	classView
	classMeta
	numClasses
)

var classNames = [numClasses]string{"table", "wal", "manifest", "view", "meta"}

func classOf(name string) int {
	switch {
	case strings.HasPrefix(name, "sst/"):
		return classTable
	case strings.HasPrefix(name, "wal/"):
		return classWAL
	case strings.HasPrefix(name, "view/"):
		return classView
	case strings.HasPrefix(name, "meta/"):
		return classMeta
	default: // MANIFEST-*, CURRENT
		return classManifest
	}
}

// Storage request kinds the meter counts and, in a traced pass, times.
const (
	opRead = iota // ReadAt or ReadAll: one GET on the cloud tier
	opPut         // Create … Close: one PUT on the cloud tier
	opSync
	opDelete
	opList // List, Size, Rename: metadata round trips
	numOps
)

var opNames = [numOps]string{"read", "put", "sync", "delete", "meta"}

// tierCounts is what the meter knows about one tier. Request and byte counts
// are kept in every pass; busy time only in a traced pass.
type tierCounts struct {
	ops        [numOps][numClasses]atomic.Int64
	busyNs     [numOps]atomic.Int64
	readBytes  atomic.Int64
	writeBytes [numClasses]atomic.Int64
}

func (t *tierCounts) count(op int) int64 {
	var n int64
	for i := range t.ops[op] {
		n += t.ops[op][i].Load()
	}
	return n
}

// add sums o into t; used where a workload opens the store many times.
func (t *tierCounts) add(o *tierCounts) {
	for op := range t.ops {
		for class := range t.ops[op] {
			t.ops[op][class].Add(o.ops[op][class].Load())
		}
		t.busyNs[op].Add(o.busyNs[op].Load())
	}
	for class := range t.writeBytes {
		t.writeBytes[class].Add(o.writeBytes[class].Load())
	}
	t.readBytes.Add(o.readBytes.Load())
}

func (t *tierCounts) written() int64 {
	var n int64
	for i := range t.writeBytes {
		n += t.writeBytes[i].Load()
	}
	return n
}

// meter is the benchmark's storage.Backend decorator, one per tier, handed
// to db.Open in place of the backend it wraps. In an untraced pass it only
// counts requests and bytes (atomic adds: no clock, no goroutine id); with a
// tracer attached it also records one span per request.
type meter struct {
	storage.Backend
	c     atomic.Pointer[tierCounts] // swapped for a fresh one when the measured phase starts
	tr    *tracer                    // nil in an untraced pass
	down  atomic.Bool                // set at tear-down: every later request fails
	names [numOps][numClasses]string
}

func newMeter(b storage.Backend, tr *tracer) *meter {
	m := &meter{Backend: b, tr: tr}
	m.c.Store(new(tierCounts))
	for op := range m.names {
		for class := range m.names[op] {
			m.names[op][class] = "storage." + b.Tier().String() + "." + opNames[op] + "." + classNames[class]
		}
	}
	return m
}

// Unwrap lets the store find the simulator underneath (storage.BaseBackend).
func (m *meter) Unwrap() storage.Backend { return m.Backend }

// unavailable is what requests return once the pass has pulled the plug.
func (m *meter) unavailable() error {
	if m.down.Load() {
		return storage.ErrCloudUnavailable
	}
	return nil
}

// begin opens a span when tracing; the zero spanStart means "not tracing".
func (m *meter) begin() spanStart {
	if m.tr == nil {
		return spanStart{}
	}
	return m.tr.begin()
}

func (m *meter) end(s spanStart, op, class int, bytes int64) {
	c := m.c.Load()
	c.ops[op][class].Add(1)
	if m.tr == nil {
		return
	}
	d := m.tr.end(s, m.names[op][class], bytes, op == opPut)
	c.busyNs[op].Add(int64(d))
}

func (m *meter) Create(name string) (storage.Writer, error) {
	if err := m.unavailable(); err != nil {
		return nil, err
	}
	s := m.begin()
	w, err := m.Backend.Create(name)
	if err != nil {
		return nil, err
	}
	return &meterWriter{Writer: w, m: m, class: classOf(name), start: s}, nil
}

type meterWriter struct {
	storage.Writer
	m     *meter
	class int
	start spanStart
	n     int64
	done  bool
}

func (w *meterWriter) Write(p []byte) (int, error) {
	n, err := w.Writer.Write(p)
	w.n += int64(n)
	w.m.c.Load().writeBytes[w.class].Add(int64(n))
	return n, err
}

func (w *meterWriter) Sync() error {
	s := w.m.begin()
	err := w.Writer.Sync()
	w.m.end(s, opSync, w.class, 0)
	return err
}

func (w *meterWriter) Close() error {
	err := w.Writer.Close()
	if !w.done {
		w.done = true
		w.m.end(w.start, opPut, w.class, w.n)
	}
	return err
}

func (m *meter) Open(name string) (storage.Reader, error) {
	if err := m.unavailable(); err != nil {
		return nil, err
	}
	r, err := m.Backend.Open(name)
	if err != nil {
		return nil, err
	}
	return &meterReader{Reader: r, m: m, class: classOf(name)}, nil
}

type meterReader struct {
	storage.Reader
	m     *meter
	class int
}

func (r *meterReader) ReadAt(p []byte, off int64) (int, error) {
	if err := r.m.unavailable(); err != nil {
		return 0, err
	}
	s := r.m.begin()
	n, err := r.Reader.ReadAt(p, off)
	r.m.c.Load().readBytes.Add(int64(n))
	r.m.end(s, opRead, r.class, int64(n))
	return n, err
}

func (m *meter) ReadAll(name string) ([]byte, error) {
	if err := m.unavailable(); err != nil {
		return nil, err
	}
	s := m.begin()
	b, err := m.Backend.ReadAll(name)
	m.c.Load().readBytes.Add(int64(len(b)))
	m.end(s, opRead, classOf(name), int64(len(b)))
	return b, err
}

func (m *meter) Delete(name string) error {
	s := m.begin()
	err := m.Backend.Delete(name)
	m.end(s, opDelete, classOf(name), 0)
	return err
}

func (m *meter) List(prefix string) ([]string, error) {
	s := m.begin()
	names, err := m.Backend.List(prefix)
	m.end(s, opList, classOf(prefix), 0)
	return names, err
}

func (m *meter) Size(name string) (int64, error) {
	s := m.begin()
	n, err := m.Backend.Size(name)
	m.end(s, opList, classOf(name), 0)
	return n, err
}

func (m *meter) Rename(oldname, newname string) error {
	s := m.begin()
	err := m.Backend.Rename(oldname, newname)
	m.end(s, opList, classOf(newname), 0)
	return err
}

// usd prices the cloud meter's own counts with the simulator's cost model:
// requests plus egress, no capacity rent.
func (t *tierCounts) usd(c storage.CostModel) float64 {
	return c.Cost(0, storage.Snapshot{
		GetOps:    t.count(opRead),
		PutOps:    t.count(opPut),
		DeleteOps: t.count(opDelete),
		ListOps:   t.count(opList),
		BytesRead: t.readBytes.Load(),
	}).TotalMonthly
}
