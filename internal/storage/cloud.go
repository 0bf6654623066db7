package storage

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// LatencyModel describes the performance profile of a simulated cloud
// object store. Each request pays a first-byte latency plus transfer time at
// the modelled bandwidth. Operations running in parallel sleep
// independently, mirroring an object store's ability to serve concurrent
// requests.
type LatencyModel struct {
	GetFirstByte   time.Duration // per GET request
	PutFirstByte   time.Duration // per PUT request
	MetaRTT        time.Duration // DELETE/LIST/HEAD round trip
	ReadBandwidth  int64         // bytes/second per stream; 0 = unlimited
	WriteBandwidth int64         // bytes/second per stream; 0 = unlimited
}

// DefaultLatency models a same-region object store, scaled down ~5x from
// public-cloud numbers (≈10 ms first byte, ≈90 MB/s streams) so experiment
// suites finish quickly while preserving the local-vs-cloud gap that drives
// the paper's results.
func DefaultLatency() LatencyModel {
	return LatencyModel{
		GetFirstByte:   2 * time.Millisecond,
		PutFirstByte:   3 * time.Millisecond,
		MetaRTT:        1 * time.Millisecond,
		ReadBandwidth:  400 << 20,
		WriteBandwidth: 400 << 20,
	}
}

// NoLatency disables sleeping; used by unit tests that only need cloud
// semantics and accounting.
func NoLatency() LatencyModel { return LatencyModel{} }

func (m LatencyModel) transfer(n int64, bw int64) time.Duration {
	if bw <= 0 || n <= 0 {
		return 0
	}
	return time.Duration(float64(n) / float64(bw) * float64(time.Second))
}

// CostModel prices cloud usage. Defaults follow S3 Standard circa 2021.
type CostModel struct {
	StoragePerGBMonth float64 // $/GB-month of stored bytes
	PutPer1K          float64 // $ per 1000 PUT/DELETE/LIST requests
	GetPer1K          float64 // $ per 1000 GET requests
	EgressPerGB       float64 // $/GB read out of the store
}

// DefaultCost returns S3-Standard-like prices (ca. 2021).
func DefaultCost() CostModel {
	return CostModel{
		StoragePerGBMonth: 0.023,
		PutPer1K:          0.005,
		GetPer1K:          0.0004,
		EgressPerGB:       0.09,
	}
}

// CostReport is a priced summary of cloud usage.
type CostReport struct {
	StoredBytes  int64
	Snapshot     Snapshot
	StorageCost  float64 // $/month at current capacity
	RequestCost  float64 // $ for the observed requests
	EgressCost   float64 // $ for the observed reads
	TotalMonthly float64 // storage + requests + egress (requests treated as monthly)
}

// String renders the report as a table row block. The mean GET size shows
// how well reads coalesce: bigger requests mean fewer billed round trips
// for the same bytes.
func (r CostReport) String() string {
	return fmt.Sprintf("stored=%.3fGB storage=$%.4f/mo requests=$%.4f egress=$%.4f total=$%.4f gets=%d avg-get=%.1fKB",
		float64(r.StoredBytes)/(1<<30), r.StorageCost, r.RequestCost, r.EgressCost, r.TotalMonthly,
		r.Snapshot.GetOps, r.Snapshot.BytesPerGet()/1024)
}

// Cost prices a usage snapshot plus current capacity.
func (c CostModel) Cost(stored int64, s Snapshot) CostReport {
	gb := float64(stored) / (1 << 30)
	storage := gb * c.StoragePerGBMonth
	req := float64(s.PutOps+s.DeleteOps+s.ListOps)/1000*c.PutPer1K +
		float64(s.GetOps)/1000*c.GetPer1K
	egress := float64(s.BytesRead) / (1 << 30) * c.EgressPerGB
	return CostReport{
		StoredBytes:  stored,
		Snapshot:     s,
		StorageCost:  storage,
		RequestCost:  req,
		EgressCost:   egress,
		TotalMonthly: storage + req + egress,
	}
}

// Cloud simulates an object store on top of a local directory: objects
// become visible atomically on Close, reads and writes pay the modelled
// latency, and all traffic is metered for cost reporting. It also supports
// failure injection for reliability tests.
type Cloud struct {
	fs          *Local
	lat         LatencyModel
	cost        CostModel
	stats       Stats
	stored      atomic.Int64
	seq         atomic.Int64 // temp-name suffix
	mu          sync.Mutex
	lost        map[string]bool             // injected object loss
	failureHook func(op, name string) error // injected request failures
}

// NewCloud returns a simulated object store persisting under dir.
func NewCloud(dir string, lat LatencyModel, cost CostModel) (*Cloud, error) {
	fs, err := NewLocal(dir)
	if err != nil {
		return nil, err
	}
	c := &Cloud{fs: fs, lat: lat, cost: cost, lost: map[string]bool{}}
	// Rebuild capacity accounting for pre-existing objects (reopen case).
	names, err := fs.List("")
	if err != nil {
		return nil, err
	}
	for _, n := range names {
		if sz, err := fs.Size(n); err == nil {
			c.stored.Add(sz)
		}
	}
	return c, nil
}

// Tier implements Backend.
func (c *Cloud) Tier() Tier { return TierCloud }

// Stats implements Backend.
func (c *Cloud) Stats() *Stats { return &c.stats }

// StoredBytes returns the current total object capacity.
func (c *Cloud) StoredBytes() int64 { return c.stored.Load() }

// CostReport prices current capacity plus all traffic since creation.
func (c *Cloud) CostReport() CostReport {
	return c.cost.Cost(c.stored.Load(), c.stats.Snapshot())
}

// SetFailureHook installs fn to be consulted before every request; a
// non-nil return aborts the request with that error. Pass nil to clear.
func (c *Cloud) SetFailureHook(fn func(op, name string) error) {
	c.mu.Lock()
	c.failureHook = fn
	c.mu.Unlock()
}

// LoseObject simulates silent object loss: subsequent opens fail with
// ErrNotFound while capacity accounting is adjusted.
func (c *Cloud) LoseObject(name string) {
	c.mu.Lock()
	c.lost[name] = true
	c.mu.Unlock()
	if sz, err := c.fs.Size(name); err == nil {
		c.stored.Add(-sz)
	}
}

func (c *Cloud) checkFail(op, name string) error {
	c.mu.Lock()
	hook := c.failureHook
	lostObj := c.lost[name]
	c.mu.Unlock()
	if lostObj && (op == "GET" || op == "HEAD") {
		return ErrNotFound
	}
	if hook != nil {
		return hook(op, name)
	}
	return nil
}

type cloudWriter struct {
	c     *Cloud
	w     Writer
	tmp   string
	final string
	n     int64
}

func (w *cloudWriter) Write(p []byte) (int, error) {
	n, err := w.w.Write(p)
	w.n += int64(n)
	return n, err
}

// Sync is a no-op: cloud objects are durable at Close.
func (w *cloudWriter) Sync() error { return nil }

// Close commits the object: the upload file is closed and renamed into
// place after the modelled PUT time. A real PUT is made durable by the
// provider, not on the client's host, so the simulator charges the host no
// fsync for it: the rename makes the object visible atomically, and a crash
// of the simulator's own host is not a fault it models.
func (w *cloudWriter) Close() error {
	if err := w.w.Close(); err != nil {
		return err
	}
	// Pay the PUT: request latency + transfer time for the whole object.
	time.Sleep(w.c.lat.PutFirstByte + w.c.lat.transfer(w.n, w.c.lat.WriteBandwidth))
	if err := w.c.fs.Rename(w.tmp, w.final); err != nil {
		return err
	}
	// Replacing an object returns the old capacity first.
	w.c.stats.PutOps.Add(1)
	w.c.stats.BytesWrite.Add(w.n)
	w.c.stored.Add(w.n)
	w.c.mu.Lock()
	delete(w.c.lost, w.final)
	w.c.mu.Unlock()
	return nil
}

// Create implements Backend. The object appears atomically at Close.
func (c *Cloud) Create(name string) (Writer, error) {
	if err := c.checkFail("PUT", name); err != nil {
		return nil, err
	}
	if old, err := c.fs.Size(name); err == nil {
		c.stored.Add(-old)
	}
	tmp := fmt.Sprintf(".upload-%d.tmp", c.seq.Add(1))
	w, err := c.fs.Create(tmp)
	if err != nil {
		return nil, err
	}
	return &cloudWriter{c: c, w: w, tmp: tmp, final: name}, nil
}

type cloudReader struct {
	c    *Cloud
	r    Reader
	name string
}

func (r *cloudReader) ReadAt(p []byte, off int64) (int, error) {
	// Each ReadAt is one GET (range request, possibly spanning many
	// blocks). Every request is a fresh round trip, so injected failures
	// and object loss apply here too — a long-lived open handle does not
	// shield readers from a mid-stream outage.
	if err := r.c.checkFail("GET", r.name); err != nil {
		return 0, err
	}
	time.Sleep(r.c.lat.GetFirstByte + r.c.lat.transfer(int64(len(p)), r.c.lat.ReadBandwidth))
	n, err := r.r.ReadAt(p, off)
	r.c.stats.GetOps.Add(1)
	r.c.stats.BytesRead.Add(int64(n))
	return n, err
}

func (r *cloudReader) Size() int64  { return r.r.Size() }
func (r *cloudReader) Close() error { return r.r.Close() }

// Open implements Backend.
func (c *Cloud) Open(name string) (Reader, error) {
	if err := c.checkFail("GET", name); err != nil {
		return nil, err
	}
	r, err := c.fs.Open(name)
	if err != nil {
		return nil, err
	}
	return &cloudReader{c: c, r: r, name: name}, nil
}

// ReadAll implements Backend.
func (c *Cloud) ReadAll(name string) ([]byte, error) {
	r, err := c.Open(name)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	buf := make([]byte, r.Size())
	if len(buf) == 0 {
		return buf, nil
	}
	if _, err := r.ReadAt(buf, 0); err != nil {
		return nil, err
	}
	return buf, nil
}

// Delete implements Backend.
func (c *Cloud) Delete(name string) error {
	if err := c.checkFail("DELETE", name); err != nil {
		return err
	}
	time.Sleep(c.lat.MetaRTT)
	if sz, err := c.fs.Size(name); err == nil {
		c.stored.Add(-sz)
	}
	c.stats.DeleteOps.Add(1)
	return c.fs.Delete(name)
}

// List implements Backend.
func (c *Cloud) List(prefix string) ([]string, error) {
	if err := c.checkFail("LIST", prefix); err != nil {
		return nil, err
	}
	time.Sleep(c.lat.MetaRTT)
	c.stats.ListOps.Add(1)
	names, err := c.fs.List(prefix)
	if err != nil {
		return nil, err
	}
	out := names[:0]
	c.mu.Lock()
	for _, n := range names {
		if !c.lost[n] && n[0] != '.' {
			out = append(out, n)
		}
	}
	c.mu.Unlock()
	return out, nil
}

// Size implements Backend.
func (c *Cloud) Size(name string) (int64, error) {
	if err := c.checkFail("HEAD", name); err != nil {
		return 0, err
	}
	time.Sleep(c.lat.MetaRTT)
	return c.fs.Size(name)
}

// Rename implements Backend. Object stores have no rename; it is emulated
// with a server-side copy + delete and priced as one PUT and one DELETE.
func (c *Cloud) Rename(oldname, newname string) error {
	if err := c.checkFail("PUT", newname); err != nil {
		return err
	}
	time.Sleep(c.lat.PutFirstByte + c.lat.MetaRTT)
	c.stats.PutOps.Add(1)
	c.stats.DeleteOps.Add(1)
	if old, err := c.fs.Size(newname); err == nil {
		c.stored.Add(-old)
	}
	return c.fs.Rename(oldname, newname)
}
