package event

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Record is one line of a JSONL trace: a wall-clock timestamp, the event
// type, and the event payload.
type Record struct {
	// TS is the event time in nanoseconds since the Unix epoch.
	TS   int64           `json:"ts"`
	Type Type            `json:"type"`
	Data json.RawMessage `json:"data"`
}

// Time returns the record's timestamp.
func (r Record) Time() time.Time { return time.Unix(0, r.TS) }

// Decode unmarshals the payload into its typed event struct, returned by
// value (e.g. FlushEnd, not *FlushEnd). An unknown type is an error for the
// record, not the stream, so traces stay partially decodable as payloads
// evolve.
func (r Record) Decode() (any, error) {
	var p any
	switch r.Type {
	case TFlushBegin:
		p = &FlushBegin{}
	case TFlushEnd:
		p = &FlushEnd{}
	case TCompactionBegin:
		p = &CompactionBegin{}
	case TCompactionEnd:
		p = &CompactionEnd{}
	case TTableUploaded:
		p = &TableUploaded{}
	case TTableDeleted:
		p = &TableDeleted{}
	case TWriteStallBegin:
		p = &WriteStallBegin{}
	case TWriteStallEnd:
		p = &WriteStallEnd{}
	case TCommitGroup:
		p = &CommitGroup{}
	case TPCacheAdmit:
		p = &PCacheAdmit{}
	case TPCacheEvict:
		p = &PCacheEvict{}
	case TCloudRetry:
		p = &CloudRetry{}
	case TBreakerState:
		p = &BreakerState{}
	case TSlowRead:
		p = &SlowRead{}
	case TCorruptionDetected:
		p = &CorruptionDetected{}
	case TCorruptionRepaired:
		p = &CorruptionRepaired{}
	case TViewBuilt:
		p = &ViewBuilt{}
	case TIncidentTriggered:
		p = &IncidentTriggered{}
	default:
		return nil, fmt.Errorf("event: unknown trace record type %q", r.Type)
	}
	if err := json.Unmarshal(r.Data, p); err != nil {
		return nil, err
	}
	// Return the struct by value so consumers type-switch without pointers.
	switch e := p.(type) {
	case *FlushBegin:
		return *e, nil
	case *FlushEnd:
		return *e, nil
	case *CompactionBegin:
		return *e, nil
	case *CompactionEnd:
		return *e, nil
	case *TableUploaded:
		return *e, nil
	case *TableDeleted:
		return *e, nil
	case *WriteStallBegin:
		return *e, nil
	case *WriteStallEnd:
		return *e, nil
	case *CommitGroup:
		return *e, nil
	case *PCacheAdmit:
		return *e, nil
	case *PCacheEvict:
		return *e, nil
	case *CloudRetry:
		return *e, nil
	case *BreakerState:
		return *e, nil
	case *CorruptionDetected:
		return *e, nil
	case *CorruptionRepaired:
		return *e, nil
	case *ViewBuilt:
		return *e, nil
	case *IncidentTriggered:
		return *e, nil
	default:
		return *p.(*SlowRead), nil
	}
}

// TraceWriter is a Listener that appends every event as one JSON line.
// It is safe for concurrent use. Close flushes buffered records.
type TraceWriter struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	c   io.Closer // underlying file, when owned
	err error     // first write failure; subsequent events are dropped
}

// NewTraceWriter traces onto w. The caller owns w's lifetime; Close only
// flushes.
func NewTraceWriter(w io.Writer) *TraceWriter {
	return &TraceWriter{bw: bufio.NewWriter(w)}
}

// CreateTrace creates (truncating) a JSONL trace file at path. The file
// grows unboundedly.
func CreateTrace(path string) (*TraceWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	t := NewTraceWriter(f)
	t.c = f
	return t, nil
}

// Close flushes buffered records and closes the file when owned. It returns
// the first error the writer encountered.
func (t *TraceWriter) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.bw.Flush(); err != nil && t.err == nil {
		t.err = err
	}
	if t.c != nil {
		if err := t.c.Close(); err != nil && t.err == nil {
			t.err = err
		}
		t.c = nil
	}
	return t.err
}

// Err returns the first write failure, if any.
func (t *TraceWriter) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

func (t *TraceWriter) emit(typ Type, payload any) {
	data, err := json.Marshal(payload)
	if err != nil {
		return
	}
	line, err := json.Marshal(Record{TS: time.Now().UnixNano(), Type: typ, Data: data})
	if err != nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	if _, err := t.bw.Write(line); err != nil {
		t.err = err
		return
	}
	if err := t.bw.WriteByte('\n'); err != nil {
		t.err = err
	}
}

func (t *TraceWriter) OnFlushBegin(e FlushBegin)           { t.emit(TFlushBegin, e) }
func (t *TraceWriter) OnFlushEnd(e FlushEnd)               { t.emit(TFlushEnd, e) }
func (t *TraceWriter) OnCompactionBegin(e CompactionBegin) { t.emit(TCompactionBegin, e) }
func (t *TraceWriter) OnCompactionEnd(e CompactionEnd)     { t.emit(TCompactionEnd, e) }
func (t *TraceWriter) OnTableUploaded(e TableUploaded)     { t.emit(TTableUploaded, e) }
func (t *TraceWriter) OnTableDeleted(e TableDeleted)       { t.emit(TTableDeleted, e) }
func (t *TraceWriter) OnWriteStallBegin(e WriteStallBegin) { t.emit(TWriteStallBegin, e) }
func (t *TraceWriter) OnWriteStallEnd(e WriteStallEnd)     { t.emit(TWriteStallEnd, e) }
func (t *TraceWriter) OnCommitGroup(e CommitGroup)         { t.emit(TCommitGroup, e) }
func (t *TraceWriter) OnPCacheAdmit(e PCacheAdmit)         { t.emit(TPCacheAdmit, e) }
func (t *TraceWriter) OnPCacheEvict(e PCacheEvict)         { t.emit(TPCacheEvict, e) }
func (t *TraceWriter) OnCloudRetry(e CloudRetry)           { t.emit(TCloudRetry, e) }
func (t *TraceWriter) OnBreakerState(e BreakerState)       { t.emit(TBreakerState, e) }
func (t *TraceWriter) OnSlowRead(e SlowRead)               { t.emit(TSlowRead, e) }

func (t *TraceWriter) OnCorruptionDetected(e CorruptionDetected) { t.emit(TCorruptionDetected, e) }
func (t *TraceWriter) OnCorruptionRepaired(e CorruptionRepaired) { t.emit(TCorruptionRepaired, e) }
func (t *TraceWriter) OnViewBuilt(e ViewBuilt)                   { t.emit(TViewBuilt, e) }
func (t *TraceWriter) OnIncidentTriggered(e IncidentTriggered)   { t.emit(TIncidentTriggered, e) }

// ReadTrace decodes a JSONL trace stream. Blank lines are skipped; a
// malformed line aborts with its line number.
func ReadTrace(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	var out []Record
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(b, &rec); err != nil {
			return nil, fmt.Errorf("event: trace line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadTraceFile decodes the JSONL trace at path.
func ReadTraceFile(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadTrace(f)
}

// Recorder is a Listener that appends every event to an in-memory log, for
// tests and tools. Safe for concurrent use.
type Recorder struct {
	mu     sync.Mutex
	events []Recorded
}

// Recorded is one captured event.
type Recorded struct {
	Type    Type
	Payload any
}

// Events returns a copy of the captured log in firing order.
func (r *Recorder) Events() []Recorded {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Recorded(nil), r.events...)
}

// Count returns how many events of type t were captured.
func (r *Recorder) Count(t Type) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, e := range r.events {
		if e.Type == t {
			n++
		}
	}
	return n
}

// First returns the first captured event of type t.
func (r *Recorder) First(t Type) (Recorded, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.events {
		if e.Type == t {
			return e, true
		}
	}
	return Recorded{}, false
}

func (r *Recorder) add(t Type, payload any) {
	r.mu.Lock()
	r.events = append(r.events, Recorded{Type: t, Payload: payload})
	r.mu.Unlock()
}

func (r *Recorder) OnFlushBegin(e FlushBegin)           { r.add(TFlushBegin, e) }
func (r *Recorder) OnFlushEnd(e FlushEnd)               { r.add(TFlushEnd, e) }
func (r *Recorder) OnCompactionBegin(e CompactionBegin) { r.add(TCompactionBegin, e) }
func (r *Recorder) OnCompactionEnd(e CompactionEnd)     { r.add(TCompactionEnd, e) }
func (r *Recorder) OnTableUploaded(e TableUploaded)     { r.add(TTableUploaded, e) }
func (r *Recorder) OnTableDeleted(e TableDeleted)       { r.add(TTableDeleted, e) }
func (r *Recorder) OnWriteStallBegin(e WriteStallBegin) { r.add(TWriteStallBegin, e) }
func (r *Recorder) OnWriteStallEnd(e WriteStallEnd)     { r.add(TWriteStallEnd, e) }
func (r *Recorder) OnCommitGroup(e CommitGroup)         { r.add(TCommitGroup, e) }
func (r *Recorder) OnPCacheAdmit(e PCacheAdmit)         { r.add(TPCacheAdmit, e) }
func (r *Recorder) OnPCacheEvict(e PCacheEvict)         { r.add(TPCacheEvict, e) }
func (r *Recorder) OnCloudRetry(e CloudRetry)           { r.add(TCloudRetry, e) }
func (r *Recorder) OnBreakerState(e BreakerState)       { r.add(TBreakerState, e) }
func (r *Recorder) OnSlowRead(e SlowRead)               { r.add(TSlowRead, e) }

func (r *Recorder) OnCorruptionDetected(e CorruptionDetected) { r.add(TCorruptionDetected, e) }
func (r *Recorder) OnCorruptionRepaired(e CorruptionRepaired) { r.add(TCorruptionRepaired, e) }
func (r *Recorder) OnViewBuilt(e ViewBuilt)                   { r.add(TViewBuilt, e) }
func (r *Recorder) OnIncidentTriggered(e IncidentTriggered)   { r.add(TIncidentTriggered, e) }
