package event

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
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
	for _, k := range Kinds {
		if k.Type == r.Type {
			p := reflect.New(k.Payload)
			if err := json.Unmarshal(r.Data, p.Interface()); err != nil {
				return nil, err
			}
			return p.Elem().Interface(), nil
		}
	}
	return nil, fmt.Errorf("event: unknown trace record type %q", r.Type)
}

// Encode renders one event as a trace line, without the newline: the Record
// that ReadTrace and Decode read back. Live traces and flight bundles both
// write it.
func Encode(ts int64, typ Type, payload any) ([]byte, error) {
	data, err := json.Marshal(payload)
	if err != nil {
		return nil, err
	}
	return json.Marshal(Record{TS: ts, Type: typ, Data: data})
}

// TraceWriter is a Listener that appends every event as one JSON line.
// It is safe for concurrent use. Close flushes buffered records.
type TraceWriter struct {
	Func // t.emit: the Listener methods
	mu   sync.Mutex
	bw   *bufio.Writer
	c    io.Closer // underlying file, when owned
	err  error     // first write failure; subsequent events are dropped
}

// NewTraceWriter traces onto w. The caller owns w's lifetime; Close only
// flushes.
func NewTraceWriter(w io.Writer) *TraceWriter {
	t := &TraceWriter{bw: bufio.NewWriter(w)}
	t.Func = t.emit
	return t
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
	line, err := Encode(time.Now().UnixNano(), typ, payload)
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
// tests and tools. Safe for concurrent use; make one with NewRecorder.
type Recorder struct {
	Func   // r.add: the Listener methods
	mu     sync.Mutex
	events []Recorded
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder {
	r := &Recorder{}
	r.Func = r.add
	return r
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
