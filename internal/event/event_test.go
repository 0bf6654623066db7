package event

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

// fireAll sends one event of every type to l and returns the payloads in
// firing order, which doubles as the expected decode order.
func fireAll(l Listener) []any {
	events := []any{
		FlushBegin{Reason: "memtable"},
		FlushEnd{Table: 7, Bytes: 4096, Tier: "local", Duration: 3 * time.Millisecond},
		CompactionBegin{Level: 0, OutputLevel: 1, Inputs: 4, InputBytes: 1 << 20},
		CompactionEnd{
			Level: 0, OutputLevel: 1, Inputs: 4, Outputs: 2,
			InputBytes: 1 << 20, OutputBytes: 900 << 10, DroppedKeys: 12,
			PrefetchSpans: 3, ReadDur: time.Millisecond, MergeDur: 2 * time.Millisecond,
			UploadDur: 4 * time.Millisecond, InstallDur: time.Microsecond,
			Duration: 8 * time.Millisecond,
		},
		TableUploaded{Table: 9, Tier: "cloud", Bytes: 1 << 19, Attempts: 2, Duration: 5 * time.Millisecond},
		TableDeleted{Table: 3, Tier: "cloud"},
		WriteStallBegin{Reason: "l0"},
		WriteStallEnd{Reason: "l0", Duration: 40 * time.Millisecond},
		PCacheAdmit{File: 9, Blocks: 32, Bytes: 128 << 10},
		PCacheEvict{File: 2, Blocks: 16, Bytes: 64 << 10, Reason: "clock"},
		CloudRetry{Op: "put", Object: "tables/000009.sst", Attempt: 1, Err: "transient"},
	}
	for _, e := range events {
		switch e := e.(type) {
		case FlushBegin:
			l.OnFlushBegin(e)
		case FlushEnd:
			l.OnFlushEnd(e)
		case CompactionBegin:
			l.OnCompactionBegin(e)
		case CompactionEnd:
			l.OnCompactionEnd(e)
		case TableUploaded:
			l.OnTableUploaded(e)
		case TableDeleted:
			l.OnTableDeleted(e)
		case WriteStallBegin:
			l.OnWriteStallBegin(e)
		case WriteStallEnd:
			l.OnWriteStallEnd(e)
		case PCacheAdmit:
			l.OnPCacheAdmit(e)
		case PCacheEvict:
			l.OnPCacheEvict(e)
		case CloudRetry:
			l.OnCloudRetry(e)
		}
	}
	return events
}

// TestTraceRoundTrip writes one event of every type through a TraceWriter
// and verifies every JSONL record decodes back to the identical payload.
func TestTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	want := fireAll(tw)
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	recs, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(recs), len(want))
	}
	for i, rec := range recs {
		if rec.TS == 0 {
			t.Errorf("record %d: zero timestamp", i)
		}
		got, err := rec.Decode()
		if err != nil {
			t.Fatalf("record %d (%s): %v", i, rec.Type, err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("record %d (%s):\n got %#v\nwant %#v", i, rec.Type, got, want[i])
		}
	}
}

// TestCreateTraceWritesWholeLines hammers a file-backed TraceWriter from
// many goroutines, then re-parses the file: every record must come back as
// a complete, decodable JSON line.
func TestCreateTraceWritesWholeLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	tw, err := CreateTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tw.OnCloudRetry(CloudRetry{
					Op:      "put",
					Object:  fmt.Sprintf("tables/%06d-%06d.sst", w, i),
					Attempt: i,
					Err:     "transient failure injected by the trace hammer",
				})
			}
		}(w)
	}
	wg.Wait()
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadTraceFile(path)
	if err != nil {
		t.Fatalf("torn or malformed trace: %v", err)
	}
	if len(recs) != writers*perWriter {
		t.Fatalf("got %d records, want %d", len(recs), writers*perWriter)
	}
	for _, rec := range recs {
		if _, err := rec.Decode(); err != nil {
			t.Fatalf("undecodable record: %v", err)
		}
	}
}

// TestRecorderCapturesAll verifies the in-memory Recorder sees every event
// in order with its payload intact.
func TestRecorderCapturesAll(t *testing.T) {
	var r Recorder
	want := fireAll(&r)
	got := r.Events()
	if len(got) != len(want) {
		t.Fatalf("recorded %d events, want %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i].Payload, want[i]) {
			t.Errorf("event %d (%s): got %#v want %#v", i, got[i].Type, got[i].Payload, want[i])
		}
	}
	if n := r.Count(TFlushEnd); n != 1 {
		t.Errorf("Count(flush_end) = %d, want 1", n)
	}
	if _, ok := r.First(TCompactionEnd); !ok {
		t.Error("First(compaction_end) not found")
	}
}

// TestMulti verifies fan-out, nil skipping, and singleton unwrapping.
func TestMulti(t *testing.T) {
	if got := Multi(); got != nil {
		t.Errorf("Multi() = %v, want nil", got)
	}
	if got := Multi(nil, nil); got != nil {
		t.Errorf("Multi(nil, nil) = %v, want nil", got)
	}
	var a Recorder
	if got := Multi(nil, &a); got != &a {
		t.Errorf("Multi(nil, one) did not unwrap the singleton")
	}
	var b Recorder
	m := Multi(&a, &b)
	m.OnFlushBegin(FlushBegin{Reason: "memtable"})
	if a.Count(TFlushBegin) != 1 || b.Count(TFlushBegin) != 1 {
		t.Errorf("fan-out missed a listener: a=%d b=%d", a.Count(TFlushBegin), b.Count(TFlushBegin))
	}
}

// TestNopListener just exercises the embeddable no-op implementation.
func TestNopListener(t *testing.T) {
	var n NopListener
	fireAll(n)
}
