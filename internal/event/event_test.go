package event

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// sample returns a payload of type t with every field non-zero; seed varies
// the values so two kinds' payloads differ.
func sample(t reflect.Type, seed int) any {
	v := reflect.New(t).Elem()
	fill(v, seed)
	return v.Interface()
}

func fill(v reflect.Value, n int) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i), n*32+i)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i), n*8+i)
		}
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", n))
	case reflect.Slice:
		v.Set(reflect.ValueOf([]byte(fmt.Sprintf("k%d", n))).Convert(v.Type()))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(n + 1))
	case reflect.Uint64:
		v.SetUint(uint64(n + 1))
	case reflect.Float64:
		v.SetFloat(float64(n) + 0.5)
	default:
		panic("sample: no filler for " + v.Type().String())
	}
}

// fireAll delivers one event of every kind in Kinds to l and returns the
// payloads in firing order, which doubles as the expected decode order.
func fireAll(l Listener) []any {
	var events []any
	for i, k := range Kinds {
		e := sample(k.Payload, i+1)
		Deliver(l, e)
		events = append(events, e)
	}
	return events
}

// TestKindsCoverListener fails when an event kind has a Listener method but
// no row in Kinds, or Func tags it with another Type, or Deliver drops it.
func TestKindsCoverListener(t *testing.T) {
	byPayload := map[reflect.Type]Type{}
	for _, k := range Kinds {
		if _, dup := byPayload[k.Payload]; dup {
			t.Errorf("Kinds lists payload %s twice", k.Payload)
		}
		byPayload[k.Payload] = k.Type
	}
	lt := reflect.TypeOf((*Listener)(nil)).Elem()
	if lt.NumMethod() != len(Kinds) {
		t.Errorf("Listener has %d methods, Kinds %d rows", lt.NumMethod(), len(Kinds))
	}
	for i := 0; i < lt.NumMethod(); i++ {
		m := lt.Method(i)
		payload := m.Type.In(0)
		typ, ok := byPayload[payload]
		if !ok {
			t.Errorf("%s: payload %s has no row in Kinds", m.Name, payload)
			continue
		}
		e := sample(payload, i+1)
		var gotType Type
		var got any
		record := Func(func(t Type, p any) { gotType, got = t, p })
		reflect.ValueOf(record).MethodByName(m.Name).Call([]reflect.Value{reflect.ValueOf(e)})
		if gotType != typ || !reflect.DeepEqual(got, e) {
			t.Errorf("Func.%s delivered (%q, %#v), want (%q, %#v)", m.Name, gotType, got, typ, e)
		}
		gotType, got = "", nil
		Deliver(record, e)
		if gotType != typ || !reflect.DeepEqual(got, e) {
			t.Errorf("Deliver(%s) reached (%q, %#v), want (%q, %#v)", payload, gotType, got, typ, e)
		}
	}
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
	r := NewRecorder()
	want := fireAll(r)
	got := r.Events()
	if len(got) != len(want) {
		t.Fatalf("recorded %d events, want %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i].Payload, want[i]) {
			t.Errorf("event %d (%s): got %#v want %#v", i, got[i].Type, got[i].Payload, want[i])
		}
	}
	if len(got) != len(Kinds) {
		t.Errorf("recorded %d kinds, want %d", len(got), len(Kinds))
	}
	if n := r.Count(TFlushEnd); n != 1 {
		t.Errorf("Count(flush_end) = %d, want 1", n)
	}
	if _, ok := r.First(TCompactionEnd); !ok {
		t.Error("First(compaction_end) not found")
	}
}

// TestMulti verifies fan-out of every kind to Func and method-set members,
// nil skipping, and singleton unwrapping.
func TestMulti(t *testing.T) {
	if got := Multi(); got != nil {
		t.Errorf("Multi() = %v, want nil", got)
	}
	if got := Multi(nil, nil); got != nil {
		t.Errorf("Multi(nil, nil) = %v, want nil", got)
	}
	a := NewRecorder()
	if got := Multi(nil, a); got != a {
		t.Errorf("Multi(nil, one) did not unwrap the singleton")
	}
	b := NewRecorder()
	want := fireAll(Multi(a, nil, b.Func))
	for name, r := range map[string]*Recorder{"method-set member": a, "Func member": b} {
		got := r.Events()
		if len(got) != len(want) {
			t.Fatalf("%s saw %d events, want %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i].Type != Kinds[i].Type || !reflect.DeepEqual(got[i].Payload, want[i]) {
				t.Errorf("%s event %d: got (%s, %#v), want (%s, %#v)",
					name, i, got[i].Type, got[i].Payload, Kinds[i].Type, want[i])
			}
		}
	}
}

var kept any

// TestMultiFuncMemberAddsNoAlloc: a Func member of a Multi receives the
// event boxed once for the whole fan-out, so joining a method-set listener
// to a Func costs no allocation per event beyond the Func's own boxing.
func TestMultiFuncMemberAddsNoAlloc(t *testing.T) {
	sink := Func(func(_ Type, e any) { kept = e }) // keeps e, as the ring does
	m := Multi(NopListener{}, sink)
	e := FlushEnd{Table: 7, Bytes: 4096, Tier: "local"}
	alone := testing.AllocsPerRun(100, func() { sink.OnFlushEnd(e) })
	fanned := testing.AllocsPerRun(100, func() { m.OnFlushEnd(e) })
	if fanned > alone {
		t.Errorf("Multi(NopListener, Func) allocates %.0f per event, the Func alone %.0f", fanned, alone)
	}
}

// TestNopListener just exercises the embeddable no-op implementation.
func TestNopListener(t *testing.T) {
	var n NopListener
	fireAll(n)
}
