package db

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
)

// notScalar lists the Metrics fields that are not table rows, by what
// renders them instead.
var notScalar = map[string]string{
	"Policy": "text", "BreakerState": "text", "LocalBreakerState": "text", "ActiveIncidents": "text (health families)",
	"LevelFiles": "level label", "LevelBytes": "level label", "LevelWriteAmp": "level label", "Shards": "shard label",
	"ReadAmp": "level and tier labels; its scalars are rows", "LocalIO": "structured", "CloudIO": "structured", "CloudCost": "structured",
	"GetLat": "quantile label", "PutLat": "quantile label", "FlushLat": "quantile label", "CompactLat": "quantile label",
	"LocalGetLat": "quantile label", "LocalPutLat": "quantile label", "CloudGetLat": "quantile label", "CloudPutLat": "quantile label",
}

// TestSignalsComplete is the table's side of "complete by construction":
// every engine counter is a summed row, every scalar of Metrics is a row or
// is named in notScalar, and no family or field is declared twice.
func TestSignalsComplete(t *testing.T) {
	byField, names := map[string]Signal{}, map[string]bool{}
	for _, s := range Signals {
		if _, dup := byField[s.Field]; dup || names[s.Name] {
			t.Errorf("signal %s (field %s) is declared twice", s.Name, s.Field)
		}
		byField[s.Field], names[s.Name] = s, true
		if s.Type != counter && s.Type != gauge {
			t.Errorf("signal %s has type %q", s.Name, s.Type)
		}
	}

	st := reflect.TypeOf((*Stats)(nil)).Elem()
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		if f.Type != reflect.TypeOf(atomic.Int64{}) {
			if f.Name != "LevelCompact" {
				t.Errorf("Stats.%s is neither an atomic.Int64 nor the per-level ledger", f.Name)
			}
			continue
		}
		if s, ok := byField[f.Name]; !ok || s.stat != i {
			t.Errorf("Stats.%s is not summed by any row of Signals (row present: %v)", f.Name, ok)
		}
	}

	mt := reflect.TypeOf((*Metrics)(nil)).Elem()
	for i := 0; i < mt.NumField(); i++ {
		f := mt.Field(i)
		_, row := byField[f.Name]
		_, listed := notScalar[f.Name]
		switch f.Type.Kind() {
		case reflect.Int, reflect.Int64, reflect.Uint64, reflect.Float64:
			if !row {
				t.Errorf("Metrics.%s is a scalar with no row in Signals: /metrics would not expose it", f.Name)
			}
		default:
			if !listed {
				t.Errorf("Metrics.%s (%s) is neither a scalar nor listed in notScalar", f.Name, f.Type)
			}
		}
	}
	for name := range notScalar {
		if _, ok := mt.FieldByName(name); !ok {
			t.Errorf("notScalar names Metrics.%s, which does not exist", name)
		}
	}
}

// TestMetricsSumsEngines: on a sharded store every summed row of the snapshot
// is the engines' counters added up, and the rows a read function fills agree
// with the store.
func TestMetricsSumsEngines(t *testing.T) {
	o := testOptions(PolicyMash)
	o.Shards = 3
	d, err := OpenAt(t.TempDir(), o)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	fillKeys(t, d, 3000, 100)
	if err := d.CompactAll(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := d.Get([]byte(fmt.Sprintf("key%06d", i))); err != nil && err != ErrNotFound {
			t.Fatal(err)
		}
	}
	// Background work (scrubber, drainer) may still count between the reads,
	// and counters only grow: the engines' sum lies between two snapshots.
	m := d.Metrics()
	sums := map[string]int64{}
	for _, s := range Signals {
		for _, e := range d.engines {
			if s.stat >= 0 {
				sums[s.Name] += reflect.ValueOf(&e.stats).Elem().Field(s.stat).Addr().Interface().(*atomic.Int64).Load()
			}
		}
	}
	after := d.Metrics()
	for _, s := range Signals {
		if lo, hi := int64(s.Value(&m)), int64(s.Value(&after)); s.stat >= 0 && (sums[s.Name] < lo || sums[s.Name] > hi) {
			t.Errorf("%s = %d..%d, want the engines' %s summed, %d", s.Name, lo, hi, s.Field, sums[s.Name])
		}
	}
	if m.Writes != 3000 || m.Reads != 50 || m.Flushes == 0 || m.Compactions == 0 {
		t.Errorf("writes=%d reads=%d flushes=%d compactions=%d", m.Writes, m.Reads, m.Flushes, m.Compactions)
	}
	if m.LastSeq != d.ackedSeq() || m.MetaBytes != d.tables.metadataBytes() || m.PCacheUsed != d.pcache.UsedBytes() {
		t.Errorf("read rows disagree with the store: seq=%d meta=%d pcache=%d", m.LastSeq, m.MetaBytes, m.PCacheUsed)
	}
}
