package obs

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rocksmash/internal/db"
	"rocksmash/internal/vitals"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// fixedMetrics returns a snapshot with every numeric field non-zero. A
// field's value depends only on its path (a hash) and on k, so a field added
// to Metrics later moves no existing line of a golden, and fixedMetrics(2) is
// fixedMetrics(1) with every counter doubled — a pair Derive can window.
func fixedMetrics(k int64) db.Metrics {
	var m db.Metrics
	fillFixed(reflect.ValueOf(&m).Elem(), "Metrics", k)
	for l := range m.LevelWriteAmp {
		m.LevelWriteAmp[l].Level, m.LevelWriteAmp[l].Target = l, l+1
	}
	for i := range m.Shards {
		m.Shards[i].Shard = i
	}
	return m
}

func fillFixed(v reflect.Value, path string, k int64) {
	h := fnv.New32a()
	h.Write([]byte(path))
	n := k * int64(1+h.Sum32()%100000)
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillFixed(v.Field(i), path+"."+v.Type().Field(i).Name, k)
		}
	case reflect.Slice:
		size := 7 // one entry per level
		if strings.HasSuffix(path, ".Shards") {
			size = 2
		}
		v.Set(reflect.MakeSlice(v.Type(), size, size))
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillFixed(v.Index(i), fmt.Sprintf("%s[%d]", path, i), k)
		}
	case reflect.Int, reflect.Int64:
		v.SetInt(n)
	case reflect.Uint64:
		v.SetUint(uint64(n))
	case reflect.Float64:
		v.SetFloat(float64(n) / 1000)
	case reflect.String:
		v.SetString("open")
	default:
		panic("fillFixed: unhandled kind " + v.Kind().String() + " at " + path)
	}
}

// checkGolden compares got with testdata/name, or rewrites the file under
// -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s\n(go test ./internal/obs -run Golden -update rewrites it)", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: got %d lines, want %d", path, len(gl), len(wl))
}

// TestWritePromGolden pins the whole exposition of one fixed snapshot of a
// sharded store: every family's name, TYPE, HELP, position and sample lines.
// The file's first 281 lines are what the commit before the signal table
// printed for the same snapshot; a family added since may only follow them.
// Every row of db.Signals is a family of it, once.
func TestWritePromGolden(t *testing.T) {
	var sb strings.Builder
	WriteProm(&sb, fixedMetrics(1))
	families := checkPromConformance(t, sb.String())
	for _, s := range db.Signals {
		if families[s.Name] != s.Type {
			t.Errorf("signal %s: exposed as %q, declared %s", s.Name, families[s.Name], s.Type)
		}
	}
	checkGolden(t, "writeprom.golden", sb.String())
}

// TestWindowGolden pins vitals.Derive over a fixed pair of snapshots one
// second apart, and the window's own /metrics families: the window a sampler
// tick yields from two Metrics is the window the old field-by-field copy of
// Metrics yielded, and is exposed as it was.
func TestWindowGolden(t *testing.T) {
	prev := vitals.Sample{UnixNano: 1_000_000_000, Metrics: fixedMetrics(1)}
	cur := vitals.Sample{UnixNano: 2_000_000_000, Metrics: fixedMetrics(2)}
	win := vitals.Derive(prev, cur)
	enc, err := json.MarshalIndent(win, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	WritePromVitals(&sb, win)
	checkPromConformance(t, sb.String())
	checkGolden(t, "window.golden", string(enc)+"\n"+sb.String())
}
