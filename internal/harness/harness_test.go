package harness

import (
	"bytes"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// TestAllExperimentsQuick smoke-runs every registered experiment at tiny
// scale, asserting each produces its report without error.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	for _, e := range List() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			var buf bytes.Buffer
			cfg := Config{BaseDir: t.TempDir(), Quick: true, Out: &buf}
			if err := Run(e.Name, cfg); err != nil {
				t.Fatalf("%s: %v\noutput so far:\n%s", e.Name, err, buf.String())
			}
			out := buf.String()
			if !strings.Contains(out, e.Name) {
				t.Fatalf("report missing header: %q", out)
			}
			if len(strings.Split(out, "\n")) < 4 {
				t.Fatalf("report suspiciously short:\n%s", out)
			}
			if strings.Contains(out, " ops/s  p50=") {
				t.Fatalf("a phase line labels its k-ops/s figure ops/s:\n%s", out)
			}
		})
	}
}

func TestUnknownExperiment(t *testing.T) {
	err := Run("fig99", Config{BaseDir: t.TempDir()})
	if err == nil {
		t.Fatal("unknown experiment should error")
	}
}

func TestListOrderedAndComplete(t *testing.T) {
	es := List()
	want := []string{"fig1", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "tab2", "tab3", "tab4", "fig13", "fig-incident", "fig-localfault", "outage", "fig-readamp", "fig-scan", "fig-shardscale", "fig-vitals", "fig-wscale"}
	if len(es) != len(want) {
		t.Fatalf("registered %d experiments, want %d", len(es), len(want))
	}
	for i, e := range es {
		if e.Name != want[i] {
			t.Fatalf("experiment %d = %s want %s", i, e.Name, want[i])
		}
		if e.Title == "" || e.Run == nil {
			t.Fatalf("experiment %s incomplete", e.Name)
		}
	}
}

// TestWScaleShape checks fig-wscale's quick report: one row per writer count,
// and at 8 writers the pipeline shares each WAL append among several batches.
func TestWScaleShape(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("fig-wscale", Config{BaseDir: t.TempDir(), Quick: true, Out: &buf}); err != nil {
		t.Fatal(err)
	}
	var writers []int
	var group8 float64
	for _, line := range strings.Split(buf.String(), "\n") {
		f := strings.Fields(line)
		if len(f) != 5 {
			continue
		}
		n, err := strconv.Atoi(f[0])
		if err != nil {
			continue // the column header
		}
		g, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			t.Fatalf("row %q: batches/group: %v", line, err)
		}
		writers = append(writers, n)
		if n == 8 {
			group8 = g
		}
	}
	if !reflect.DeepEqual(writers, []int{1, 2, 4, 8}) {
		t.Fatalf("rows for writers %v, want [1 2 4 8]\n%s", writers, buf.String())
	}
	if group8 <= 1 {
		t.Fatalf("batches/group at 8 writers = %.2f, want > 1\n%s", group8, buf.String())
	}
}
