package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
)

// resultFile is what -out writes and compare reads: every run, and per
// workload and metric the median and quartiles over the runs.
type resultFile struct {
	Seed    int64                         `json:"seed"`
	Seconds float64                       `json:"seconds"`
	Trace   bool                          `json:"trace"`
	Runs    []runResult                   `json:"runs"`
	Summary map[string]map[string]summary `json:"summary"`
}

type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

// spread is the distance between the quartiles as a share of the median.
func (s summary) spread() float64 { return ratio(s.Q3-s.Q1, s.Median) }

func (f *resultFile) summarise() {
	samples := map[string]map[string][]float64{}
	units := map[string]string{}
	for _, r := range f.Runs {
		if samples[r.Workload] == nil {
			samples[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			samples[r.Workload][name] = append(samples[r.Workload][name], m.Value)
			units[name] = m.Unit
		}
	}
	f.Summary = map[string]map[string]summary{}
	for w, byName := range samples {
		f.Summary[w] = map[string]summary{}
		for name, xs := range byName {
			q1, q3 := quartiles(xs)
			f.Summary[w][name] = summary{Median: median(xs), Q1: q1, Q3: q3, N: len(xs), Unit: units[name]}
		}
	}
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is what the
// driver applies to the ten runs it makes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return median(s), median(s)
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// compare prints one row per workload and end-to-end metric with both
// medians, the change in the direction that counts as worse, the bound and a
// verdict, and returns an error when any row is worse than its bound.
func compare(cat *catalogue, pathA, pathB string, w io.Writer) error {
	var files [2]resultFile
	for i, p := range []string{pathA, pathB} {
		raw, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, &files[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	a, b := files[0].Summary, files[1].Summary
	worse := 0
	fmt.Fprintf(w, "%-10s %-14s %14s %14s %9s %7s  %s\n", "workload", "metric", "A median", "B median", "worse by", "bound", "verdict")
	for _, wl := range cat.Workloads {
		for _, d := range cat.EndToEnd {
			sa, okA := a[wl.Name][d.Name]
			sb, okB := b[wl.Name][d.Name]
			if !okA || !okB {
				continue
			}
			change := ratio(sb.Median-sa.Median, sa.Median)
			if d.Better == "higher" {
				change = -change
			}
			verdict := "ok"
			switch {
			case sa.spread() > d.Bound || sb.spread() > d.Bound:
				verdict = "unresolved"
			case change > d.Bound:
				verdict = "worse"
				worse++
			}
			fmt.Fprintf(w, "%-10s %-14s %14.6g %14.6g %+8.1f%% %6.0f%%  %s\n",
				wl.Name, d.Name, sa.Median, sb.Median, 100*change, 100*d.Bound, verdict)
		}
	}
	if worse > 0 {
		return errors.New("compare: " + fmt.Sprint(worse) + " metric(s) worse than their bound")
	}
	return nil
}
