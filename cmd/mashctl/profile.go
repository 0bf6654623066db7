package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"rocksmash/internal/event"
	"rocksmash/internal/metrics"
	"rocksmash/internal/readprof"
)

// cmdProfile renders the read-path profiler two ways:
//
//	mashctl profile -addr HOST:PORT   read a live store's Metrics from
//	                                  /debug/vars and show per-level /
//	                                  per-tier attribution
//	mashctl profile -f trace.jsonl    summarize the SlowRead records an
//	                                  engine trace captured, worst first
func cmdProfile(w io.Writer, addr, tracePath string, top int) error {
	switch {
	case addr != "":
		return profileLive(w, addr)
	case tracePath != "":
		return profileTrace(w, tracePath, top)
	default:
		return errors.New("profile: -addr (live endpoint) or -f (trace file) is required")
	}
}

// profileLive prints the read-path report of the Metrics snapshot a live
// store serves under /debug/vars.
func profileLive(w io.Writer, addr string) error {
	var vars struct {
		Metrics metrics.Metrics `json:"rocksmash"`
	}
	if err := getJSON(endpoint(addr, "/debug/vars"), &vars); err != nil {
		return err
	}
	m := vars.Metrics
	fmt.Fprintf(w, "reads: %d total\n", m.Reads)
	if m.ReadAmp.ProfiledGets == 0 {
		fmt.Fprintln(w, "no profiled reads yet (is the store serving Gets?)")
		return nil
	}
	m.ReadAmp.Render(w)
	return nil
}

// endpoint is the URL of path on a live obs endpoint given as HOST:PORT or
// as a URL.
func endpoint(addr, path string) string {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimSuffix(addr, "/") + path
}

// getJSON decodes the JSON body url serves into v.
func getJSON(url string, v any) error {
	c := &http.Client{Timeout: 10 * time.Second}
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("decoding %s: %w", url, err)
	}
	return nil
}

// profileTrace summarizes the SlowRead records in a JSONL engine trace.
func profileTrace(w io.Writer, path string, top int) error {
	recs, err := event.ReadTraceFile(path)
	if err != nil {
		return err
	}
	type slowRec struct {
		rec event.Record
		e   event.SlowRead
	}
	var (
		slows   []slowRec
		byPath  = map[string]int{}
		pathDur = map[string]time.Duration{}
		total   time.Duration
	)
	for _, rec := range recs {
		if rec.Type != event.TSlowRead {
			continue
		}
		e, err := rec.Decode()
		if err != nil {
			fmt.Fprintf(w, "warning: %v\n", err)
			continue
		}
		sr := e.(event.SlowRead)
		slows = append(slows, slowRec{rec, sr})
		byPath[sr.Path]++
		pathDur[sr.Path] += sr.Duration
		total += sr.Duration
	}
	if len(slows) == 0 {
		fmt.Fprintln(w, "no slow-read records in trace (profiler needs a listener: set -trace on the run)")
		return nil
	}

	fmt.Fprintf(w, "slow reads: %d records, %s total\n", len(slows), total.Round(time.Microsecond))
	fmt.Fprintln(w, "\nby serve path:")
	paths := make([]string, 0, len(byPath))
	for p := range byPath {
		paths = append(paths, p)
	}
	sort.Slice(paths, func(i, j int) bool { return pathDur[paths[i]] > pathDur[paths[j]] })
	for _, p := range paths {
		n := byPath[p]
		fmt.Fprintf(w, "  %-24s %5d reads, %10s total (%s mean)\n",
			p, n, pathDur[p].Round(time.Microsecond),
			(pathDur[p] / time.Duration(n)).Round(time.Microsecond))
	}

	sort.Slice(slows, func(i, j int) bool { return slows[i].e.Duration > slows[j].e.Duration })
	if top > 0 && len(slows) > top {
		slows = slows[:top]
	}
	fmt.Fprintf(w, "\nslowest %d reads:\n", len(slows))
	for _, s := range slows {
		e := s.e
		fmt.Fprintf(w, "  %10s  %s  key=%q via %s (%d levels, %d tables",
			e.Duration.Round(time.Microsecond), s.rec.Time().Format(time.TimeOnly),
			e.Key, e.Path, e.LevelsProbed, e.Tables)
		for t := readprof.Tier(0); t < readprof.NumTiers; t++ {
			if e.Blocks[t] > 0 {
				fmt.Fprintf(w, ", %s %d blk/%s", t, e.Blocks[t], e.FetchDur[t].Round(time.Microsecond))
			}
		}
		fmt.Fprintln(w, ")")
	}
	return nil
}
