// Command bench is the repository's benchmark: six seeded closed-loop
// workloads against the db package, measured as shipped. See README.md in
// this directory; BENCHMARK.json at the repository root declares the metrics.
//
// Run it from the repository root:
//
//	bash bench/run.sh [-workload name[,name]] [-seed n] [-seconds s] [-trace 0|1] [-runs n] [-out file]
//	bash bench/run.sh compare A.json B.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"rocksmash/internal/storage"
)

const catalogueFile = "BENCHMARK.json"

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	// The benchmark runs from the repository root; `go run -C bench .`
	// starts it one level below.
	if _, err := os.Stat(catalogueFile); err != nil {
		if err := os.Chdir(".."); err != nil {
			return err
		}
	}
	cat, err := loadCatalogue(catalogueFile)
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	if len(args) > 0 && args[0] == "compare" {
		if len(args) != 3 {
			return errors.New("usage: bench compare A.json B.json")
		}
		return compare(cat, args[1], args[2], os.Stdout)
	}

	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	names := fs.String("workload", "", "comma-separated workloads to run (default: all six)")
	seed := fs.Int64("seed", 20210701, "workload seed; run i of -runs uses seed+i")
	secs := fs.Float64("seconds", float64(cat.RunSeconds), "length of each measured phase")
	trace := fs.Int("trace", 0, "1: per-layer metrics from a traced pass, spans in bench/out/")
	runs := fs.Int("runs", 1, "repetitions of the whole set")
	out := fs.String("out", "", "write every run, with medians and quartiles, to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 || *secs <= 0 || *runs < 1 || *trace < 0 || *trace > 1 {
		return fmt.Errorf("bad arguments %q", args)
	}
	var selected []*workload
	for _, w := range cat.Workloads {
		if *names == "" || strings.Contains(","+*names+",", ","+w.Name+",") {
			wl, err := findWorkload(w.Name)
			if err != nil {
				return err
			}
			selected = append(selected, wl)
		}
	}
	if *names != "" && len(selected) != strings.Count(*names, ",")+1 {
		return fmt.Errorf("-workload %q names a workload %s does not declare", *names, catalogueFile)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := config{
		seconds: *secs, trace: *trace == 1, scale: 1, latency: storage.DefaultLatency(), kernel: 100 * time.Millisecond, drainCap: 5 * time.Second, quiet: time.Second,
		tmpRoot: filepath.Join(".bench_build", "work"), outDir: filepath.Join("bench", "out"),
	}
	file := resultFile{Seed: *seed, Seconds: *secs, Trace: cfg.trace}
	failed := false
	for i := 0; i < *runs; i++ {
		cfg.seed = *seed + int64(i)
		for _, w := range selected {
			r, err := runWorkload(ctx, cfg, cat, *w)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			r.Run = i
			file.Runs = append(file.Runs, *r)
			failed = failed || !r.Correct
			if err := r.print(os.Stdout); err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
		}
	}
	if *out != "" {
		file.summarise()
		raw, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed {
		return errors.New("some operations failed or returned wrong answers (error_rate > 0)")
	}
	return nil
}

// metricValue is one emitted metric. Source is "metrics" for the few values
// taken from the store's own registry.
type metricValue struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Source string  `json:"source,omitempty"`
}

// runResult is the outcome of one workload run: the line the driver reads,
// plus which workload and run it was for the result file.
type runResult struct {
	Workload  string                 `json:"workload,omitempty"`
	Run       int                    `json:"run"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// print lists every metric by name with its unit and ends with the one-line
// JSON object the driver parses: correct, attempted, failed, and per metric a
// value and a unit, nothing else (the source tag stays in the -out file).
func (r *runResult) print(w io.Writer) error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	type driverMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]driverMetric, len(names))
	for _, n := range names {
		m := r.Metrics[n]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v: not a number JSON can carry", n, m.Value)
		}
		metrics[n] = driverMetric{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                    `json:"correct"`
		Attempted int64                   `json:"attempted"`
		Failed    int64                   `json:"failed"`
		Metrics   map[string]driverMetric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "workload %s run %d: attempted %d failed %d error_rate %g\n",
		r.Workload, r.Run, r.Attempted, r.Failed, float64(r.Failed)/float64(r.Attempted))
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// runWorkload gives the workload a scratch directory of its own, removed
// whatever happens, and aborts with a named error when it runs past three
// times its expected wall time, so a change that wedges the store fails the
// run instead of hanging it.
func runWorkload(ctx context.Context, c config, cat *catalogue, w workload) (*runResult, error) {
	if err := os.MkdirAll(c.tmpRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(c.tmpRoot, w.name+"-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	ceiling := 3 * (w.expect + time.Duration((c.seconds-10)*float64(time.Second)))
	if c.trace {
		ceiling += time.Minute
	}
	type outcome struct {
		r   *runResult
		err error
	}
	done := make(chan outcome, 1) // the worker never blocks, even if nobody is left to listen
	go func() {
		r, err := w.scaled(c).measure(c, cat, dir)
		done <- outcome{r, err}
	}()
	select {
	case o := <-done:
		return o.r, o.err
	case <-ctx.Done():
		return nil, errors.New("interrupted")
	case <-time.After(ceiling):
		return nil, fmt.Errorf("exceeded its wall-clock ceiling of %s (3× the seed duration): the store is wedged or far slower than at the seed", ceiling)
	}
}

// measure runs set-up, then one untraced pass; with tracing on, an untraced
// and a traced pass of half the time each, on separate copies of the store
// set-up prepared, followed by the kernels.
func (w workload) measure(c config, cat *catalogue, dir string) (*runResult, error) {
	base := filepath.Join(dir, "store")
	var in *inputs
	var builds []float64
	for i := 0; i < w.setupRuns; i++ {
		if err := os.RemoveAll(base); err != nil {
			return nil, err
		}
		t0 := time.Now()
		in = w.generate(c)
		if err := w.build(c, base, in.keys); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		builds = append(builds, time.Since(t0).Seconds())
	}
	build := time.Duration(median(builds) * float64(time.Second))

	pass := w.pass
	if w.walOnly {
		pass = w.runRecover
	}
	window := time.Duration(c.seconds * float64(time.Second))
	res := &runResult{Workload: w.name}
	if !c.trace {
		u, err := pass(c, base, in, false, window)
		if err != nil {
			return nil, err
		}
		res.Attempted, res.Failed = u.attempted, u.failed
		res.Metrics, err = declared(endToEnd(&w, u, build+u.setup), cat.EndToEnd)
		if err != nil {
			return nil, err
		}
	} else {
		// Half the time each, so a traced run costs what an untraced one does.
		copyDir := filepath.Join(dir, "untraced")
		if err := copyTree(base, copyDir); err != nil {
			return nil, fmt.Errorf("copying the prepared store: %w", err)
		}
		u, err := pass(c, copyDir, in, false, window/2)
		if err != nil {
			return nil, err
		}
		t, err := pass(c, base, in, true, window/2)
		if err != nil {
			return nil, err
		}
		kernels, err := runKernels(c, dir, in)
		if err != nil {
			return nil, err
		}
		res.Attempted, res.Failed = u.attempted+t.attempted, u.failed+t.failed
		if res.Metrics, err = declared(perLayer(u, t, kernels), cat.PerLayer); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// declared pairs computed values with their declarations: every declared
// metric exactly once, and nothing undeclared.
func declared(vals values, defs []metricDef) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		x, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is declared in %s but was not computed", d.Name, catalogueFile)
		}
		out[d.Name] = metricValue{Value: x, Unit: d.Unit}
		if fromMetrics[d.Name] {
			out[d.Name] = metricValue{Value: x, Unit: d.Unit, Source: "metrics"}
		}
	}
	for name := range vals {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s was computed but is not declared in %s", name, catalogueFile)
		}
	}
	return out, nil
}

// copyTree copies a directory of regular files.
func copyTree(from, to string) error {
	return filepath.Walk(from, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(from, path)
		if err != nil {
			return err
		}
		dst := filepath.Join(to, rel)
		if info.IsDir() {
			return os.MkdirAll(dst, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(dst, data, 0o644)
	})
}
