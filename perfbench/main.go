// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed time, checks the program's outputs, and prints
// every end-to-end metric by name with its unit; the last line of its
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics. With --trace 1 it instead runs the workload twice,
// untraced and then traced with spans around every call into a layer, and
// prints the per-layer metrics and the tracing overhead.
//
// Run it from the repository root (perfbench/run.py builds and runs it):
//
//	python3 perfbench/run.py --workload corpus-compile --seed 1 --seconds 10 --trace 0
//
// It exits 1 when any output check fails, 2 on a usage or set-up error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"time"
)

// setupRepeats is how many times an untraced run sets its workload up;
// setup_s is the median.
const setupRepeats = 3

// traceDir receives the traced run's span files; run.py builds into the
// same directory, which .gitignore names.
var traceDir = filepath.Join(".bench_build", "traces")

// setupFunc builds a fresh instance of a workload; the benchmark may
// build several and close all but the last.
type setupFunc func(r *runner) (instance, error)

type instance interface {
	// measure runs the closed loop for r.seconds, then checks the outputs.
	measure(r *runner, o *outcome)
	close()
}

// workloads maps each workload BENCHMARK.json names to its set-up.
var workloads = map[string]setupFunc{
	"corpus-compile": setupCorpusCompile,
	"corpus-analyze": setupCorpusAnalyze,
	"serve-edit":     setupServeEdit,
}

// runner carries what every workload shares.
type runner struct {
	spec    *benchSpec
	seed    int64
	seconds time.Duration
	scripts []*script
	// traced is set for both halves of a traced run, so a workload can
	// run them the same way; tr is set for the traced half only.
	traced bool
	tr     *tracer // nil in untraced runs
	log    io.Writer
}

type opSample struct {
	script int
	d      time.Duration
}

// outcome collects one measured phase.
type outcome struct {
	passes    []time.Duration
	ops       []opSample
	wall      time.Duration // time the ops ran; output checks excluded
	exeBytes  int
	cycles    int
	attempted int
	failed    int
	failures  []string
	// extra are workload-specific figures printed for people, not in JSON.
	extra []extraLine
	// peakMB is VmHWM read when the timed loop ended, before the checks
	// that run after it; 0 until then.
	peakMB float64
	// counters are per-layer values read from the program's own counters
	// (Report.PassTimes, /v1/stats, /metrics) in traced runs.
	counters map[string]float64
}

type extraLine struct {
	name, unit string
	value      float64
	doc        string
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 20 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// endTimed reads the peak RSS as the timed loop ends, so output checks
// that run after it are not billed to peak_rss_mb.
func (o *outcome) endTimed() {
	if peak, err := peakRSSMB(); err == nil {
		o.peakMB = peak
	}
}

func (o *outcome) counter(name string, v float64) {
	if o.counters == nil {
		o.counters = map[string]float64{}
	}
	o.counters[name] = v
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, as BENCHMARK.json names it")
	seed := fs.Int64("seed", 1, "seed for the workload's inputs")
	seconds := fs.Float64("seconds", 10, "how long to measure, in seconds")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer mode")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadBench(".")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if !slices.Contains(spec.workloadNames(), *name) || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %v), --seconds > 0, --trace 0|1\n", spec.workloadNames())
		return 2
	}
	scripts, err := loadScripts(".")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	r := &runner{spec: spec, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), scripts: scripts, log: stdout}
	var res *result
	if *traced == 1 {
		res, err = runTraced(r, *name)
	} else {
		res, err = runUntraced(r, *name)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	for _, f := range res.failures {
		fmt.Fprintln(stdout, "FAILED CHECK:", f)
	}
	line, err := json.Marshal(res.out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.out.Correct {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type result struct {
	out      report
	failures []string
}

// setUp builds an instance n times and keeps the last, returning every
// set-up time.
func setUp(r *runner, name string, n int) (instance, []time.Duration, error) {
	var inst instance
	var times []time.Duration
	for i := 0; i < n; i++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		inst, err = workloads[name](r)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		times = append(times, time.Since(start))
	}
	return inst, times, nil
}

// measure runs one measured phase on a freshly set-up instance and returns
// it with the peak RSS of that phase.
func measure(r *runner, inst instance) (*outcome, float64, error) {
	runtime.GC()
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return nil, 0, err
	}
	o := &outcome{}
	inst.measure(r, o)
	if o.peakMB > 0 {
		return o, o.peakMB, nil
	}
	peak, err := peakRSSMB()
	return o, peak, err
}

func runUntraced(r *runner, name string) (*result, error) {
	inst, setups, err := setUp(r, name, setupRepeats)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	o, peak, err := measure(r, inst)
	if err != nil {
		return nil, err
	}
	m := endToEndValues(o, setups, peak)
	printHuman(r.log, r.spec, name, o, m)
	out := report{Correct: o.failed == 0, Attempted: max(o.attempted, 1), Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, d := range r.spec.EndToEnd {
		out.Metrics[d.Name] = metricValue{m[d.Name], d.Unit}
	}
	return &result{out, o.failures}, nil
}

// runTraced measures the workload untraced and then traced, each on its
// own fresh instance, and reports the per-layer metrics of the traced
// half with the overhead the tracing added to pass_s. Both halves run the
// workload the same way (r.traced); only the spans differ.
func runTraced(r *runner, name string) (*result, error) {
	halves := make([]*outcome, 2)
	var tr *tracer
	r.traced = true
	for i := range halves {
		if i == 1 {
			// Allocation counts need one goroutine doing all the work; the
			// serve-edit client, gateway and replicas run at once.
			tr = newTracer(name != "serve-edit")
			r.tr = tr
		}
		inst, _, err := setUp(r, name, 1)
		if err != nil {
			return nil, err
		}
		o, _, err := measure(r, inst)
		inst.close()
		if err != nil {
			return nil, err
		}
		halves[i] = o
	}
	r.traced, r.tr = false, nil
	untraced, traced := medianDur(halves[0].passes), medianDur(halves[1].passes)
	o := halves[1]
	o.counter("trace.overhead_pct", 100*(float64(traced)/float64(untraced)-1))
	agg := tr.aggregate()
	vals := layerValues(agg, o.counters)

	fmt.Fprintf(r.log, "traced %s: pass_s untraced %.4f traced %.4f overhead %+.2f%%\n",
		name, untraced.Seconds(), traced.Seconds(), vals["trace.overhead_pct"])
	printSpans(r.log, agg)
	fmt.Fprintf(r.log, "%-26s %14s %-7s %s\n", "per-layer metric", "value", "unit", "should move")
	for _, m := range r.spec.PerLayer {
		fmt.Fprintf(r.log, "%-26s %14.4f %-7s %s\n", m.Name, vals[m.Name], m.Unit, perLayer[m.Name].predict)
	}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", name, r.seed))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := tr.writeChrome(f); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	fmt.Fprintln(r.log, "spans written to", path)

	failed := halves[0].failed + o.failed
	out := report{
		Correct:   failed == 0,
		Attempted: max(halves[0].attempted+o.attempted, 1),
		Failed:    failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range r.spec.PerLayer {
		out.Metrics[m.Name] = metricValue{vals[m.Name], m.Unit}
	}
	return &result{out, append(halves[0].failures, o.failures...)}, nil
}

func endToEndValues(o *outcome, setups []time.Duration, peakMB float64) map[string]float64 {
	lat := make([]float64, len(o.ops))
	perScript := map[int][]float64{}
	for i, op := range o.ops {
		lat[i] = ms(op.d)
		perScript[op.script] = append(perScript[op.script], ms(op.d))
	}
	var medians []float64
	for _, xs := range perScript {
		medians = append(medians, median(xs))
	}
	return map[string]float64{
		"setup_s":      medianDur(setups).Seconds(),
		"pass_s":       medianDur(o.passes).Seconds(),
		"ops_per_s":    float64(len(o.ops)) / o.wall.Seconds(),
		"geomean_ms":   geomean(medians),
		"p50_ms":       quantile(lat, 0.50),
		"p95_ms":       quantile(lat, 0.95),
		"peak_rss_mb":  peakMB,
		"exe_bytes":    float64(o.exeBytes),
		"assay_cycles": float64(o.cycles),
	}
}

func printHuman(w io.Writer, spec *benchSpec, name string, o *outcome, m map[string]float64) {
	fmt.Fprintf(w, "workload %s: %d ops in %d passes, %.2fs measured\n", name, len(o.ops), len(o.passes), o.wall.Seconds())
	for _, d := range spec.EndToEnd {
		fmt.Fprintf(w, "  %-14s %14.4f %-7s %s\n", d.Name, m[d.Name], d.Unit, endToEndDoc[d.Name])
	}
	for _, e := range o.extra {
		fmt.Fprintf(w, "  %-14s %14.4f %-7s %s\n", e.name, e.value, e.unit, e.doc)
	}
	fmt.Fprintf(w, "  %-14s %14.4f %-7s failed / attempted (%d / %d)\n", "error_ratio",
		float64(o.failed)/float64(max(o.attempted, 1)), "ratio", o.failed, o.attempted)
}

// printSpans prints every span name with its call count, total and self
// time.
func printSpans(w io.Writer, agg map[string]layerStats) {
	names := make([]string, 0, len(agg))
	for n := range agg {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-16s %7s %12s %12s %12s\n", "span", "calls", "total_ms", "self_ms", "alloc_mb")
	for _, n := range names {
		l := agg[n]
		fmt.Fprintf(w, "%-16s %7d %12.3f %12.3f %12.3f\n", n, l.Calls, ms(l.Total), ms(l.Self), float64(l.AllocBytes)/(1<<20))
	}
}
