package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// BENCHMARK.json at the repository root lists the workloads and every
// metric's name and unit, in the order the benchmark prints them. The
// benchmark reads it at start-up; this file adds only how each metric is
// read and, for the per-layer metrics, which end-to-end metric each should
// move and on which workload, so a later change can cite the prediction.

type benchSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []metricSpec            `json:"end_to_end"`
	PerLayer  []metricSpec            `json:"per_layer"`
}

type metricSpec struct{ Name, Unit string }

// loadBench reads BENCHMARK.json under root and checks that the benchmark
// can run every workload it lists and read every metric it names, and
// that no workload or metric the code knows is left out of it.
func loadBench(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchSpec
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var missing []string
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			missing = append(missing, "workload "+w.Name)
		}
	}
	for _, m := range b.EndToEnd {
		if _, ok := endToEndDoc[m.Name]; !ok {
			missing = append(missing, "end-to-end metric "+m.Name)
		}
	}
	for _, m := range b.PerLayer {
		if _, ok := perLayer[m.Name]; !ok {
			missing = append(missing, "per-layer metric "+m.Name)
		}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("BENCHMARK.json names what the benchmark cannot run or read: %v", missing)
	}
	if len(b.Workloads) != len(workloads) || len(b.EndToEnd) != len(endToEndDoc) || len(b.PerLayer) != len(perLayer) {
		return nil, fmt.Errorf("BENCHMARK.json lists %d workloads, %d end-to-end and %d per-layer metrics; the benchmark has %d, %d and %d",
			len(b.Workloads), len(b.EndToEnd), len(b.PerLayer), len(workloads), len(endToEndDoc), len(perLayer))
	}
	return &b, nil
}

func (b *benchSpec) workloadNames() []string {
	names := make([]string, len(b.Workloads))
	for i, w := range b.Workloads {
		names[i] = w.Name
	}
	return names
}

// endToEndDoc describes each end-to-end metric an untraced run prints, on
// every workload. Each workload reads them in its own unit of work (an
// "op"): one script through parse → compile → Save → Load → simulate on
// corpus-compile, one script through verify → analysis → pinsafe →
// depgraph on corpus-analyze, one HTTP request on serve-edit.
var endToEndDoc = map[string]string{
	"setup_s":      "median time to set the workload up (set up three times)",
	"pass_s":       "median pass: sum of the six scripts' op times, or one 21-request round on serve-edit",
	"ops_per_s":    "ops completed per wall second of the measured phase",
	"geomean_ms":   "geometric mean over the six scripts of each script's median op time",
	"p50_ms":       "median op latency",
	"p95_ms":       "95th-percentile op latency",
	"peak_rss_mb":  "VmHWM of the measured phase (reset after set-up)",
	"exe_bytes":    "encoded size of the six compiled scripts (deterministic)",
	"assay_cycles": "simulated cycles over every Table 1 scenario (deterministic)",
}

// stat selects how a per-layer metric is read.
type stat int

const (
	statMS      stat = iota // mean span duration per call, ms
	statSelfMS              // mean self time per call, ms
	statAllocs              // mean heap allocations per call
	statAllocMB             // mean heap MB allocated per call
	statCounter             // a value the workload reads from the program's own counters
)

// layerDef says how a traced run reads one per-layer metric: from the
// spans named span, or from a counter. A layer the workload never calls
// reads 0. predict names the end-to-end metric the layer should move and
// on which workload; every workload not named there should show no change.
type layerDef struct {
	span    string
	stat    stat
	predict string
}

var perLayer = map[string]layerDef{
	"parser.ms":                 {"parser", statMS, compilePhases},
	"lang.lower_ms":             {"lang.lower", statMS, compilePhases},
	"cfg.ssi_ms":                {"cfg.ssi", statMS, compilePhases},
	"place.topology_ms":         {"place.topology", statMS, compilePhases},
	"sched.ms":                  {"sched", statMS, compilePhases},
	"place.ms":                  {"place", statMS, compilePhases},
	"codegen.ms":                {"codegen", statMS, codegenMoves},
	"codegen.allocs":            {"codegen", statAllocs, codegenMoves},
	"codegen.alloc_mb":          {"codegen", statAllocMB, codegenMoves},
	"codegen.check_ms":          {"codegen.check", statMS, "corpus-compile: pass_s"},
	"codegen.encode_ms":         {"codegen.encode", statMS, "corpus-compile: pass_s"},
	"codegen.decode_ms":         {"codegen.decode", statMS, decodeMoves},
	"codegen.decode_alloc_mb":   {"codegen.decode", statAllocMB, decodeMoves},
	"exec.ms":                   {"exec", statMS, execMoves},
	"exec.cycles":               {"", statCounter, execMoves},
	"verify.ms":                 {"verify", statMS, "corpus-analyze: pass_s"},
	"verify.allocs":             {"verify", statAllocs, "corpus-analyze: pass_s"},
	"serve.verify_ms":           {"", statCounter, "serve-edit: p50_ms, p95_ms"},
	"analysis.ms":               {"analysis", statMS, analysisMoves},
	"analysis.alloc_mb":         {"analysis", statAllocMB, analysisMoves},
	"analysis.volume_ms":        {"", statCounter, analysisMoves},
	"analysis.timing_ms":        {"", statCounter, analysisMoves},
	"analysis.contamination_ms": {"", statCounter, analysisMoves},
	"pinsafe.ms":                {"pinsafe", statMS, "corpus-analyze: pass_s, peak_rss_mb"},
	"pinsafe.alloc_mb":          {"pinsafe", statAllocMB, "corpus-analyze: pass_s, peak_rss_mb"},
	"depgraph.ms":               {"depgraph", statMS, "corpus-analyze: pass_s"},
	"serve.ms":                  {"serve", statMS, serveMoves},
	"serve.compile_ms":          {"", statCounter, serveMoves},
	"serve.compiles":            {"", statCounter, serveMoves},
	"serve.cache_hit_ratio":     {"", statCounter, serveMoves},
	"serve.memo_hit_ratio":      {"", statCounter, serveMoves},
	"serve.coalesced":           {"", statCounter, serveMoves},
	"fleet.ms":                  {"fleet", statMS, fleetMoves},
	"fleet.self_ms":             {"fleet", statSelfMS, fleetMoves},
	"fleet.retries":             {"", statCounter, fleetMoves},
	"fleet.shed":                {"", statCounter, fleetMoves},
	"trace.overhead_pct":        {"", statCounter, "none: traced minus untraced pass_s, as a share of untraced"},
}

const (
	compilePhases = "corpus-compile: geomean_ms only (together under 0.1% of pass_s)"
	codegenMoves  = "corpus-compile: pass_s, peak_rss_mb; serve-edit: p50_ms, p95_ms; every workload: setup_s, which compiles the corpus"
	// A replica's decode of a posted executable happens inside the
	// program, so decode is measured on corpus-compile only.
	decodeMoves   = "corpus-compile: pass_s; serve-edit: p95_ms (batched simulates decode on each replica)"
	execMoves     = "corpus-compile: pass_s (sim_mcycles_per_s)"
	analysisMoves = "corpus-analyze: pass_s, geomean_ms, peak_rss_mb"
	serveMoves    = "serve-edit: p50_ms, ops_per_s"
	fleetMoves    = "serve-edit: p50_ms"
)

// layerValues reads every per-layer metric from the traced run's spans
// and the workload's counters.
func layerValues(agg map[string]layerStats, counters map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	for name, m := range perLayer {
		l := agg[m.span]
		switch m.stat {
		case statMS:
			out[name] = l.meanMS()
		case statSelfMS:
			out[name] = l.meanSelfMS()
		case statAllocs:
			out[name] = l.meanAllocs()
		case statAllocMB:
			out[name] = l.meanAllocMB()
		case statCounter:
			out[name] = counters[name]
		}
	}
	return out
}
