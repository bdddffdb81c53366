package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"biocoder"
	"biocoder/internal/analysis"
	"biocoder/internal/arch"
	"biocoder/internal/assays"
	"biocoder/internal/cfg"
	"biocoder/internal/codegen"
	"biocoder/internal/depgraph"
	"biocoder/internal/pinsafe"
	"biocoder/internal/place"
	"biocoder/internal/sched"
	"biocoder/internal/sensor"
	"biocoder/internal/verify"
)

// assayOf maps each BioScript of the corpus to the Table 1 assay whose
// scenarios (scripted sensor readings) it is simulated under.
var assayOf = map[string]string{
	"opiate.bio":            "Opiate detection immunoassay",
	"probabilistic_pcr.bio": "Probabilistic PCR",
	"pcr_replenish.bio":     "PCR w/droplet replenishment",
	"image_probe.bio":       "Image probe synthesis",
	"neurotransmitter.bio":  "Neurotransmitter sensing",
	"pcr.bio":               "PCR",
}

type script struct {
	file   string
	source string
	assay  *assays.Assay
}

func loadScripts(root string) ([]*script, error) {
	files, err := filepath.Glob(filepath.Join(root, "internal", "assays", "scripts", "*.bio"))
	if err != nil {
		return nil, err
	}
	if len(files) != len(assayOf) {
		return nil, fmt.Errorf("found %d scripts under %s/internal/assays/scripts, want %d", len(files), root, len(assayOf))
	}
	var out []*script
	for _, f := range files {
		name := filepath.Base(f)
		a := assays.ByName(assayOf[name])
		if a == nil {
			return nil, fmt.Errorf("%s: no Table 1 assay", name)
		}
		src, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		out = append(out, &script{file: name, source: string(src), assay: a})
	}
	return out, nil
}

// expected.json is the benchmark's record of correct outputs: per script,
// the simulated cycles and droplet I/O of every Table 1 scenario, and the
// set of diagnostic codes the analyses report.
//
//go:embed expected.json
var expectedJSON []byte

type expectation struct {
	Scenarios map[string]scenarioRun `json:"scenarios"`
	Codes     []string               `json:"codes"`
}

type scenarioRun struct {
	Cycles    int `json:"cycles"`
	Dispensed int `json:"dispensed"`
	Collected int `json:"collected"`
}

func loadExpected() (map[string]expectation, error) {
	var exp map[string]expectation
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return exp, nil
}

// compileScript compiles a parsed script. Untraced it calls
// biocoder.Compile with default options (serial, no memo); traced it calls
// the same phases one by one with a span around each, so the executable
// must encode byte-identical either way (the callers check it).
func compileScript(r *runner, bs *biocoder.BioSystem, id string, parent int) (*biocoder.Compiled, error) {
	if r.tr == nil {
		return biocoder.Compile(bs, biocoder.Options{})
	}
	tr := r.tr
	chip := arch.Default()
	sp := tr.begin("lang.lower", id, parent)
	g, err := bs.Build()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("cfg.ssi", id, parent)
	err = cfg.ToSSI(g)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("place.topology", id, parent)
	topo, err := place.BuildTopologyFaulty(chip, nil)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("sched", id, parent)
	sr, err := sched.Schedule(g, sched.Config{Res: topo.Resources(), CyclePeriod: chip.CyclePeriod, Priority: sched.CriticalPath})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("place", id, parent)
	pl, err := place.PlaceCtx(nil, g, sr, topo, nil)
	if err == nil {
		err = pl.Check()
	}
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("codegen", id, parent)
	ex, err := codegen.GenerateCtx(nil, g, sr, pl, topo, nil)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("codegen.check", id, parent)
	err = ex.Check()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	return &biocoder.Compiled{Chip: chip, Graph: g, Topology: topo, Schedule: sr, Placement: pl, Executable: ex}, nil
}

func parseScript(r *runner, s *script, id string, parent int) (*biocoder.BioSystem, error) {
	sp := r.tr.begin("parser", id, parent)
	defer r.tr.end(sp)
	return biocoder.ParseScript(s.source)
}

func encode(r *runner, prog *biocoder.Compiled, id string, parent int) ([]byte, error) {
	sp := r.tr.begin("codegen.encode", id, parent)
	defer r.tr.end(sp)
	var buf bytes.Buffer
	err := prog.Save(&buf)
	return buf.Bytes(), err
}

func decode(r *runner, exe []byte, id string, parent int) (*biocoder.Compiled, error) {
	sp := r.tr.begin("codegen.decode", id, parent)
	defer r.tr.end(sp)
	return biocoder.Load(bytes.NewReader(exe))
}

// simulate runs every Table 1 scenario of the script's assay with its
// scripted sensors and checks each run: it completes (the simulator fails
// a run that strands or loses a droplet), its cycle count and droplet I/O
// equal the recorded ones, and its execution time is within ±10% of the
// paper's. It returns the simulated cycles and the time spent in the
// simulator.
func simulate(r *runner, o *outcome, s *script, prog *biocoder.Compiled, exp expectation, id string, parent int) (int, time.Duration) {
	total := 0
	var busy time.Duration
	for _, sc := range s.assay.Scenarios {
		model := sensor.NewScripted(sc.Script)
		model.Fallback = sensor.NewUniform(1)
		sp := r.tr.begin("exec", id, parent)
		start := time.Now()
		res, err := prog.Run(biocoder.RunOptions{Sensors: model})
		busy += time.Since(start)
		r.tr.end(sp)
		if err != nil {
			o.fail("%s/%s: simulate: %v", s.file, sc.Name, err)
			continue
		}
		total += res.Cycles
		got := scenarioRun{res.Cycles, res.Dispensed, res.Collected}
		if want, ok := exp.Scenarios[sc.Name]; !ok || got != want {
			o.fail("%s/%s: cycles/dispensed/collected %+v, expected.json records %+v", s.file, sc.Name, got, want)
		}
		if dev := res.Time.Seconds()/sc.PaperTime.Seconds() - 1; dev > 0.10 || dev < -0.10 {
			o.fail("%s/%s: simulated %v is %+.1f%% off the paper's %v", s.file, sc.Name, res.Time, 100*dev, sc.PaperTime)
		}
	}
	return total, busy
}

// corpusCompile is the bfc + bfsim user's loop: each pass takes every
// script through ParseScript → Compile → Save → Load → simulate every
// Table 1 scenario. A run makes at least minCompilePasses passes, so
// pass_s is a median of three.
const minCompilePasses = 3

type corpusCompile struct {
	exp map[string]expectation
	ref [][]byte // biocoder.Compile's encoding of each script, from set-up
}

func setupCorpusCompile(r *runner) (instance, error) {
	exp, err := loadExpected()
	if err != nil {
		return nil, err
	}
	c := &corpusCompile{exp: exp, ref: make([][]byte, len(r.scripts))}
	// Set-up compiles the corpus once with biocoder.Compile: the encodings
	// every measured pass must reproduce.
	for i, s := range r.scripts {
		bs, err := biocoder.ParseScript(s.source)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.file, err)
		}
		prog, err := biocoder.Compile(bs, biocoder.Options{})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.file, err)
		}
		var buf bytes.Buffer
		if err := prog.Save(&buf); err != nil {
			return nil, fmt.Errorf("%s: %w", s.file, err)
		}
		c.ref[i] = buf.Bytes()
	}
	return c, nil
}

func (c *corpusCompile) close() {}

func (c *corpusCompile) measure(r *runner, o *outcome) {
	rng := rand.New(rand.NewSource(r.seed))
	var compileTimes []time.Duration
	var simBusy time.Duration
	simCycles, simRuns := 0, 0
	start := time.Now()
	for pass := 0; pass < minCompilePasses || time.Since(start) < r.seconds; pass++ {
		id := fmt.Sprintf("pass%d", pass)
		pspan := r.tr.begin("pass", id, -1)
		var passTime, passCompile time.Duration
		o.cycles = 0
		for _, i := range rng.Perm(len(r.scripts)) {
			s := r.scripts[i]
			o.attempted++
			// Each half of an op starts on a collected heap with its free
			// memory returned to the OS, as a fresh bfc or bfsim process
			// would, so no garbage, compile-time artifact or background
			// scavenging is billed to the half that follows.
			debug.FreeOSMemory()
			exe, tCompile, err := c.compile(r, o, s, pass == 0, id, pspan)
			debug.FreeOSMemory()
			t1 := time.Now()
			var loaded *biocoder.Compiled
			if err == nil {
				loaded, err = decode(r, exe, id, pspan)
			}
			if err != nil {
				o.fail("%s: %v", s.file, err)
				continue
			}
			cycles, busy := simulate(r, o, s, loaded, c.exp[s.file], id, pspan)
			d := tCompile + time.Since(t1)
			o.ops = append(o.ops, opSample{i, d})
			passTime += d
			passCompile += tCompile
			o.cycles += cycles
			simCycles += cycles
			simBusy += busy
			simRuns += len(s.assay.Scenarios)

			// Output checks, untimed.
			if !bytes.Equal(exe, c.ref[i]) {
				o.fail("%s: pass %d encodes %d bytes that differ from biocoder.Compile's %d", s.file, pass, len(exe), len(c.ref[i]))
			}
			var again bytes.Buffer
			if err := loaded.Save(&again); err != nil || !bytes.Equal(again.Bytes(), exe) {
				o.fail("%s: Load(Save(x)) does not re-encode byte-identically (%v)", s.file, err)
			}
		}
		r.tr.end(pspan)
		o.passes = append(o.passes, passTime)
		compileTimes = append(compileTimes, passCompile)
		o.wall += passTime
	}
	for _, ref := range c.ref {
		o.exeBytes += len(ref)
	}
	o.counter("exec.cycles", meanOf(float64(simCycles), simRuns))
	o.extra = append(o.extra,
		extraLine{"compile_s", "s", medianDur(compileTimes).Seconds(), "median pass of parse → compile → Save"},
		extraLine{"sim_mcycles_per_s", "1/s", float64(simCycles) / 1e6 / simBusy.Seconds(), "simulated Mcycles per second in the simulator"})
}

// compile takes one script through parse → compile → encode and returns
// the encoding with the time that took. With check set it then verifies
// the executable, untimed.
func (c *corpusCompile) compile(r *runner, o *outcome, s *script, check bool, id string, parent int) ([]byte, time.Duration, error) {
	start := time.Now()
	bs, err := parseScript(r, s, id, parent)
	if err != nil {
		return nil, 0, err
	}
	prog, err := compileScript(r, bs, id, parent)
	if err != nil {
		return nil, 0, err
	}
	exe, err := encode(r, prog, id, parent)
	d := time.Since(start)
	if err == nil && check {
		rep := verify.Run(&verify.Unit{Graph: prog.Graph, Exec: prog.Executable, Placement: prog.Placement})
		if rep.HasErrors() {
			o.fail("%s: verify: %d error(s), first: %v", s.file, rep.Count(verify.Error), rep.Err())
		}
	}
	return exe, d, err
}

// corpusAnalyze is the bfvet user's loop: the corpus is compiled once at
// set-up, and each pass runs verify, analysis, pinsafe and depgraph over
// every executable. An op is one script's four calls, and its time is the
// sum of their durations; pass_s sums the ops, so a faster call moves it
// whichever worker made the call. The heaviest executable's four calls,
// most of a pass, share analyzeWorkers workers (the 2 CPUs the benchmark
// was sized on) only so that an untraced run fits its time budget. The
// other scripts then follow one at a time, in seeded order, each on a
// collected heap with its free memory returned to the OS; run beside the
// heavy calls, their times spread by a third between runs.
// Both halves of a traced run use one worker, so each span's allocation
// count is its own call's and the halves differ only in their spans.
const analyzeWorkers = 2

// analyses are the four layers a pass runs over each executable.
var analyses = []string{"verify", "analysis", "pinsafe", "depgraph"}

type corpusAnalyze struct {
	exp   map[string]expectation
	progs []*biocoder.Compiled
	exes  [][]byte
	key   depgraph.Key
	// differs lists scripts whose traced, phase-by-phase compile did not
	// encode byte-identical to biocoder.Compile's.
	differs []string
}

func setupCorpusAnalyze(r *runner) (instance, error) {
	exp, err := loadExpected()
	if err != nil {
		return nil, err
	}
	c := &corpusAnalyze{exp: exp}
	for _, s := range r.scripts {
		id := "setup"
		bs, err := parseScript(r, s, id, -1)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.file, err)
		}
		prog, err := compileScript(r, bs, id, -1)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.file, err)
		}
		exe, err := encode(r, prog, id, -1)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.file, err)
		}
		if r.tr != nil {
			var buf bytes.Buffer
			ref, err := biocoder.ParseScript(s.source)
			if err == nil {
				var prog *biocoder.Compiled
				if prog, err = biocoder.Compile(ref, biocoder.Options{}); err == nil {
					err = prog.Save(&buf)
				}
			}
			if err != nil || !bytes.Equal(buf.Bytes(), exe) {
				c.differs = append(c.differs, s.file)
			}
		}
		c.progs = append(c.progs, prog)
		c.exes = append(c.exes, exe)
	}
	c.key, err = depgraph.KeyFor(biocoder.Version, arch.Default(), biocoder.Options{}.CanonicalText())
	return c, err
}

func (c *corpusAnalyze) close() {}

func (c *corpusAnalyze) measure(r *runner, o *outcome) {
	for _, f := range c.differs {
		o.fail("%s: traced compile does not encode byte-identical to biocoder.Compile", f)
	}
	workers := analyzeWorkers
	if r.traced {
		workers = 1
	}
	heaviest := 0
	for i := range c.exes {
		if len(c.exes[i]) > len(c.exes[heaviest]) {
			heaviest = i
		}
	}
	light := make([]int, 0, len(c.exes)-1)
	for i := range c.exes {
		if i != heaviest {
			light = append(light, i)
		}
	}
	rng := rand.New(rand.NewSource(r.seed))
	passTimes := map[string]time.Duration{}
	runs := 0
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < r.seconds; pass++ {
		id := fmt.Sprintf("pass%d", pass)
		rng.Shuffle(len(light), func(a, b int) { light[a], light[b] = light[b], light[a] })
		pspan := r.tr.begin("pass", id, -1)
		var passTime time.Duration
		for n, i := range append([]int{heaviest}, light...) {
			w := 1
			if n == 0 {
				w = workers
			}
			debug.FreeOSMemory() // as in corpusCompile.measure
			t0 := time.Now()
			busy, codes, err := c.analyzeScript(r, i, w, passTimes, id, pspan)
			o.wall += time.Since(t0)
			passTime += busy
			s := r.scripts[i]
			o.attempted++
			if err != nil {
				o.fail("%s: %v", s.file, err)
				continue
			}
			o.ops = append(o.ops, opSample{i, busy})
			if want := c.exp[s.file].Codes; !equalStrings(codes, want) {
				o.fail("%s: diagnostic codes %v, expected.json records %v", s.file, codes, want)
			}
		}
		r.tr.end(pspan)
		o.passes = append(o.passes, passTime)
		runs++
	}
	o.endTimed()
	for _, p := range []string{"volume", "timing", "contamination"} {
		o.counter("analysis."+p+"_ms", meanOf(ms(passTimes[p]), runs*len(r.scripts)))
	}
	// The analysed executables must be the right ones: they simulate to
	// the recorded cycle counts.
	for i, s := range r.scripts {
		o.exeBytes += len(c.exes[i])
		cycles, _ := simulate(&runner{}, o, s, c.progs[i], c.exp[s.file], "", -1)
		o.cycles += cycles
	}
}

// analyzeScript runs the four analyses over script i's executable on the
// given number of workers. It returns the sum of their durations (an
// op's time) and the sorted set of diagnostic codes they report, and adds
// the analysis passes' own timings to passTimes. An ERROR finding is an
// error.
func (c *corpusAnalyze) analyzeScript(r *runner, i, workers int, passTimes map[string]time.Duration, id string, parent int) (time.Duration, []string, error) {
	var (
		mu    sync.Mutex
		next  int
		busy  time.Duration
		codes = map[string]bool{}
		errs  []error
		wg    sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				k := next
				next++
				mu.Unlock()
				if k >= len(analyses) {
					return
				}
				start := time.Now()
				rep, pts, err := c.analyze(r, i, k, id, parent)
				d := time.Since(start)

				mu.Lock()
				busy += d
				switch {
				case err != nil:
					errs = append(errs, fmt.Errorf("%s: %w", analyses[k], err))
				case rep.HasErrors():
					errs = append(errs, fmt.Errorf("%s: ERROR finding: %v", analyses[k], rep.Err()))
				default:
					for _, d := range rep.Diags {
						codes[d.Code] = true
					}
					for _, pt := range pts {
						passTimes[pt.Name] += pt.Duration
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(errs) > 0 {
		return 0, nil, errors.Join(errs...)
	}
	return busy, sortedKeys(codes), nil
}

// analyze runs analysis k of analyses over script i's executable and
// returns its report, with the analysis passes' own timings.
func (c *corpusAnalyze) analyze(r *runner, i, k int, id string, parent int) (*verify.Report, []verify.PassTime, error) {
	prog := c.progs[i]
	unit := &verify.Unit{Graph: prog.Graph, Exec: prog.Executable}
	sp := r.tr.begin(analyses[k], id, parent)
	defer r.tr.end(sp)
	switch analyses[k] {
	case "verify":
		return verify.Run(&verify.Unit{Graph: prog.Graph, Exec: prog.Executable, Placement: prog.Placement}), nil, nil
	case "analysis":
		res, err := analysis.Analyze(unit, analysis.Config{})
		if err != nil {
			return nil, nil, err
		}
		return res.Report, res.Report.PassTimes, nil
	case "pinsafe":
		res, err := pinsafe.Analyze(unit, pinsafe.Config{})
		if err != nil {
			return nil, nil, err
		}
		return res.Report, nil, nil
	default:
		res, err := depgraph.Analyze(unit, depgraph.Config{Key: c.key})
		if err != nil {
			return nil, nil, err
		}
		return res.Report, nil, nil
	}
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
