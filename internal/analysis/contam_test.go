// Corpus gates of the cross-contamination analysis.
//
// The golden file: every BF320/BF321 diagnostic, hazard and wash
// suggestion the analysis produces over the whole corpus (every assay and
// every bundled script, plain and with edge folding), committed in
// testdata/contamination.golden. Any change to the analysis must reproduce
// it byte for byte. Regenerate it after an intended change with:
//
//	BFCONTAM_UPDATE=1 go test -run TestContaminationGolden ./internal/analysis
//
// The static ⊇ runtime oracle: every residue incident the simulator
// records on a Table 1 scenario must fall inside a static BF320 hazard.
package analysis_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"biocoder"
	"biocoder/internal/analysis"
	"biocoder/internal/arch"
	"biocoder/internal/assays"
	"biocoder/internal/exec"
	"biocoder/internal/sensor"
	"biocoder/internal/verify"
)

const contamGolden = "testdata/contamination.golden"

// corpusProgram is one compiled corpus entry: a bundled assay or script,
// with the assay whose Table 1 scenarios drive it.
type corpusProgram struct {
	name  string
	assay *assays.Assay
	prog  *biocoder.Compiled
}

// scriptAssays maps each bundled script to the assay it expresses.
var scriptAssays = map[string]string{
	"opiate.bio":            "Opiate detection immunoassay",
	"probabilistic_pcr.bio": "Probabilistic PCR",
	"pcr_replenish.bio":     "PCR w/droplet replenishment",
	"image_probe.bio":       "Image probe synthesis",
	"neurotransmitter.bio":  "Neurotransmitter sensing",
	"pcr.bio":               "PCR",
}

// forEachCorpusProgram compiles every assay and then every bundled script
// with opt, one at a time, and hands each to fn.
func forEachCorpusProgram(t *testing.T, opt biocoder.Options, fn func(corpusProgram)) {
	t.Helper()
	for _, a := range assays.All() {
		prog, err := biocoder.Compile(a.Build(), opt)
		if err != nil {
			t.Fatalf("compile assay %s: %v", a.Name, err)
		}
		fn(corpusProgram{name: "assay " + a.Name, assay: a, prog: prog})
	}
	files, err := filepath.Glob(filepath.Join("..", "assays", "scripts", "*.bio"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(scriptAssays) {
		t.Fatalf("found %d bundled scripts, want %d", len(files), len(scriptAssays))
	}
	for _, file := range files {
		base := filepath.Base(file)
		a := assays.ByName(scriptAssays[base])
		if a == nil {
			t.Fatalf("%s: no assay named %q", base, scriptAssays[base])
		}
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		bs, err := biocoder.ParseScript(string(src))
		if err != nil {
			t.Fatalf("%s: parse: %v", base, err)
		}
		prog, err := biocoder.Compile(bs, opt)
		if err != nil {
			t.Fatalf("%s: compile: %v", base, err)
		}
		fn(corpusProgram{name: "script " + base, assay: a, prog: prog})
	}
}

func analyzeProgram(t *testing.T, p corpusProgram) *analysis.Result {
	t.Helper()
	res, err := analysis.Analyze(&verify.Unit{Graph: p.prog.Graph, Exec: p.prog.Executable}, analysis.Config{})
	if err != nil {
		t.Fatalf("%s: analyze: %v", p.name, err)
	}
	return res
}

// writeContamination renders the contamination findings of one analysis:
// the BF320/BF321 diagnostics with their full positions, then the hazards
// and wash suggestions.
func writeContamination(w *bytes.Buffer, res *analysis.Result) {
	for _, d := range res.Report.Diags {
		if d.Code != "BF320" && d.Code != "BF321" {
			continue
		}
		p := d.Pos
		fmt.Fprintf(w, "diag %s %s scope=%q instr=%d cycle=%d cell=%v hascell=%t: %s\n",
			d.Code, d.Sev, p.Scope, p.InstrID, p.Cycle, p.Cell, p.HasCell, d.Msg)
	}
	for _, h := range res.Hazards {
		fmt.Fprintf(w, "hazard %s -> %s carrier-scope=%q victim-scope=%q cell=%v reagents=%s cells=%v\n",
			h.Carrier, h.Victim, h.CarrierScope, h.VictimScope, h.Cell, strings.Join(h.Reagents, ","), h.Cells)
	}
	for _, s := range res.Suggestions {
		fmt.Fprintf(w, "wash after=%q tour=%d cells=%v\n", s.After, s.TourCycles, s.Cells)
	}
}

func TestContaminationGolden(t *testing.T) {
	t.Parallel()
	var got bytes.Buffer
	for _, variant := range []struct {
		name string
		opt  biocoder.Options
	}{
		{"plain", biocoder.Options{}},
		{"folded", biocoder.Options{FoldEdges: true}},
	} {
		forEachCorpusProgram(t, variant.opt, func(p corpusProgram) {
			fmt.Fprintf(&got, "== %s (%s)\n", p.name, variant.name)
			writeContamination(&got, analyzeProgram(t, p))
		})
	}
	if os.Getenv("BFCONTAM_UPDATE") != "" {
		if err := os.WriteFile(contamGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", contamGolden, got.Len())
		return
	}
	want, err := os.ReadFile(contamGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with BFCONTAM_UPDATE=1 go test -run TestContaminationGolden ./internal/analysis)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("contamination findings differ from %s at line %d:\n got: %s\nwant: %s\n"+
					"(regenerate with BFCONTAM_UPDATE=1 go test -run TestContaminationGolden ./internal/analysis after an intended change)",
					contamGolden, i+1, g, w)
			}
		}
	}
}

// uncovered returns the incidents no hazard covers: a covering hazard has
// the incident's droplet as Victim and the incident's cell among its Cells.
func uncovered(hazards []analysis.Hazard, incidents []exec.Incident) []exec.Incident {
	type key struct {
		victim string
		cell   arch.Point
	}
	covered := map[key]bool{}
	for _, h := range hazards {
		for _, c := range h.Cells {
			covered[key{h.Victim.String(), c}] = true
		}
	}
	var out []exec.Incident
	for _, in := range incidents {
		if !covered[key{in.Droplet, in.Cell}] {
			out = append(out, in)
		}
	}
	return out
}

func TestContaminationStaticCoversRuntime(t *testing.T) {
	t.Parallel()
	var (
		total   int
		witness []analysis.Hazard // hazards of a program with incidents
		first   exec.Incident
	)
	forEachCorpusProgram(t, biocoder.Options{}, func(p corpusProgram) {
		res := analyzeProgram(t, p)
		for _, sc := range p.assay.Scenarios {
			m := sensor.NewScripted(sc.Script)
			m.Fallback = sensor.NewUniform(1)
			run, err := p.prog.Run(biocoder.RunOptions{Sensors: m, TrackContamination: true})
			if err != nil {
				t.Fatalf("%s/%s: run: %v", p.name, sc.Name, err)
			}
			incidents := run.Contamination.Incidents
			for _, in := range uncovered(res.Hazards, incidents) {
				t.Errorf("%s/%s: runtime incident not predicted by any BF320 hazard: droplet %s picks up %v at %v in %s (cycle %d)",
					p.name, sc.Name, in.Droplet, in.Residues, in.Cell, in.Label, in.Cycle)
			}
			if witness == nil && len(incidents) > 0 {
				witness, first = res.Hazards, incidents[0]
			}
			total += len(incidents)
		}
	})
	if total == 0 {
		t.Fatal("no runtime contamination incidents across the corpus: the oracle checks nothing")
	}
	t.Logf("%d runtime incidents, all covered by static hazards", total)

	// Mutation: without the hazards predicting an incident, the oracle
	// must flag it.
	t.Run("mutation", func(t *testing.T) {
		var kept []analysis.Hazard
		for _, h := range witness {
			if h.Victim.String() != first.Droplet || !slices.Contains(h.Cells, first.Cell) {
				kept = append(kept, h)
			}
		}
		if len(kept) == len(witness) {
			t.Fatalf("no hazard covers incident %+v", first)
		}
		if got := uncovered(kept, []exec.Incident{first}); len(got) != 1 {
			t.Errorf("removing the covering hazard left incident %+v covered", first)
		}
	})
}
