package main

import (
	"reflect"
	"testing"
	"time"

	"biocoder"
	"biocoder/internal/parser"
)

func testScripts(t *testing.T) []*script {
	t.Helper()
	scripts, err := loadScripts("..")
	if err != nil {
		t.Fatal(err)
	}
	return scripts
}

func rounds(t *testing.T, seed int64, n int) [][]request {
	t.Helper()
	g, err := newGenerator(seed, testScripts(t))
	if err != nil {
		t.Fatal(err)
	}
	var out [][]request
	for i := 0; i < n; i++ {
		out = append(out, g.round())
	}
	return out
}

func TestStreamSameSeedSameStream(t *testing.T) {
	a, b := rounds(t, 7, 4), rounds(t, 7, 4)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two generators with seed 7 produced different streams")
	}
	if reflect.DeepEqual(a, rounds(t, 8, 4)) {
		t.Fatal("seeds 7 and 8 produced the same stream")
	}
}

func TestStreamRoundMix(t *testing.T) {
	scripts := testScripts(t)
	light := len(scripts) - 1
	want := map[reqKind]int{
		kindRepeat: repeatsPerScript * len(scripts),
		kindEdit:   editsPerLight * light,
		kindBatch:  batchesPerLight * light,
	}
	for ri, round := range rounds(t, 3, 5) {
		got := map[reqKind]int{}
		for _, rq := range round {
			got[rq.kind]++
			heavy := scripts[rq.script].file == heavyScriptFile
			switch rq.kind {
			case kindRepeat:
				if rq.source != scripts[rq.script].source {
					t.Errorf("round %d: a repeat does not resend the base source", ri)
				}
			case kindEdit:
				if heavy {
					t.Errorf("round %d: an edit of the heavy script", ri)
				}
			case kindBatch:
				if heavy || len(rq.seeds) != seedsPerBatch {
					t.Errorf("round %d: batch of %s with %d seeds", ri, scripts[rq.script].file, len(rq.seeds))
				}
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round %d: mix %v, want %v", ri, got, want)
		}
	}
}

// TestEditsChangeOneDuration holds every generated edit to the contract:
// it parses, and it differs from its base script in exactly one
// statement's duration and nothing else.
func TestEditsChangeOneDuration(t *testing.T) {
	scripts := testScripts(t)
	seen := map[string]bool{}
	for seed := int64(1); seed <= 3; seed++ {
		for _, round := range rounds(t, seed, 3) {
			for _, rq := range round {
				if rq.kind != kindEdit {
					continue
				}
				if _, err := biocoder.ParseScript(rq.source); err != nil {
					t.Fatalf("%s edit does not parse: %v", scripts[rq.script].file, err)
				}
				if seed == 1 {
					if seen[rq.source] {
						t.Errorf("%s: an edit repeats an earlier edit", scripts[rq.script].file)
					}
					seen[rq.source] = true
				}
				checkOneDuration(t, scripts[rq.script], rq.source)
			}
		}
	}
}

func checkOneDuration(t *testing.T, base *script, edited string) {
	t.Helper()
	bs, err := parser.ParseAST(base.source)
	if err != nil {
		t.Fatal(err)
	}
	es, err := parser.ParseAST(edited)
	if err != nil {
		t.Fatal(err)
	}
	bd, ed := durations(bs, nil), durations(es, nil)
	if len(bd) != len(ed) {
		t.Fatalf("%s: edit has %d durations, base %d", base.file, len(ed), len(bd))
	}
	changed := -1
	for i := range bd {
		if *bd[i] != *ed[i] {
			if changed >= 0 {
				t.Fatalf("%s: edit changes durations %d and %d", base.file, changed, i)
			}
			changed = i
		}
	}
	if changed < 0 {
		t.Fatalf("%s: edit changes no duration", base.file)
	}
	if *ed[changed] < time.Second {
		t.Errorf("%s: edited duration %v is below 1s", base.file, *ed[changed])
	}
	*ed[changed] = *bd[changed]
	if parser.Format(es) != parser.Format(bs) {
		t.Errorf("%s: edit changes more than the duration of statement %d", base.file, changed)
	}
}
