package main

import (
	"fmt"
	"math/rand"
	"time"

	"biocoder/internal/parser"
)

// The serve-edit request stream. Every round has the same fixed mix; the
// seed decides only the order within a round, which statement an edit
// touches and by how much, and the sensor seeds of a batch. A fixed mix
// keeps throughput and the latency percentiles comparable across seeds.
//
// One round (21 requests):
//   - 1 repeat of each script's base source: a cache-hit read;
//   - 2 one-block edits of each light script: one statement's duration
//     changes, so the compile misses the cache and hits the block memo
//     only partly;
//   - 1 batched /v1/simulate of each light script's base source, with
//     seedsPerBatch sensor seeds fanned out over the replicas, which
//     decode and verify-gate the posted executable.
//
// Reads are 6 of 21 requests, so p50_ms and p95_ms both lie inside the
// write mode, clear of the boundary with the sub-millisecond reads, where
// a median moves with every shift in the mix. The heavy script (opiate)
// is only repeated. An opiate edit costs 2-5 s against about 0.1 s for a
// light one, depending on which replica's memo the ring picks; at a few
// per run it set the throughput and spread it by a fifth between seeds.
// Its batch would add a third latency mode through the per-seed decode
// and verify. corpus-compile measures the opiate compile.
const (
	repeatsPerScript   = 1
	editsPerLight      = 2
	batchesPerLight    = 1
	seedsPerBatch      = 2
	heavyScriptFile    = "opiate.bio"
	durationEditFactor = 10 // an edit moves a duration by up to 1/10 of it
)

type reqKind string

const (
	kindRepeat reqKind = "repeat"
	kindEdit   reqKind = "edit"
	kindBatch  reqKind = "batch"
)

type request struct {
	kind   reqKind
	script int
	source string
	seeds  []int64 // batch only
}

// editable is a script's parsed statements and pointers to every
// duration in them, in source order.
type editable struct {
	stmts []parser.Stmt
	durs  []*time.Duration
}

type generator struct {
	rng     *rand.Rand
	scripts []*script
	ast     []editable
	used    map[string]bool // edits already generated: script/site/duration
}

func newGenerator(seed int64, scripts []*script) (*generator, error) {
	g := &generator{rng: rand.New(rand.NewSource(seed)), scripts: scripts, used: map[string]bool{}}
	for _, s := range scripts {
		stmts, err := parser.ParseAST(s.source)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.file, err)
		}
		e := editable{stmts: stmts}
		e.durs = durations(stmts, nil)
		if len(e.durs) == 0 {
			return nil, fmt.Errorf("%s: no statement with a duration to edit", s.file)
		}
		g.ast = append(g.ast, e)
	}
	return g, nil
}

// durations appends a pointer to every statement duration, depth first.
func durations(stmts []parser.Stmt, out []*time.Duration) []*time.Duration {
	for _, s := range stmts {
		switch s := s.(type) {
		case *parser.Vortex:
			out = append(out, &s.Dur)
		case *parser.Heat:
			out = append(out, &s.Dur)
		case *parser.Store:
			out = append(out, &s.Dur)
		case *parser.Detect:
			out = append(out, &s.Dur)
		case *parser.Loop:
			out = durations(s.Body, out)
		case *parser.While:
			out = durations(s.Body, out)
		case *parser.If:
			for _, arm := range s.Arms {
				out = durations(arm.Body, out)
			}
			out = durations(s.Else, out)
		}
	}
	return out
}

// round returns the next round of requests.
func (g *generator) round() []request {
	var out []request
	for i, s := range g.scripts {
		for k := 0; k < repeatsPerScript; k++ {
			out = append(out, request{kind: kindRepeat, script: i, source: s.source})
		}
		if s.file == heavyScriptFile {
			continue
		}
		for k := 0; k < editsPerLight; k++ {
			out = append(out, g.edit(i))
		}
		for k := 0; k < batchesPerLight; k++ {
			seeds := make([]int64, seedsPerBatch)
			for j := range seeds {
				seeds[j] = g.rng.Int63()
			}
			out = append(out, request{kind: kindBatch, script: i, source: s.source, seeds: seeds})
		}
	}
	g.rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// edit changes one statement's duration of script i to a value no earlier
// edit used, and returns the edited source.
func (g *generator) edit(i int) request {
	e := g.ast[i]
	for tries := 0; ; tries++ {
		site := g.rng.Intn(len(e.durs))
		old := *e.durs[site]
		// The range widens as tries fail, so a long run never runs out
		// of fresh edits.
		step := max(int64(old/time.Second)/durationEditFactor, 1) + int64(tries/100)
		delta := time.Duration(g.rng.Int63n(step)+1) * time.Second
		if g.rng.Intn(2) == 0 && old-delta >= time.Second {
			delta = -delta
		}
		key := fmt.Sprintf("%d/%d/%d", i, site, old+delta)
		if g.used[key] {
			continue
		}
		g.used[key] = true
		*e.durs[site] = old + delta
		src := parser.Format(e.stmts)
		*e.durs[site] = old
		return request{kind: kindEdit, script: i, source: src}
	}
}
