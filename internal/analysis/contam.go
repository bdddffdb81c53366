package analysis

// Cross-contamination analysis. A droplet sliding over an electrode leaves
// trace residue of its reagents; a later droplet crossing the same electrode
// absorbs it. That is harmless between droplets of the same lineage (a
// renamed, split or merged droplet already contains everything its ancestors
// carried) but hazardous when the residue holds reagents foreign to the
// later droplet — the cyber-physical failure mode that motivates wash
// droplets (paper §5).
//
// The analysis composes three ingredients. (1) Reagent classes per fluid
// version, a fixpoint over the CFG (dispense introduces its fluid type, mix
// unions, split/heat/sense/store preserve, φ unions across predecessors).
// (2) Electrode-touch histories per block and per edge from the symbolic
// replay (verify.ReplayTouches) — the actual routed footprints, not the
// module rectangles. (3) The execution order of activation sequences: block
// a runs before edge (a,b) runs before block b; reachability over that
// order decides which touch pairs can happen in sequence on a real run.
// Every hazardous crossing not scrubbed by a planned wash tour becomes a
// BF320 warning, and feasible wash insertions are suggested as BF321 infos.

import (
	"fmt"
	"sort"
	"strings"

	"biocoder/internal/arch"
	"biocoder/internal/cfg"
	"biocoder/internal/ir"
	"biocoder/internal/verify"
	"biocoder/internal/wash"
)

// Hazard is one cross-contamination finding: droplet Victim crosses a cell
// where droplet Carrier earlier left residue of reagents foreign to Victim.
type Hazard struct {
	// Carrier left the residue; Victim picks it up.
	Carrier, Victim ir.FluidID
	// Reagents are the foreign reagent classes transferred, sorted.
	Reagents []string
	// Cells are the distinct hazardous electrodes this carrier/victim pair
	// shares, sorted by (Y, X).
	Cells []arch.Point
	// CarrierScope and VictimScope name the first sequence pair, in sorted
	// scope order, in which the crossing happens ("block x", "edge a->b");
	// Cell is the smallest hazardous electrode, by (Y, X), of that pair.
	CarrierScope, VictimScope string
	Cell                      arch.Point
}

// WashSuggestion proposes one wash insertion point: after the named
// sequence, a wash tour over the listed cells removes every residue that
// sequence contributes to downstream hazards.
type WashSuggestion struct {
	// After names the sequence whose residue the wash scrubs.
	After string
	// Cells are the hazardous electrodes to cover, sorted.
	Cells []arch.Point
	// TourCycles is the planned tour length (wash.Plan on the chip).
	TourCycles int
}

// seqNode identifies one activation sequence in execution order: a block
// or an edge.
type seqNode struct {
	scope   string
	succs   []*seqNode
	touches []verify.Touch
}

// cellEntry is one droplet's presence in one sequence on one electrode: the
// first and last cycle it touches the cell there.
type cellEntry struct {
	seq, fluid  int
	first, last int
}

// pairAgg aggregates the crossings of one carrier/victim pair. foreign is
// computed once per pair; an empty foreign set marks a harmless pair.
type pairAgg struct {
	foreign []string
	// s1, s2 and cell locate the diagnostic: the smallest scope pair, then
	// the smallest cell of that pair. cells lists every hazardous cell in
	// sweep order.
	s1, s2 int
	cell   arch.Point
	cells  []arch.Point
}

// analyzeContamination runs the full cross-contamination analysis, emitting
// BF320/BF321, and returns the hazards and suggestions.
//
// It sweeps each unwashed electrode once. The cell's touches collapse into
// distinct (sequence, droplet) entries with first and last touch cycle, and
// every ordered entry pair in execution order is a crossing: distinct
// sequences must be ordered by reachability, and within one sequence the
// carrier must arrive before the victim's last touch unless the sequence
// lies on a cycle. A crossing is hazardous when the carrier's reagents are
// not a subset of the victim's.
func analyzeContamination(u *verify.Unit, conf Config, rep *reporter) ([]Hazard, []WashSuggestion) {
	g := u.Graph
	if u.Exec == nil || g == nil || u.Chip == nil {
		return nil, nil
	}
	reagents := reagentSets(g)
	blockTouch, edgeTouch := verify.ReplayTouches(u)

	// Execution-order graph over sequences.
	nodes := map[string]*seqNode{}
	blockNode := map[int]*seqNode{}
	mk := func(scope string, touches []verify.Touch) *seqNode {
		n := &seqNode{scope: scope, touches: touches}
		nodes[scope] = n
		return n
	}
	for _, b := range g.Blocks {
		blockNode[b.ID] = mk("block "+b.Label, blockTouch[b.ID])
	}
	for _, e := range g.Edges() {
		en := mk(fmt.Sprintf("edge %s->%s", e.From.Label, e.To.Label), edgeTouch[[2]int{e.From.ID, e.To.ID}])
		blockNode[e.From.ID].succs = append(blockNode[e.From.ID].succs, en)
		en.succs = append(en.succs, blockNode[e.To.ID])
	}
	scopes := sortedScopes(nodes)
	reach := reachability(scopes, nodes)

	// Collapse touches into distinct (sequence, droplet) entries per cell.
	washed := washedCells(conf.Washes)
	fluidIdx := map[ir.FluidID]int{}
	var fluids []ir.FluidID
	byCell := map[arch.Point][]cellEntry{}
	type entryKey struct {
		cell  arch.Point
		fluid int
	}
	for i, s := range scopes {
		at := map[entryKey]int{}
		for _, t := range nodes[s].touches {
			if washed[t.Cell] {
				continue
			}
			f, ok := fluidIdx[t.Fluid]
			if !ok {
				f = len(fluids)
				fluidIdx[t.Fluid] = f
				fluids = append(fluids, t.Fluid)
			}
			k := entryKey{t.Cell, f}
			if j, ok := at[k]; ok {
				e := &byCell[t.Cell][j]
				e.first = min(e.first, t.Cycle)
				e.last = max(e.last, t.Cycle)
				continue
			}
			at[k] = len(byCell[t.Cell])
			byCell[t.Cell] = append(byCell[t.Cell], cellEntry{seq: i, fluid: f, first: t.Cycle, last: t.Cycle})
		}
	}

	// Sweep every cell in (Y, X) order, so each pair's and each carrier
	// scope's cell lists come out sorted and the first cell recorded for a
	// scope pair is its smallest.
	pairs := map[[2]int]*pairAgg{}
	carrierCells := make([][]arch.Point, len(scopes))
	cells := make([]arch.Point, 0, len(byCell))
	for c := range byCell {
		cells = append(cells, c)
	}
	sortPoints(cells)
	for _, cell := range cells {
		es := byCell[cell]
		for _, a := range es {
			for _, b := range es {
				if a.fluid == b.fluid {
					continue
				}
				if a.seq == b.seq {
					if !reach[a.seq][a.seq] && b.last <= a.first {
						continue
					}
				} else if !reach[a.seq][b.seq] {
					continue
				}
				k := [2]int{a.fluid, b.fluid}
				agg := pairs[k]
				if agg == nil {
					agg = &pairAgg{foreign: subtract(reagents[fluids[a.fluid]], reagents[fluids[b.fluid]]), s1: -1}
					pairs[k] = agg
				}
				if len(agg.foreign) == 0 {
					continue
				}
				if agg.s1 < 0 || a.seq < agg.s1 || a.seq == agg.s1 && b.seq < agg.s2 {
					agg.s1, agg.s2, agg.cell = a.seq, b.seq, cell
				}
				agg.cells = appendCell(agg.cells, cell)
				carrierCells[a.seq] = appendCell(carrierCells[a.seq], cell)
			}
		}
	}

	var hazards []Hazard
	for k, agg := range pairs {
		if len(agg.foreign) == 0 {
			continue
		}
		hazards = append(hazards, Hazard{
			Carrier: fluids[k[0]], Victim: fluids[k[1]],
			Reagents:     agg.foreign,
			Cells:        agg.cells,
			CarrierScope: scopes[agg.s1], VictimScope: scopes[agg.s2],
			Cell: agg.cell,
		})
	}
	sort.Slice(hazards, func(i, j int) bool {
		a, b := hazards[i], hazards[j]
		if a.CarrierScope != b.CarrierScope {
			return a.CarrierScope < b.CarrierScope
		}
		if a.Carrier != b.Carrier {
			return a.Carrier.String() < b.Carrier.String()
		}
		return a.Victim.String() < b.Victim.String()
	})
	for _, h := range hazards {
		rep.warnf("BF320", verify.Pos{Scope: h.VictimScope, InstrID: -1, Cycle: -1, Cell: h.Cell, HasCell: true},
			"cross-contamination hazard: droplet %s crosses %d electrode(s) carrying unwashed residue of %s from droplet %s (%s)",
			h.Victim, len(h.Cells), strings.Join(h.Reagents, ", "), h.Carrier, h.CarrierScope)
	}

	var suggestions []WashSuggestion
	for i, scope := range scopes {
		cells := carrierCells[i]
		if len(cells) == 0 {
			continue
		}
		sug := WashSuggestion{After: scope, Cells: cells}
		if tour, err := wash.Plan(u.Chip, cells, nil); err == nil && len(tour.Skipped) == 0 {
			sug.TourCycles = tour.Cycles()
			rep.infof("BF321", verify.Pos{Scope: scope, InstrID: -1, Cycle: -1},
				"suggest wash after %s covering %d residue cell(s); a tour of %d cycles scrubs them",
				scope, len(cells), sug.TourCycles)
		} else {
			rep.infof("BF321", verify.Pos{Scope: scope, InstrID: -1, Cycle: -1},
				"suggest wash after %s covering %d residue cell(s); no full tour is feasible on this chip",
				scope, len(cells))
		}
		suggestions = append(suggestions, sug)
	}
	return hazards, suggestions
}

// appendCell appends c unless it is already the last element: the sweep
// visits each cell once, so this keeps the list distinct.
func appendCell(cs []arch.Point, c arch.Point) []arch.Point {
	if n := len(cs); n > 0 && cs[n-1] == c {
		return cs
	}
	return append(cs, c)
}

// reagentSets computes, for every fluid version in the graph, the set of
// reagent classes it can carry — a may-analysis fixpoint over def-use and φ
// relations.
func reagentSets(g *cfg.Graph) map[ir.FluidID]map[string]bool {
	sets := map[ir.FluidID]map[string]bool{}
	add := func(f ir.FluidID, rs map[string]bool) bool {
		s := sets[f]
		if s == nil {
			s = map[string]bool{}
			sets[f] = s
		}
		changed := false
		for r := range rs {
			if !s[r] {
				s[r] = true
				changed = true
			}
		}
		return changed
	}
	for changed := true; changed; {
		changed = false
		for _, b := range g.Blocks {
			for _, phi := range b.Phis {
				for _, src := range phi.Srcs {
					if add(phi.Dst, sets[src]) {
						changed = true
					}
				}
			}
			for _, in := range b.Instrs {
				switch in.Kind {
				case ir.Dispense:
					for _, res := range in.Results {
						if add(res, map[string]bool{in.FluidType: true}) {
							changed = true
						}
					}
				case ir.Mix, ir.Split, ir.Heat, ir.Sense, ir.Store:
					for _, res := range in.Results {
						for _, a := range in.Args {
							if add(res, sets[a]) {
								changed = true
							}
						}
					}
				}
			}
		}
	}
	return sets
}

// reachability returns, indexed by position in scopes, which sequences can
// run after each one (transitive closure over the execution-order graph; a
// node on a cycle reaches itself).
func reachability(scopes []string, nodes map[string]*seqNode) [][]bool {
	idx := make(map[string]int, len(scopes))
	for i, s := range scopes {
		idx[s] = i
	}
	out := make([][]bool, len(scopes))
	for i, s := range scopes {
		seen := make([]bool, len(scopes))
		stack := append([]*seqNode{}, nodes[s].succs...)
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			j := idx[cur.scope]
			if seen[j] {
				continue
			}
			seen[j] = true
			stack = append(stack, cur.succs...)
		}
		out[i] = seen
	}
	return out
}

// washedCells collects every cell covered by the configured wash tours.
func washedCells(tours []*wash.Tour) map[arch.Point]bool {
	washed := map[arch.Point]bool{}
	for _, t := range tours {
		if t == nil {
			continue
		}
		for _, p := range t.Path {
			washed[p] = true
		}
	}
	return washed
}

// subtract returns the sorted elements of a not in b.
func subtract(a, b map[string]bool) []string {
	var out []string
	for r := range a {
		if !b[r] {
			out = append(out, r)
		}
	}
	sort.Strings(out)
	return out
}

func sortedScopes(nodes map[string]*seqNode) []string {
	out := make([]string, 0, len(nodes))
	for s := range nodes {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// sortPoints orders cells by (Y, X).
func sortPoints(ps []arch.Point) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Y != ps[j].Y {
			return ps[i].Y < ps[j].Y
		}
		return ps[i].X < ps[j].X
	})
}
