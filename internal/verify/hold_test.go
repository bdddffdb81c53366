// Tests of the symbolic replay's hold-frame fast path. A cycle whose frame
// repeats the previous one with no event is skipped; these tests pin that
// every finding near or inside a long hold run is still reported at the
// cycle a frame-by-frame replay reports it, and that the cost of a hold
// run does not grow with its length.
package verify_test

import (
	"testing"

	"biocoder/internal/arch"
	"biocoder/internal/cfg"
	"biocoder/internal/codegen"
	"biocoder/internal/ir"
	"biocoder/internal/place"
	"biocoder/internal/verify"
)

// holdExec hand-builds a clean single-block executable on arch.Small():
// droplet a is dispensed at in1 (0,2) at cycle 0 and held there for cycles
// 0..hold (hold+1 identical frames), then routed east along row 2 and south
// to out1 (8,4), arriving at cycle hold+10 and output at cycle hold+11. It
// returns the executable, the block's sequence and the first cycle after
// the hold run.
func holdExec(t testing.TB, hold int) (*codegen.Executable, *codegen.Sequence, int) {
	t.Helper()
	topo, err := place.BuildTopology(arch.Small())
	if err != nil {
		t.Fatal(err)
	}
	g := cfg.New()
	b1 := g.NewBlock("b1")
	b1.Instrs = []*ir.Instr{
		{ID: 0, Kind: ir.Dispense, Results: []ir.FluidID{fl("a")}, FluidType: "water", Volume: 1, Port: "in1"},
		{ID: 1, Kind: ir.Output, Args: []ir.FluidID{fl("a")}, Port: "out1"},
	}
	g.AddEdge(g.Entry, b1)
	g.AddEdge(b1, g.Exit)

	route := []arch.Point{
		pt(1, 2), pt(2, 2), pt(3, 2), pt(4, 2), pt(5, 2),
		pt(6, 2), pt(7, 2), pt(8, 2), pt(8, 3), pt(8, 4),
	}
	numCycles := hold + 1 + len(route)
	frames := make([]codegen.Frame, 0, numCycles)
	for range hold + 1 {
		frames = append(frames, codegen.Frame{pt(0, 2)})
	}
	for _, c := range route {
		frames = append(frames, codegen.Frame{c})
	}
	seq := &codegen.Sequence{
		NumCycles: numCycles,
		Frames:    frames,
		Events: []codegen.Event{
			{Cycle: 0, Kind: codegen.EvDispense, InstrID: 0, Results: []ir.FluidID{fl("a")},
				Cells: []arch.Point{pt(0, 2)}, Port: "in1", Fluid: "water", Volume: 1},
			{Cycle: numCycles, Kind: codegen.EvOutput, InstrID: 1, Inputs: []ir.FluidID{fl("a")},
				Cells: []arch.Point{pt(8, 4)}, Port: "out1"},
		},
		Tracks: map[ir.FluidID]*codegen.Track{},
	}
	code := func(b *cfg.Block, s *codegen.Sequence) *codegen.BlockCode {
		return &codegen.BlockCode{Block: b, Seq: s, Entry: map[ir.FluidID]arch.Point{}, Exit: map[ir.FluidID]arch.Point{}}
	}
	empty := func() *codegen.Sequence { return &codegen.Sequence{Tracks: map[ir.FluidID]*codegen.Track{}} }
	ex := &codegen.Executable{
		Graph: g,
		Topo:  topo,
		Blocks: map[int]*codegen.BlockCode{
			g.Entry.ID: code(g.Entry, empty()),
			g.Exit.ID:  code(g.Exit, empty()),
			b1.ID:      code(b1, seq),
		},
		Edges: map[[2]int]*codegen.EdgeCode{},
	}
	for _, e := range g.Edges() {
		ex.Edges[[2]int{e.From.ID, e.To.ID}] = &codegen.EdgeCode{From: e.From, To: e.To, Seq: empty()}
	}
	return ex, seq, hold + 1
}

// wantOnlyAt requires the report to carry exactly one diagnostic, with the
// given code at the given cycle.
func wantOnlyAt(t *testing.T, rep *verify.Report, code string, cycle int) {
	t.Helper()
	if len(rep.Diags) != 1 || rep.Diags[0].Code != code || rep.Diags[0].Pos.Cycle != cycle {
		t.Fatalf("want exactly one %s at cycle %d, got:\n%s", code, cycle, rep)
	}
}

func TestHoldRunStrandedRightAfter(t *testing.T) {
	// The first frame after the run jumps out of the droplet's reach.
	ex, seq, after := holdExec(t, 5000)
	seq.Frames[after] = codegen.Frame{pt(6, 6)}
	wantOnlyAt(t, execReport(t, ex), "BF107", after)
}

func TestHoldRunEventInside(t *testing.T) {
	// A second dispense at in1 in the middle of the run lands on the held
	// droplet's electrode without changing the frame: two droplets, one
	// active electrode, at exactly that cycle.
	ex, seq, after := holdExec(t, 5000)
	mid := after / 2
	dispense := codegen.Event{Cycle: mid, Kind: codegen.EvDispense, InstrID: 0, Results: []ir.FluidID{fl("b")},
		Cells: []arch.Point{pt(0, 2)}, Port: "in1", Fluid: "water", Volume: 1}
	seq.Events = []codegen.Event{seq.Events[0], dispense, seq.Events[1]}
	rep := execReport(t, ex)
	d := rep.ByCode("BF101")
	if len(d) != 1 || d[0].Pos.Cycle != mid {
		t.Fatalf("want one BF101 at cycle %d, got:\n%s", mid, rep)
	}
}

func TestHoldRunDefectAfterRun(t *testing.T) {
	// (1,2) is first actuated right after the run.
	ex, _, after := holdExec(t, 5000)
	topo, err := place.BuildTopologyFaulty(arch.Small(), []arch.Point{pt(1, 2)})
	if err != nil {
		t.Fatal(err)
	}
	ex.Topo = topo
	wantOnlyAt(t, execReport(t, ex), "BF103", after)
}

func TestHoldFrameNeedsSameOrder(t *testing.T) {
	s := &codegen.Sequence{
		NumCycles: 3,
		Frames: []codegen.Frame{
			{pt(1, 1), pt(5, 5)},
			{pt(1, 1), pt(5, 5)},
			{pt(5, 5), pt(1, 1)},
		},
	}
	if !verify.HoldFrame(s, 1, 0) {
		t.Error("identical frame with no event not treated as a hold")
	}
	if verify.HoldFrame(s, 2, 0) {
		t.Error("frame with the same cells in a different order took the hold path")
	}
	s.Events = []codegen.Event{{Cycle: 1}}
	if verify.HoldFrame(s, 1, 0) {
		t.Error("identical frame with an event at that cycle took the hold path")
	}
	if verify.HoldFrame(s, 0, 0) {
		t.Error("cycle 0 has no previous frame to repeat")
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

func TestHoldRunAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	allocs := func(hold int) float64 {
		ex, _, _ := holdExec(t, hold)
		u := &verify.Unit{Exec: ex}
		if rep := verify.Run(u); len(rep.Diags) != 0 {
			t.Fatalf("hold %d not clean:\n%s", hold, rep)
		}
		return testing.AllocsPerRun(3, func() { verify.Run(u) })
	}
	short, long := allocs(1000), allocs(100000)
	if long > short {
		t.Errorf("verify.Run allocations grow with hold length: %v for a 1k-cycle hold, %v for 100k", short, long)
	}
}
