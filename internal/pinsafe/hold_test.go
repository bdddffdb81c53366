// Tests of the broadcast replay's hold-frame fast path: a cycle whose frame
// repeats the previous one, with no event and no baseline move, is skipped.
// Findings right after a long hold run, and an event inside it, must still
// land on the cycle a frame-by-frame replay reports.
package pinsafe_test

import (
	"context"
	"testing"

	"biocoder/internal/arch"
	"biocoder/internal/codegen"
	"biocoder/internal/ir"
	"biocoder/internal/pinsafe"
	"biocoder/internal/place"
	"biocoder/internal/verify"
)

// holdRouteExec is routeExec with droplet a held at in1 (0,2) for cycles
// 0..hold before it sets off: the route's first move, (0,2) -> (1,2),
// happens at the returned cycle, right after the hold run.
func holdRouteExec(t *testing.T, hold int) (*codegen.Executable, *codegen.Sequence, int) {
	t.Helper()
	ex := routeExec(t)
	seq := ex.Blocks[mustBlock(t, ex, "b1").ID].Seq
	frames := make([]codegen.Frame, 0, seq.NumCycles+hold)
	for range hold {
		frames = append(frames, seq.Frames[0])
	}
	seq.Frames = append(frames, seq.Frames...)
	seq.NumCycles = len(seq.Frames)
	seq.Events[len(seq.Events)-1].Cycle = seq.NumCycles
	if rep := verify.Run(&verify.Unit{Exec: ex}); rep.HasErrors() {
		t.Fatalf("hold executable not clean:\n%s", rep)
	}
	return ex, seq, hold + 1
}

// broadcastDiags runs only the broadcast replay of m, so each test sees the
// trajectory findings without the interference graph's BF501.
func broadcastDiags(t *testing.T, ex *codegen.Executable, m *pinsafe.PinMap) []verify.Diag {
	t.Helper()
	a, err := pinsafe.New(context.Background(), &verify.Unit{Exec: ex})
	if err != nil {
		t.Fatal(err)
	}
	var out []verify.Diag
	for _, d := range a.Verify(m) {
		if d.Code != "BF501" {
			out = append(out, d)
		}
	}
	return out
}

func wantOnlyAt(t *testing.T, diags []verify.Diag, code string, cycle int) verify.Diag {
	t.Helper()
	if len(diags) != 1 || diags[0].Code != code || diags[0].Pos.Cycle != cycle {
		t.Fatalf("want exactly one %s at cycle %d, got %v", code, cycle, diags)
	}
	return diags[0]
}

// tearAfterRun wires (0,3), a passive neighbor of the held droplet, to the
// pin of (1,2), the first electrode driven after the run: the first move
// tears the droplet.
var tearAfterRun = &pinsafe.PinMap{Pins: map[arch.Point]int{pt(1, 2): 7, pt(0, 3): 7}}

func TestHoldRunDivergesRightAfter(t *testing.T) {
	ex, _, after := holdRouteExec(t, 5000)
	wantOnlyAt(t, broadcastDiags(t, ex, tearAfterRun), "BF502", after)
}

func TestHoldRunDefectAfterRun(t *testing.T) {
	// The defective, never-actuated (5,7) shares the pin of (1,2), so the
	// closure first reaches it right after the run.
	ex, _, after := holdRouteExec(t, 5000)
	topo, err := place.BuildTopologyFaulty(arch.Small(), []arch.Point{pt(5, 7)})
	if err != nil {
		t.Fatal(err)
	}
	ex.Topo = topo
	m := &pinsafe.PinMap{Pins: map[arch.Point]int{pt(1, 2): 2, pt(5, 7): 2}}
	wantOnlyAt(t, broadcastDiags(t, ex, m), "BF503", after)
}

func TestHoldRunEventInside(t *testing.T) {
	// A rename in the middle of the run keeps the frame unchanged (an
	// event that keeps the frame moves no droplet), so the replay must
	// apply it on its own cycle and still report the tear at the first
	// move, under the new name.
	ex, seq, after := holdRouteExec(t, 5000)
	mid := after / 2
	rename := codegen.Event{Cycle: mid, Kind: codegen.EvRename, InstrID: -1, Inputs: []ir.FluidID{fl("a")},
		Results: []ir.FluidID{fl("a2")}, Cells: []arch.Point{pt(0, 2)}}
	out := seq.Events[1]
	out.Inputs = []ir.FluidID{fl("a2")}
	seq.Events = []codegen.Event{seq.Events[0], rename, out}
	d := wantOnlyAt(t, broadcastDiags(t, ex, tearAfterRun), "BF502", after)
	if want := "droplet a2 at (0,2) torn between 2 active electrodes under broadcast actuation"; d.Msg != want {
		t.Errorf("got %q, want %q", d.Msg, want)
	}
}
