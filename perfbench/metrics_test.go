package main

import (
	"testing"
	"time"
)

// TestBenchmarkJSONIsRunnable holds every workload and metric that
// BENCHMARK.json at the repository root names to a set-up or a reading,
// and every one the benchmark knows to a listing there.
func TestBenchmarkJSONIsRunnable(t *testing.T) {
	if _, err := loadBench(".."); err != nil {
		t.Fatal(err)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	tr := newTracer(false)
	tr.spans = []span{
		{Name: "fleet", Parent: -1, Start: 0, End: 10},
		{Name: "serve", Parent: 0, Start: 1, End: 3},
		{Name: "serve", Parent: 0, Start: 2, End: 5}, // overlaps its sibling
		{Name: "serve", Parent: 0, Start: 7, End: 8},
	}
	agg := tr.aggregate()
	if got := agg["fleet"].Self; got != 5 {
		t.Errorf("fleet self = %v, want 5ns (10 minus the covered 1-5 and 7-8)", got)
	}
	if got := agg["serve"]; got.Calls != 3 || got.Total != 6 || got.Self != 6 {
		t.Errorf("serve = %+v, want 3 calls, 6ns total and self", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.95, 3.85}} {
		if got := quantile(xs, c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := medianDur([]time.Duration{3, 1, 2}); got != 2 {
		t.Errorf("medianDur = %v, want 2", got)
	}
}
