package main

import (
	"reflect"
	"testing"

	ossm "github.com/ossm-mining/ossm"
)

// Wrapping the pruner in the timing decorator must not change which
// kernels the miner dispatches to: results, per-pass statistics and
// kernel counters stay identical on both mining workloads.
func TestTimedFilterKeepsDispatch(t *testing.T) {
	if testing.Short() {
		t.Skip("mines the full workloads")
	}
	for _, tc := range []struct {
		name string
		spec mineSpec
	}{{"mine-count", mineCountSpec}, {"mine-bound", mineBoundSpec}} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := questData(tc.spec.tx, tc.spec.tx/tc.spec.pages, 1)
			if err != nil {
				t.Fatal(err)
			}
			ix, err := ossm.Build(d, buildOptions(tc.spec.pages, tc.spec.segments))
			if err != nil {
				t.Fatal(err)
			}
			minCount := ossm.MinCountFor(d, minSupport)

			plain := ix.PrunerAt(minCount)
			want, err := ossm.MineAt(miner, d, minCount, ossm.MineOptions{Filter: plain})
			if err != nil {
				t.Fatal(err)
			}
			inner := ix.PrunerAt(minCount)
			wrapped := newTimedFilter(inner, newTracer(), nil)
			got, err := ossm.MineAt(miner, d, minCount, ossm.MineOptions{Filter: wrapped})
			if err != nil {
				t.Fatal(err)
			}

			if err := sameResult(got, want.All()); err != nil {
				t.Fatalf("wrapped run differs: %v", err)
			}
			if len(got.Levels) != len(want.Levels) {
				t.Fatalf("%d levels, want %d", len(got.Levels), len(want.Levels))
			}
			for i := range got.Levels {
				g, w := got.Levels[i].Stats, want.Levels[i].Stats
				g.Elapsed, w.Elapsed = 0, 0
				if !reflect.DeepEqual(g, w) {
					t.Errorf("level %d stats %+v, want %+v", i+1, g, w)
				}
			}
			if g, w := wrapped.KernelCounters(), plain.KernelCounters(); !reflect.DeepEqual(g, w) {
				t.Errorf("kernel counters %+v, want %+v", g, w)
			}
			if wrapped.calls.Load() == 0 || wrapped.candidates.Load() == 0 {
				t.Errorf("decorator saw %d calls deciding %d candidates, want both > 0",
					wrapped.calls.Load(), wrapped.candidates.Load())
			}
		})
	}
}
