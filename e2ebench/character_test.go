package main

import (
	"bytes"
	"fmt"
	"testing"
)

// Every workload must have the character it exists for on the default
// seed and on a second one, and a traced run must report exactly the
// catalog's per-layer metrics.
func TestWorkloadCharacterOnTwoSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, w := range workloadDefs {
		for _, seed := range []int64{1, 2} {
			w, seed := w, seed
			t.Run(fmt.Sprintf("%s/seed%d", w.Name, seed), func(t *testing.T) {
				cfg := runConfig{Workload: w.Name, Seed: seed, Seconds: 2, Trace: true, WorkDir: t.TempDir()}
				r, err := w.run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if r.failed != 0 {
					t.Errorf("seed %d: %d of %d operations failed: %v", seed, r.failed, r.attempted, r.gateErrs)
				}
				if len(r.checks) == 0 {
					t.Errorf("seed %d: no character checks recorded", seed)
				}
				for _, c := range r.checks {
					if !c.OK {
						t.Errorf("seed %d: character check failed: %s", seed, c.What)
					}
				}
				var out bytes.Buffer
				if err := r.print(&out, cfg); err != nil {
					t.Fatal(err)
				}
				line := lastLine(t, out.String())
				if len(line.Metrics) != len(perLayer) {
					t.Errorf("seed %d: %d metrics reported, want the %d per-layer ones", seed, len(line.Metrics), len(perLayer))
				}
				for _, d := range perLayer {
					m, ok := line.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("seed %d: metric %s missing or with unit %q, want %q", seed, d.Name, m.Unit, d.Unit)
					}
				}
			})
		}
	}
}
