package main

import "testing"

func TestSelfTimesOnSyntheticTree(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Layer: "mining", Start: 0, End: 100},
		// Overlapping children count once; a child running past its
		// parent counts only inside it.
		{ID: 2, Parent: 1, Name: "a", Layer: "core.bound", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Layer: "core.bound", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "c", Layer: "server", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "a1", Layer: "wal", Start: 15, End: 25},
		// A span of another trace with no children keeps all its time.
		{ID: 6, Trace: 2, Name: "lone", Layer: "wal", Start: 200, End: 230},
	}
	self := selfTimes(spans)
	want := map[uint64]int64{1: 40, 2: 20, 3: 30, 4: 30, 5: 10, 6: 30}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	layers := layerSelf(spans)
	wantLayers := map[string]float64{"mining": 40e-9, "core.bound": 50e-9, "server": 30e-9, "wal": 40e-9}
	for l, w := range wantLayers {
		if d := layers[l] - w; d > 1e-15 || d < -1e-15 {
			t.Errorf("layer %s self time = %g s, want %g s", l, layers[l], w)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	tr.add(span{ID: tr.newID(), Name: "x"})
	if got := tr.snapshot(); got != nil {
		t.Fatalf("nil tracer recorded %v", got)
	}
}
