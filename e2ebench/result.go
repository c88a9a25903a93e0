package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
)

// runConfig is one invocation of one workload.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	WorkDir  string // scratch space inside the checkout (WAL directories, span files)

	// corrupt perturbs one precomputed expectation before the measured
	// phase, so a correct program must fail the gate (tests only).
	corrupt bool
}

// namedMetric is one of the headline figures printed above the result
// line, with the sample count behind it where it is a timing.
type namedMetric struct {
	Name  string
	Value float64
	Unit  string
	N     int
}

// check is one workload-character self-check.
type check struct {
	What string
	OK   bool
}

// result is everything one run measured.
type result struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	gateErrs  []string

	named  []namedMetric
	notes  []string // extra report lines
	e2e    map[string]float64
	layer  map[string]float64
	checks []check
	spans  []span
}

func newResult() *result {
	return &result{e2e: make(map[string]float64), layer: make(map[string]float64)}
}

// gate counts one attempted operation and, when ok is false, one failure
// described by the formatted message (the first few are kept).
func (r *result) gate(ok bool, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if ok {
		return
	}
	r.failed++
	if len(r.gateErrs) < 8 {
		r.gateErrs = append(r.gateErrs, fmt.Sprintf(format, args...))
	}
}

func (r *result) name(name string, v float64, unit string, n int) {
	r.named = append(r.named, namedMetric{Name: name, Value: v, Unit: unit, N: n})
}

func (r *result) expect(what string, ok bool) { r.checks = append(r.checks, check{What: what, OK: ok}) }

// charactersOK reports 1 when every workload-character check held.
func (r *result) charactersOK() float64 {
	for _, c := range r.checks {
		if !c.OK {
			return 0
		}
	}
	return 1
}

// liveHeapMB forces a collection and reports the heap still in use.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes the human-readable report and, as the last line, the
// result object: the end-to-end metrics untraced, the per-layer ones
// traced.
func (r *result) print(w io.Writer, cfg runConfig) error {
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %v\n", cfg.Workload, cfg.Seed, cfg.Seconds, cfg.Trace)
	errRatio := ratio(float64(r.failed), float64(r.attempted))
	for _, m := range append(r.named, namedMetric{Name: "error_ratio", Value: errRatio, Unit: "ratio", N: int(r.attempted)}) {
		fmt.Fprintf(w, "  %-28s %14.6g %-6s n=%d\n", m.Name, m.Value, m.Unit, m.N)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	for _, msg := range r.gateErrs {
		fmt.Fprintf(w, "  gate failed: %s\n", msg)
	}
	for _, c := range r.checks {
		status := "ok"
		if !c.OK {
			status = "FAILED"
		}
		fmt.Fprintf(w, "  character %-6s %s\n", status, c.What)
	}
	defs, values := endToEnd, r.e2e
	if cfg.Trace {
		defs, values = perLayer, r.layer
		values["loadgen.character_ok"] = r.charactersOK()
		self := layerSelf(r.spans)
		layers := make([]string, 0, len(self))
		for l := range self {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		for _, l := range layers {
			fmt.Fprintf(w, "  span self time %-12s %10.4f s\n", l, self[l])
		}
	}
	line := resultLine{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]jsonMetric, len(defs)),
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		line.Metrics[d.Name] = jsonMetric{Value: v, Unit: d.Unit}
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", d.Name, v, d.Unit)
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// zeroUnset fills every per-layer metric the workload does not exercise
// with 0.
func zeroUnset(values map[string]float64) {
	for _, d := range perLayer {
		if _, ok := values[d.Name]; !ok {
			values[d.Name] = 0
		}
	}
}
