// Command e2ebench is the repository's end-to-end benchmark: it runs one
// workload (a whole mining run, or served /v1/ubsup and /v1/ingest
// traffic against an in-process server on loopback HTTP) for a fixed
// time, checks every answer, and prints every metric by name with its
// unit. The last line of its output is a JSON object with the keys
// correct, attempted, failed and metrics. See README.md.
//
//	go run . --workload mine-count --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics from an untraced run;
// --trace 1 reports the per-layer metrics from a traced run. --spec
// prints the BENCHMARK.json this catalog defines.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

func main() { os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr)) }

// runMain parses args, runs the workload and returns the exit code: 0
// when every answer was correct, 1 when a correctness gate failed (the
// result line is still printed), 2 when the run could not be set up or
// measured (nothing is printed on stdout).
func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := make([]string, len(workloadDefs))
	for i, w := range workloadDefs {
		names[i] = w.Name
	}
	workload := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = untraced end-to-end run")
	spec := fs.Bool("spec", false, "print the BENCHMARK.json this benchmark defines and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *spec {
		b, err := specJSON()
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		stdout.Write(b)
		return 0
	}
	w, ok := lookupWorkload(*workload)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "e2ebench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	cfg := runConfig{Workload: w.Name, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, WorkDir: filepath.Join(".bench_build", "e2ebench")}
	return execute(w, cfg, stdout, stderr)
}

// execute runs one configured workload and reports it.
func execute(w workloadDef, cfg runConfig, stdout, stderr io.Writer) int {
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 2
	}
	res, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", cfg.Workload, err)
		return 2
	}
	if cfg.Trace {
		path := filepath.Join(cfg.WorkDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.Workload, cfg.Seed))
		if err := writeSpans(path, res.spans); err != nil {
			fmt.Fprintf(stderr, "e2ebench: %v\n", err)
			return 2
		}
		fmt.Fprintf(stderr, "e2ebench: %d spans written to %s\n", len(res.spans), path)
	}
	if err := res.print(stdout, cfg); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 2
	}
	if res.failed > 0 {
		return 1
	}
	return 0
}

// specJSON renders BENCHMARK.json from the catalog.
func specJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	spec := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "e2ebench/run.sh"},
		Paths:      []string{"e2ebench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloadDefs {
		if w.Gated {
			spec.Workloads = append(spec.Workloads, wl{w.Name, w.Why})
		}
	}
	for _, d := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		better := "lower"
		if d.Better != "" {
			better = d.Better
		}
		spec.PerLayer = append(spec.PerLayer, layer{d.Name, d.Unit, better})
	}
	b, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
