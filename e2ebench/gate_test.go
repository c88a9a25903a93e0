package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// lastLine decodes the result object a run printed last.
func lastLine(t *testing.T, out string) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return line
}

// A corrupted expectation must trip the correctness gate: the run
// reports correct=false with failures and exits non-zero.
func TestCorruptedExpectationFailsTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs whole workloads")
	}
	for _, name := range []string{"mine-bound", "serve-hot", "serve-ingest"} {
		t.Run(name, func(t *testing.T) {
			w, _ := lookupWorkload(name)
			for _, corrupt := range []bool{false, true} {
				cfg := runConfig{Workload: name, Seed: 3, Seconds: 1, WorkDir: t.TempDir(), corrupt: corrupt}
				var out, errOut bytes.Buffer
				code := execute(w, cfg, &out, &errOut)
				line := lastLine(t, out.String())
				switch {
				case !corrupt && (code != 0 || !line.Correct || line.Failed != 0):
					t.Errorf("clean run: exit %d, %+v\n%s%s", code, line, out.String(), errOut.String())
				case corrupt && (code == 0 || line.Correct || line.Failed == 0):
					t.Errorf("corrupted expectation: exit %d, %+v, want a failed gate and a non-zero exit", code, line)
				}
				if line.Attempted == 0 {
					t.Errorf("corrupt=%v: no operations attempted", corrupt)
				}
			}
		})
	}
}

func TestUnknownWorkloadExitsNonZeroWithoutAResult(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := runMain([]string{"--workload", "nosuch", "--seed", "1", "--seconds", "1", "--trace", "0"}, &out, &errOut); code == 0 {
		t.Fatal("unknown workload exited 0")
	}
	if out.Len() != 0 {
		t.Fatalf("printed a result for an unknown workload: %q", out.String())
	}
}
