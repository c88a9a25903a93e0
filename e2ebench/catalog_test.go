package main

import (
	"os"
	"strings"
	"testing"
)

func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	want, err := specJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("BENCHMARK.json is stale; regenerate it with go run . --spec > ../BENCHMARK.json\n got: %s\nwant: %s", got, want)
	}
}

func TestReadmeDocumentsEveryMetricAndWorkload(t *testing.T) {
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(b)
	var names []string
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		names = append(names, "`"+d.Name+"`")
	}
	for _, w := range workloadDefs {
		names = append(names, "`"+w.Name+"`")
	}
	for _, n := range []string{"mine_s", "error_ratio", "ubsup_single_p50_ms", "ubsup_single_p99_ms",
		"ubsup_batch_p50_ms", "ubsup_batch_p99_ms", "ubsup_rps", "ingest_p50_ms", "ingest_p99_ms"} {
		names = append(names, "`"+n+"`")
	}
	for _, n := range names {
		if !strings.Contains(doc, n) {
			t.Errorf("README.md does not document %s", n)
		}
	}
}
