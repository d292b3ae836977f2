package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []fileMetric   `json:"end_to_end"`
	PerLayer   []fileMetric   `json:"per_layer"`
}

type fileMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func fromSpecs(specs []metricSpec) []fileMetric {
	var out []fileMetric
	for _, s := range specs {
		out = append(out, fileMetric(s))
	}
	return out
}

// TestBenchmarkFileMatchesSpec keeps BENCHMARK.json and the tables in
// spec.go the same list: every metric and workload, no other.
func TestBenchmarkFileMatchesSpec(t *testing.T) {
	blob, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(blob, &f); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.Workloads, workloadSpecs) {
		t.Errorf("workloads differ:\nfile %+v\nspec %+v", f.Workloads, workloadSpecs)
	}
	if !reflect.DeepEqual(f.EndToEnd, fromSpecs(endToEnd)) {
		t.Errorf("end_to_end differs:\nfile %+v\nspec %+v", f.EndToEnd, fromSpecs(endToEnd))
	}
	if !reflect.DeepEqual(f.PerLayer, fromSpecs(perLayer)) {
		t.Errorf("per_layer differs:\nfile %+v\nspec %+v", f.PerLayer, fromSpecs(perLayer))
	}
	if len(f.Paths) != 1 || f.Paths[0] != "benchmarks" {
		t.Errorf("paths = %v", f.Paths)
	}
}

// TestSmoke runs every workload for half a second, untraced and traced,
// and asserts the correctness verdicts only: no timing value is looked
// at, so the test cannot flake on a slow or busy box.
func TestSmoke(t *testing.T) {
	for _, w := range workloadSpecs {
		for _, trace := range []bool{false, true} {
			rep, err := runWorkload(options{workload: w.Name, seed: 1, seconds: 0.5, trace: trace, outDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d notes=%q",
					w.Name, trace, rep.Correct, rep.Attempted, rep.Failed, rep.Notes)
			}
			for _, sp := range endToEnd {
				if _, ok := rep.Metrics.vals[sp.Name]; !ok && !trace {
					t.Errorf("%s: end-to-end metric %s not measured", w.Name, sp.Name)
				}
			}
			listed := map[string]bool{}
			for _, sp := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
				listed[sp.Name] = true
			}
			for name := range rep.Metrics.vals {
				if !listed[name] {
					t.Errorf("%s: metric %s is measured but not listed in spec.go", w.Name, name)
				}
			}
		}
	}
}
