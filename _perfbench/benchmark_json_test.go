package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json's workload and
// metric lists in step with what the program runs and reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(ns []named) []string {
		var out []string
		for _, n := range ns {
			out = append(out, n.Name)
		}
		return out
	}
	var wl []string
	for _, w := range workloads {
		wl = append(wl, w.name)
	}
	for _, c := range []struct {
		what       string
		json, prog []string
	}{
		{"workloads", names(spec.Workloads), wl},
		{"end_to_end", names(spec.EndToEnd), e2eMetrics},
		{"per_layer", names(spec.PerLayer), layerMetrics()},
	} {
		if !reflect.DeepEqual(c.json, c.prog) {
			t.Errorf("BENCHMARK.json %s = %v, program has %v", c.what, c.json, c.prog)
		}
	}

	// The units too: compute the per-layer metrics of an empty phase.
	b, err := newBench(workloads[0])
	if err != nil {
		t.Fatal(err)
	}
	defer b.sys.Close()
	layers, err := perLayer(b, phase{wall: time.Second}, newTracer(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range spec.PerLayer {
		if got := layers[n.Name].Unit; got != n.Unit {
			t.Errorf("per-layer %s: program reports unit %q, BENCHMARK.json says %q", n.Name, got, n.Unit)
		}
	}
}
