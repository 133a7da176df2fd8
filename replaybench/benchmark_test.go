package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// TestBenchmarkJSONMatchesProgram: the metrics BENCHMARK.json declares are
// exactly the ones a run prints, and every workload it lists exists.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside this directory")
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json lists unknown workload %q", w.Name)
		}
	}
	e2e := endToEnd([]*roundResult{{ingest: 1}})
	var declared []string
	for _, m := range b.EndToEnd {
		declared = append(declared, m.Name)
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s: program computes %+v (present %v), BENCHMARK.json unit %q", m.Name, got, ok, m.Unit)
		}
	}
	if strings.Join(declared, ",") != strings.Join(reportedEndToEnd, ",") {
		t.Errorf("result line carries %v, BENCHMARK.json declares %v", reportedEndToEnd, declared)
	}
	units := perLayerUnits()
	for _, m := range b.PerLayer {
		if u, ok := units[m.Name]; ok && u != m.Unit {
			t.Errorf("per-layer %s: unit %q, BENCHMARK.json %q", m.Name, u, m.Unit)
		}
	}
	var layers []string
	for _, m := range b.PerLayer {
		layers = append(layers, m.Name)
	}
	want := append([]string(nil), reportedLayerMetrics...)
	sort.Strings(layers)
	sort.Strings(want)
	if strings.Join(layers, ",") != strings.Join(want, ",") {
		t.Errorf("per_layer %v, program reports %v", layers, want)
	}
}

// perLayerUnits returns the unit of every per-layer metric a traced run
// computes, from a run over one empty round.
func perLayerUnits() map[string]string {
	tr := newTracer()
	rr := &roundResult{ingest: 1}
	all := perLayer(tr, []*roundResult{rr}, split{}, rr)
	for name, m := range endToEnd([]*roundResult{rr}) {
		all["driver."+name] = m
	}
	out := map[string]string{}
	for name, m := range all {
		out[name] = m.Unit
	}
	return out
}
