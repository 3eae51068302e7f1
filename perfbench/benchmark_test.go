package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONListsEveryMetric keeps BENCHMARK.json and the metrics
// the workloads report in step.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Better string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the workloads report %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, e := range doc.EndToEnd {
		if e.Name != endToEnd[i] {
			t.Errorf("end_to_end[%d] = %s, want %s", i, e.Name, endToEnd[i])
		}
	}
	if len(doc.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the traced runs report %d", len(doc.PerLayer), len(layerMetrics))
	}
	for i, e := range doc.PerLayer {
		if m := layerMetrics[i]; e.Name != m.name || e.Unit != m.unit {
			t.Errorf("per_layer[%d] = %s %s, want %s %s", i, e.Name, e.Unit, m.name, m.unit)
		}
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, perfbench implements %d", len(doc.Workloads), len(workloads))
	}
}
