package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestBenchmarkFile validates the committed BENCHMARK.json and checks that
// it names exactly the workloads and metrics etbench reports, and that
// every per-layer metric points at an existing end-to-end metric and
// workload.
func TestBenchmarkFile(t *testing.T) {
	b, err := loadBenchmark("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, " ") != strings.Join(workloadNames, " ") {
		t.Errorf("BENCHMARK.json workloads %v, etbench runs %v", names, workloadNames)
	}
	e2e := map[string]bool{}
	if len(b.EndToEnd) != len(e2eMetrics) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, etbench reports %d", len(b.EndToEnd), len(e2eMetrics))
	}
	for i, m := range b.EndToEnd {
		e2e[m.Name] = true
		if i < len(e2eMetrics) && (layerEntry{m.Name, m.Unit, m.Better}) != e2eMetrics[i] {
			t.Errorf("end-to-end metric %d is %+v in BENCHMARK.json, %+v in etbench", i, m, e2eMetrics[i])
		}
	}
	if len(b.PerLayer) != len(layerMetrics) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, etbench reports %d", len(b.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if i < len(b.PerLayer) && b.PerLayer[i] != (layerEntry{m.name, m.unit, m.better}) {
			t.Errorf("per-layer metric %d is %+v in BENCHMARK.json, %+v in etbench", i, b.PerLayer[i], m)
		}
		if !e2e[m.moves] {
			t.Errorf("per-layer metric %s moves unknown end-to-end metric %q", m.name, m.moves)
		}
		if !strings.Contains(" "+strings.Join(workloadNames, " ")+" ", " "+m.workload+" ") {
			t.Errorf("per-layer metric %s names unknown workload %q", m.name, m.workload)
		}
	}
}

func TestParseBenchmarkRejects(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		mutate func(m map[string]any)
	}{
		{"extra top-level key", func(m map[string]any) { m["seeds"] = []int{1} }},
		{"missing key", func(m map[string]any) { delete(m, "paths") }},
		{"bad metric name", func(m map[string]any) { e2e(m)[1]["name"] = "latency p50" }},
		{"bad unit", func(m map[string]any) { e2e(m)[1]["unit"] = "milli seconds" }},
		{"bound above 0.25", func(m map[string]any) { e2e(m)[1]["bound"] = 0.3 }},
		{"no setup_s", func(m map[string]any) { e2e(m)[0]["name"] = "startup_s" }},
		{"extra metric key", func(m map[string]any) { e2e(m)[1]["layer"] = "core" }},
		{"workload without why", func(m map[string]any) {
			m["workloads"].([]any)[0].(map[string]any)["why"] = ""
		}},
		{"duplicate name", func(m map[string]any) { e2e(m)[2]["name"] = e2e(m)[1]["name"] }},
		{"more than 16 end-to-end metrics", func(m map[string]any) {
			for i := 0; i < 16; i++ {
				m["end_to_end"] = append(m["end_to_end"].([]any),
					map[string]any{"name": "m" + string(rune('a'+i)), "unit": "s", "better": "lower", "bound": 0.1})
			}
		}},
		{"path leaving the repository", func(m map[string]any) { m["paths"] = []any{"../bench"} }},
		{"absolute command path", func(m map[string]any) { m["command"] = []any{"/bin/bash", "bench/run.sh"} }},
	} {
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		c.mutate(m)
		bad, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := parseBenchmark(bad); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// e2e returns the end_to_end entries of a decoded BENCHMARK.json.
func e2e(m map[string]any) []map[string]any {
	var out []map[string]any
	for _, e := range m["end_to_end"].([]any) {
		out = append(out, e.(map[string]any))
	}
	return out
}
