package main

import (
	"math"
	"testing"
)

// TestSmoke runs every workload once, traced, with the shortest measured
// phase: one set-up, one operation, the output checks and the per-layer
// metrics.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w := newWorkload(name, genInputs(defaultSeed))
			defer w.close()
			cfg := config{workload: name, seed: defaultSeed, minOps: 1, maxSetupReps: 1, tmpDir: t.TempDir()}
			tr := newTracer()
			setupS, err := w.setup(cfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			ph, err := w.measure(tr, 0, cfg.minOps)
			if err != nil {
				t.Fatal(err)
			}
			if peak, _ := ph.rates(); ph.failed != 0 || len(ph.lat) == 0 || !(peak > 0) || len(setupS) == 0 || !(median(setupS) > 0) {
				t.Errorf("phase %d/%d failed, %d latency samples, peak rate %v, set-up %v",
					ph.failed, ph.attempted, len(ph.lat), peak, setupS)
			}
			for _, f := range w.check() {
				t.Error("check failed:", f)
			}
			layers, err := w.layers(tr, ph)
			if err != nil {
				t.Fatal(err)
			}
			nonzero := 0
			for k, v := range layers {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("per-layer metric %s = %v", k, v)
				}
				if v != 0 {
					nonzero++
				}
			}
			if nonzero == 0 {
				t.Error("no per-layer metric measured")
			}
			if len(tr.finish()) == 0 {
				t.Error("no spans recorded")
			}
		})
	}
}
