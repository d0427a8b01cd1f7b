package main

import (
	"slices"
	"testing"

	"etherm/internal/core"
	"etherm/internal/study"
)

// TestMCEnvelope recomputes the bounds of mc-campaign's E_max check: the
// hottest-wire end temperature with every wire at δ = 0.9 (floor) and at
// δ = 0 (ceiling), and checks a mid germ lies between them.
func TestMCEnvelope(t *testing.T) {
	spec := coarseSpec()
	lay, err := spec.chip.Build()
	if err != nil {
		t.Fatal(err)
	}
	sim, err := core.NewSimulator(lay.Problem, spec.opt)
	if err != nil {
		t.Fatal(err)
	}
	m, err := study.ParamFactory(sim, study.Params{Rho: study.DefaultRho})()
	if err != nil {
		t.Fatal(err)
	}
	nWires := len(sim.Wires())
	hottest := func(germ float64) float64 {
		z, out := make([]float64, m.Dim()), make([]float64, m.NumOutputs())
		for i := range z {
			z[i] = germ
		}
		if err := m.Eval(z, out); err != nil {
			t.Fatal(err)
		}
		return slices.Max(out[len(out)-nWires:])
	}
	// A germ of ±40 clamps every wire's elongation.
	floor, mid, ceiling := hottest(40), hottest(0), hottest(-40)
	if !(floor > mcEMaxFloor && floor-mcEMaxFloor < 0.02) || !(ceiling < mcEMaxCeiling && mcEMaxCeiling-ceiling < 0.02) {
		t.Errorf("clamped hottest-wire end temperatures %v K, %v K; check bounds [%v, %v] K",
			floor, ceiling, mcEMaxFloor, mcEMaxCeiling)
	}
	if !(mid > floor && mid < ceiling) {
		t.Errorf("nominal hottest-wire end temperature %v K outside [%v, %v] K", mid, floor, ceiling)
	}
}
