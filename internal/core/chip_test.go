package core_test

import (
	"testing"

	"etherm/internal/chipmodel"
	"etherm/internal/core"
)

// TestBenchChipFactorizesOnce pins the preconditioner contract on the
// paper's chip at the benchmark meshes: each operator is factorized once
// per run and no build fails. The electric operator's floating copper
// islands break MIC0 on meshes coarser than 0.25 mm, so the electric
// solves must all run on plain IC(0), while the thermal solves of strict
// and FastOptions runs alike run on MIC0.
func TestBenchChipFactorizesOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("chip-scale transients are seconds-scale")
	}
	strict := core.Options{NumSteps: 3}
	fast := core.FastOptions()
	fast.NumSteps = 3
	for _, tc := range []struct {
		name  string
		hmax  float64
		opt   core.Options
		therm func(core.RunStats) int
	}{
		{"0.7mm fast", 0.7e-3, fast, func(st core.RunStats) int { return st.CGItersMIC0 }},
		{"0.7mm strict", 0.7e-3, strict, func(st core.RunStats) int { return st.CGItersMIC0 }},
		{"0.15mm fast", 0.15e-3, fast, func(st core.RunStats) int { return st.CGItersMIC0 }},
	} {
		spec := chipmodel.DATE16Calibrated()
		spec.HMax = tc.hmax
		lay, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		s, err := core.NewSimulator(lay.Problem, tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		st := res.Stats
		if st.PrecondBuilds != 2 || st.PrecondFallbacks != 0 || st.PrecondFallbackReason != "" {
			t.Errorf("%s: want 2 builds and no fallback, got %d builds, %d fallbacks (%q)",
				tc.name, st.PrecondBuilds, st.PrecondFallbacks, st.PrecondFallbackReason)
		}
		if st.CGItersIC0 != st.ElecCGIters {
			t.Errorf("%s: %d of %d electric CG iterations in IC0", tc.name, st.CGItersIC0, st.ElecCGIters)
		}
		if got := tc.therm(st); got != st.ThermCGIters || got == 0 {
			t.Errorf("%s: %d of %d thermal CG iterations in the requested tier (%+v)",
				tc.name, got, st.ThermCGIters, st)
		}
	}
}
