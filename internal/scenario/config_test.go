package scenario

import (
	"testing"

	"etherm/api"
	"etherm/internal/core"
)

func TestValidationErrors(t *testing.T) {
	if err := (api.SimSpec{EndTimeS: 50, NumSteps: 50}).Validate(); err != nil {
		t.Fatalf("Table II horizon rejected: %v", err)
	}
	for name, bad := range map[string]api.SimSpec{
		"zero end time":      {NumSteps: 50},
		"zero steps":         {EndTimeS: 50},
		"unknown integrator": {EndTimeS: 50, NumSteps: 50, Integrator: "rk4"},
		"unknown coupling":   {EndTimeS: 50, NumSteps: 50, Coupling: "loose"},
		"unknown nonlinear":  {EndTimeS: 50, NumSteps: 50, Nonlinear: "anderson"},
		"unknown joule":      {EndTimeS: 50, NumSteps: 50, Joule: "node"},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: accepted %+v", name, bad)
		}
	}
}

func TestCoreOptionsMaterialization(t *testing.T) {
	s := api.SimSpec{EndTimeS: 50, NumSteps: 25, Coupling: "weak", Integrator: "bdf2"}
	opt := coreOptions(s, false)
	if opt.Coupling != core.WeakCoupling || opt.TimeIntegrator != core.BDF2 {
		t.Error("coupling/integrator materialization wrong")
	}
	if opt.EndTime != 50 || opt.NumSteps != 25 {
		t.Errorf("horizon lost: %g s over %d steps", opt.EndTime, opt.NumSteps)
	}
	// Ensemble options start from the fast profile.
	if optE := coreOptions(api.SimSpec{EndTimeS: 50, NumSteps: 25}, true); optE.Nonlinear != core.NewtonLinearized {
		t.Error("ensemble options should start from FastOptions")
	}
}

func TestSolverKnobsMaterialization(t *testing.T) {
	s := api.SimSpec{
		EndTimeS: 10, NumSteps: 5,
		Precond: "jacobi", PrecondOmega: -1, PrecondRefresh: 2.5, SolverWorkers: 4,
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	o := coreOptions(s, false)
	if o.Precond != core.PrecondJacobi {
		t.Error("precond selection lost")
	}
	if o.PrecondOmega != -1 {
		t.Error("precond omega override lost")
	}
	noRefresh := s
	noRefresh.PrecondRefresh = 0
	if o != coreOptions(noRefresh, false) {
		t.Error("precond_refresh should be a no-op")
	}
	noWorkers := s
	noWorkers.SolverWorkers = 0
	for _, ensemble := range []bool{false, true} {
		if coreOptions(s, ensemble) != coreOptions(noWorkers, ensemble) {
			t.Errorf("solver_workers should be a no-op (ensemble=%v)", ensemble)
		}
	}
	// Unset knobs keep the core defaults.
	d := coreOptions(api.SimSpec{EndTimeS: 10, NumSteps: 5}, false)
	if d.Precond != core.PrecondIC0 || d.PrecondOmega != 0 {
		t.Errorf("zero-value knobs should defer to core defaults: %+v", d)
	}
	for _, bad := range []api.SimSpec{
		{EndTimeS: 1, NumSteps: 1, Precond: "ilu"},
		{EndTimeS: 1, NumSteps: 1, PrecondOmega: 1.5},
		{EndTimeS: 1, NumSteps: 1, PrecondRefresh: -1},
		{EndTimeS: 1, NumSteps: 1, SolverWorkers: -2},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("expected validation error for %+v", bad)
		}
	}
}

func TestPrecisionAndDeflationKnobs(t *testing.T) {
	// The v1 precision/deflation fields validate and are accepted no-ops:
	// the core options match the same config without them.
	s := api.SimSpec{
		EndTimeS: 10, NumSteps: 5,
		Precond: "ict", Precision: "mixed",
		Deflation: true, DeflationBlock: 96,
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	plain := api.SimSpec{EndTimeS: 10, NumSteps: 5, Precond: "ict"}
	for _, forEnsemble := range []bool{false, true} {
		o := coreOptions(s, forEnsemble)
		if o.Precond != core.PrecondIC0 {
			t.Error("ict precond selection lost")
		}
		if want := coreOptions(plain, forEnsemble); o != want {
			t.Errorf("ensemble=%v: v1 no-op knobs changed the core options:\n%+v\nvs\n%+v", forEnsemble, o, want)
		}
	}
	// Contradictory combinations are rejected up front, not silently
	// degraded at solve time.
	for name, bad := range map[string]api.SimSpec{
		"unknown precision":            {EndTimeS: 1, NumSteps: 1, Precision: "half"},
		"mixed with jacobi":            {EndTimeS: 1, NumSteps: 1, Precision: "mixed", Precond: "jacobi"},
		"mixed with none":              {EndTimeS: 1, NumSteps: 1, Precision: "mixed", Precond: "none"},
		"deflation with jacobi":        {EndTimeS: 1, NumSteps: 1, Deflation: true, Precond: "jacobi"},
		"deflation with none":          {EndTimeS: 1, NumSteps: 1, Deflation: true, Precond: "none"},
		"negative deflation block":     {EndTimeS: 1, NumSteps: 1, Deflation: true, DeflationBlock: -8},
		"deflation block without defl": {EndTimeS: 1, NumSteps: 1, DeflationBlock: 64},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: expected validation error for %+v", name, bad)
		}
	}
	// Mixed precision rides on the default (factorization) preconditioner.
	ok := api.SimSpec{EndTimeS: 1, NumSteps: 1, Precision: "mixed"}
	if err := ok.Validate(); err != nil {
		t.Errorf("mixed with default precond rejected: %v", err)
	}
}
