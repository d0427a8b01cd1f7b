package config

import (
	"os"
	"path/filepath"
	"testing"

	"etherm/internal/core"
)

func TestDefaultMatchesTableII(t *testing.T) {
	cfg := Default()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Sim.EndTimeS != 50 || cfg.Sim.NumSteps != 50 {
		t.Error("time discretization differs from Table II")
	}
	if cfg.UQ.Samples != 1000 || cfg.UQ.MeanDelta != 0.17 || cfg.UQ.StdDelta != 0.048 {
		t.Error("UQ defaults differ from the paper")
	}
	if cfg.UQ.CriticalK != 523 {
		t.Error("critical temperature differs from the paper")
	}
}

func TestLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.json")
	if err := WriteExample(path); err != nil {
		t.Fatal(err)
	}
	cfg, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg != Default() {
		t.Error("round trip changed the configuration")
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.json")
	os.WriteFile(path, []byte(`{"chip":{"preset":"date16"},"sim":{"end_time_s":1,"num_steps":1},"uq":{"method":"monte-carlo","samples":1,"typo":true}}`), 0o644)
	if _, err := Load(path); err == nil {
		t.Error("unknown field accepted")
	}
}

func TestValidationErrors(t *testing.T) {
	bad := Default()
	bad.Chip.Preset = "nope"
	if err := bad.Validate(); err == nil {
		t.Error("bad preset accepted")
	}
	bad = Default()
	bad.Sim.Integrator = "rk4"
	if err := bad.Validate(); err == nil {
		t.Error("bad integrator accepted")
	}
	bad = Default()
	bad.UQ.Samples = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero samples accepted")
	}
	bad = Default()
	bad.UQ.TargetSE = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative target_se accepted")
	}
	bad = Default()
	bad.UQ.Method = "smolyak"
	bad.UQ.Stream = true
	if err := bad.Validate(); err == nil {
		t.Error("streaming smolyak accepted")
	}
}

func TestStreamingKnobs(t *testing.T) {
	u := UQConfig{Samples: 100}
	if u.Streaming() {
		t.Error("plain config reported streaming")
	}
	if u.Budget() != 100 {
		t.Errorf("budget %d", u.Budget())
	}
	u.MaxSamples = 5000
	if !u.Streaming() || u.Budget() != 5000 {
		t.Errorf("max_samples did not switch to streaming budget: %v %d", u.Streaming(), u.Budget())
	}
	for _, v := range []UQConfig{{Stream: true}, {TargetSE: 0.1}, {TargetCI: 0.01}, {Checkpoint: "x.ckpt"}} {
		if !v.Streaming() {
			t.Errorf("%+v not recognized as streaming", v)
		}
	}
	// Streaming budget satisfies validation even with samples unset.
	cfg := Default()
	cfg.UQ.Samples = 0
	cfg.UQ.MaxSamples = 1000
	if err := cfg.Validate(); err != nil {
		t.Errorf("streaming budget rejected: %v", err)
	}
}

func TestShardingKnobs(t *testing.T) {
	u := UQConfig{Samples: 100, Shards: 4}
	if !u.Sharded() || !u.Streaming() {
		t.Error("shards must imply the streaming sharded path")
	}
	if (UQConfig{Samples: 100}).Sharded() {
		t.Error("unsharded config reported sharded")
	}
	cfg := Default()
	cfg.UQ.Shards = 4
	cfg.UQ.ShardBlock = 128
	if err := cfg.Validate(); err != nil {
		t.Errorf("sharded config rejected: %v", err)
	}
	bad := Default()
	bad.UQ.Shards = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative shard count accepted")
	}
	adaptive := Default()
	adaptive.UQ.Shards = 2
	adaptive.UQ.TargetSE = 0.1
	if err := adaptive.Validate(); err == nil {
		t.Error("sharded config with adaptive target accepted")
	}
	smolyak := Default()
	smolyak.UQ.Method = "smolyak"
	smolyak.UQ.Shards = 2
	if err := smolyak.Validate(); err == nil {
		t.Error("sharded smolyak accepted")
	}
}

func TestSpecAndOptionsMaterialization(t *testing.T) {
	cfg := Default()
	cfg.Chip.Preset = "date16"
	cfg.Chip.WireSegments = 4
	cfg.Sim.Coupling = "weak"
	cfg.Sim.Integrator = "bdf2"
	spec, err := cfg.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.WireSegments != 4 {
		t.Error("wire segments override lost")
	}
	if spec.DriveV != 0.020 {
		t.Error("faithful preset drive wrong")
	}
	opt := cfg.Options(false)
	if opt.Coupling != core.WeakCoupling || opt.TimeIntegrator != core.BDF2 {
		t.Error("options materialization wrong")
	}
	// Ensemble options start from the fast profile.
	optE := cfg.Options(true)
	if optE.Nonlinear != core.NewtonLinearized {
		t.Error("ensemble options should start from FastOptions")
	}
}

func TestSolverKnobsMaterialization(t *testing.T) {
	s := SimConfig{
		EndTimeS: 10, NumSteps: 5,
		Precond: "jacobi", PrecondOmega: -1, PrecondRefresh: 2.5, SolverWorkers: 4,
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	o := s.CoreOptions(false)
	if o.Precond != core.PrecondJacobi {
		t.Error("precond selection lost")
	}
	if o.PrecondOmega != -1 {
		t.Error("precond omega override lost")
	}
	if o.PrecondRefreshRatio != 2.5 {
		t.Error("precond refresh ratio lost")
	}
	if o.Workers != 4 {
		t.Error("solver workers lost")
	}
	// Unset knobs keep the core defaults.
	d := SimConfig{EndTimeS: 10, NumSteps: 5}.CoreOptions(false)
	if d.Precond != core.PrecondIC0 || d.Workers != 0 || d.PrecondOmega != 0 {
		t.Errorf("zero-value knobs should defer to core defaults: %+v", d)
	}
	for _, bad := range []SimConfig{
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
	s := SimConfig{
		EndTimeS: 10, NumSteps: 5,
		Precond: "ict", Precision: "mixed",
		Deflation: true, DeflationBlock: 96,
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	plain := SimConfig{EndTimeS: 10, NumSteps: 5, Precond: "ict"}
	for _, forEnsemble := range []bool{false, true} {
		o := s.CoreOptions(forEnsemble)
		if o.Precond != core.PrecondICT {
			t.Error("ict precond selection lost")
		}
		if want := plain.CoreOptions(forEnsemble); o != want {
			t.Errorf("ensemble=%v: v1 no-op knobs changed the core options:\n%+v\nvs\n%+v", forEnsemble, o, want)
		}
	}
	// Contradictory combinations are rejected up front, not silently
	// degraded at solve time.
	for name, bad := range map[string]SimConfig{
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
	ok := SimConfig{EndTimeS: 1, NumSteps: 1, Precision: "mixed"}
	if err := ok.Validate(); err != nil {
		t.Errorf("mixed with default precond rejected: %v", err)
	}
}
