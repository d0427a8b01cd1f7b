// Package config defines the JSON run configuration consumed by the command
// line tools, with defaults matching the paper's Table II.
package config

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"etherm/internal/chipmodel"
	"etherm/internal/core"
)

// Run is the top-level configuration.
type Run struct {
	// Chip geometry and drive.
	Chip ChipConfig `json:"chip"`
	// Transient solve.
	Sim SimConfig `json:"sim"`
	// Uncertainty study.
	UQ UQConfig `json:"uq"`
}

// ChipConfig selects and overrides the package model.
type ChipConfig struct {
	// Preset: "date16" (faithful drive) or "date16-calibrated" (power level
	// matched to the paper's Fig. 7, see chipmodel.DATE16Calibrated).
	Preset string `json:"preset"`
	// Optional overrides (zero = keep preset value).
	DriveVoltageV float64 `json:"drive_voltage_v,omitempty"`
	HMaxM         float64 `json:"hmax_m,omitempty"`
	WireSegments  int     `json:"wire_segments,omitempty"`
	WireDiameterM float64 `json:"wire_diameter_m,omitempty"`
	WireMaterial  string  `json:"wire_material,omitempty"` // copper|gold|aluminum
}

// SimConfig mirrors core.Options.
type SimConfig struct {
	EndTimeS   float64 `json:"end_time_s"`
	NumSteps   int     `json:"num_steps"`
	Coupling   string  `json:"coupling,omitempty"`   // strong|weak
	Nonlinear  string  `json:"nonlinear,omitempty"`  // picard|newton
	Integrator string  `json:"integrator,omitempty"` // implicit-euler|trapezoidal|bdf2
	Joule      string  `json:"joule,omitempty"`      // edge-split|cell-average
	LinTol     float64 `json:"lin_tol,omitempty"`

	// Performance knobs (see core.Options for the full semantics).
	// Precond selects the CG preconditioner: ict | ic0 | jacobi | none.
	// Empty keeps the mode's default top tier (ICT for ensembles via
	// FastOptions, the modified-IC0 chain otherwise); ict and ic0 name the
	// top of the shared degradation chain, which falls through
	// ICT → MIC0 → IC0 → Jacobi on factorization failure.
	Precond string `json:"precond,omitempty"`
	// Precision (float64 | mixed), Deflation and DeflationBlock are v1
	// fields accepted as no-ops (DESIGN.md §5b): CoreOptions ignores them,
	// while Validate still applies the v1 rules (unknown precision, mixed
	// or deflation over precond=jacobi/none, a negative or orphan
	// deflation_block), so v1 documents keep their accept/reject outcome.
	Precision      string `json:"precision,omitempty"`
	Deflation      bool   `json:"deflation,omitempty"`
	DeflationBlock int    `json:"deflation_block,omitempty"`
	// PrecondOmega is the modified-IC relaxation in [0, 1]; 0 keeps the
	// default (1, full compensation), negative selects plain IC(0).
	PrecondOmega float64 `json:"precond_omega,omitempty"`
	// PrecondRefresh is the preconditioner lag ratio (default 1.5).
	PrecondRefresh float64 `json:"precond_refresh,omitempty"`
	// SolverWorkers enables the bit-identical parallel matvec/assembly path
	// inside each transient solve; 0 or 1 keeps the serial default.
	SolverWorkers int `json:"solver_workers,omitempty"`
}

// UQConfig controls the sampling study.
type UQConfig struct {
	Method    string  `json:"method"`  // monte-carlo|lhs|halton|sobol|smolyak
	Samples   int     `json:"samples"` // M (or Smolyak level when method=smolyak)
	Seed      uint64  `json:"seed"`
	Workers   int     `json:"workers,omitempty"`
	MeanDelta float64 `json:"mean_delta,omitempty"` // default 0.17
	StdDelta  float64 `json:"std_delta,omitempty"`  // default 0.048
	CriticalK float64 `json:"critical_k,omitempty"` // default 523

	// Streaming-campaign knobs. Stream selects the constant-memory
	// streaming path (O(NumOutputs) accumulators instead of O(M·NumOutputs)
	// sample storage); it is implied by any of the other knobs.
	Stream bool `json:"stream,omitempty"`
	// MaxSamples is the streaming sample budget; 0 falls back to Samples.
	MaxSamples int `json:"max_samples,omitempty"`
	// TargetSE stops the campaign early once every output's Monte Carlo
	// standard error (eq. 6) reaches it; TargetCI once the 95% Wilson
	// half-width of the failure probability does. Zero disables a rule.
	TargetSE float64 `json:"target_se,omitempty"`
	TargetCI float64 `json:"target_ci,omitempty"`
	// Checkpoint periodically persists resumable campaign state to this
	// path (every CheckpointEvery folded samples; 0 = default period).
	// Sharded campaigns write one "<path>.shard-N" file per shard.
	Checkpoint      string `json:"checkpoint,omitempty"`
	CheckpointEvery int    `json:"checkpoint_every,omitempty"`

	// Shards partitions the sample range into this many self-contained,
	// block-aligned shards (merged results are bit-identical for any shard
	// count or worker placement — see uq.ShardPlan). 0 keeps the
	// single-fold streaming campaign, shards=1 is a one-shard campaign
	// through the same merge layer; sharding implies streaming and is
	// budget-only (no adaptive targets).
	Shards int `json:"shards,omitempty"`
	// ShardBlock is the merge granularity of the shard plan
	// (0 = uq.DefaultShardBlockSize).
	ShardBlock int `json:"shard_block,omitempty"`
}

// Sharded reports whether the configuration routes the campaign through the
// shard/merge layer (any positive shard count).
func (u UQConfig) Sharded() bool { return u.Shards >= 1 }

// Streaming reports whether the configuration selects the streaming
// campaign path, explicitly or through one of its knobs.
func (u UQConfig) Streaming() bool {
	return u.Stream || u.MaxSamples > 0 || u.TargetSE > 0 || u.TargetCI > 0 || u.Checkpoint != "" || u.Sharded()
}

// Budget returns the effective sample budget of a streaming campaign.
func (u UQConfig) Budget() int {
	if u.MaxSamples > 0 {
		return u.MaxSamples
	}
	return u.Samples
}

// Default returns the configuration of the paper's study (Table II).
func Default() Run {
	return Run{
		Chip: ChipConfig{Preset: "date16-calibrated"},
		Sim:  SimConfig{EndTimeS: 50, NumSteps: 50},
		UQ: UQConfig{
			Method: "monte-carlo", Samples: 1000, Seed: 2016,
			MeanDelta: 0.17, StdDelta: 0.048, CriticalK: 523,
		},
	}
}

// Load reads and validates a configuration file; empty path returns Default.
func Load(path string) (Run, error) {
	cfg := Default()
	if path == "" {
		return cfg, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return cfg, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return cfg, fmt.Errorf("config: %s: %w", path, err)
	}
	if err := cfg.Validate(); err != nil {
		return cfg, fmt.Errorf("config: %s: %w", path, err)
	}
	return cfg, nil
}

// Validate checks the configuration.
func (c Run) Validate() error {
	switch c.Chip.Preset {
	case "", "date16", "date16-calibrated":
	default:
		return fmt.Errorf("unknown chip preset %q", c.Chip.Preset)
	}
	switch c.Chip.WireMaterial {
	case "", "copper", "gold", "aluminum":
	default:
		return fmt.Errorf("unknown wire material %q", c.Chip.WireMaterial)
	}
	if err := c.Sim.Validate(); err != nil {
		return err
	}
	switch c.UQ.Method {
	case "", "monte-carlo", "lhs", "halton", "sobol", "smolyak":
	default:
		return fmt.Errorf("unknown UQ method %q", c.UQ.Method)
	}
	if c.UQ.Samples <= 0 && c.UQ.Budget() <= 0 {
		return fmt.Errorf("uq.samples must be positive")
	}
	if c.UQ.MaxSamples < 0 || c.UQ.TargetSE < 0 || c.UQ.TargetCI < 0 || c.UQ.CheckpointEvery < 0 {
		return fmt.Errorf("uq streaming knobs must be non-negative")
	}
	if c.UQ.Shards < 0 || c.UQ.ShardBlock < 0 {
		return fmt.Errorf("uq sharding knobs must be non-negative")
	}
	if c.UQ.Sharded() && (c.UQ.TargetSE > 0 || c.UQ.TargetCI > 0) {
		return fmt.Errorf("sharded campaigns are budget-only: adaptive stopping (target_se/target_ci) needs the single-fold streaming path")
	}
	if c.UQ.Method == "smolyak" && c.UQ.Streaming() {
		return fmt.Errorf("streaming campaigns apply to sampling methods, not smolyak collocation")
	}
	return nil
}

// Validate checks the transient-solve section in isolation, so other
// front-ends (e.g. the batch scenario engine) can embed SimConfig without a
// full Run.
func (s SimConfig) Validate() error {
	if s.EndTimeS <= 0 || s.NumSteps <= 0 {
		return fmt.Errorf("end_time_s and num_steps must be positive")
	}
	switch s.Coupling {
	case "", "strong", "weak":
	default:
		return fmt.Errorf("unknown coupling %q", s.Coupling)
	}
	switch s.Nonlinear {
	case "", "picard", "newton":
	default:
		return fmt.Errorf("unknown nonlinear mode %q", s.Nonlinear)
	}
	switch s.Integrator {
	case "", "implicit-euler", "trapezoidal", "bdf2":
	default:
		return fmt.Errorf("unknown integrator %q", s.Integrator)
	}
	switch s.Joule {
	case "", "edge-split", "cell-average":
	default:
		return fmt.Errorf("unknown joule scheme %q", s.Joule)
	}
	switch s.Precond {
	case "", "ict", "ic0", "jacobi", "none":
	default:
		return fmt.Errorf("unknown preconditioner %q", s.Precond)
	}
	switch s.Precision {
	case "", "float64", "mixed":
	default:
		return fmt.Errorf("unknown precision %q", s.Precision)
	}
	// The v1 contradiction rules for the no-op precision/deflation fields
	// stay, so every v1 document keeps its v1 accept/reject outcome.
	if s.Precision == "mixed" && (s.Precond == "jacobi" || s.Precond == "none") {
		return fmt.Errorf("precision=mixed needs a factorization preconditioner; contradicts precond=%s", s.Precond)
	}
	if s.Deflation && (s.Precond == "jacobi" || s.Precond == "none") {
		return fmt.Errorf("deflation wraps a factorization preconditioner; contradicts precond=%s", s.Precond)
	}
	if s.DeflationBlock < 0 {
		return fmt.Errorf("negative deflation_block %d", s.DeflationBlock)
	}
	if s.DeflationBlock > 0 && !s.Deflation {
		return fmt.Errorf("deflation_block set without deflation")
	}
	if s.PrecondOmega > 1 {
		return fmt.Errorf("precond_omega %g above 1", s.PrecondOmega)
	}
	if s.PrecondRefresh < 0 {
		return fmt.Errorf("negative precond_refresh %g", s.PrecondRefresh)
	}
	if s.SolverWorkers < 0 {
		return fmt.Errorf("negative solver_workers %d", s.SolverWorkers)
	}
	return nil
}

// Spec materializes the chip specification.
func (c Run) Spec() (chipmodel.Spec, error) {
	var spec chipmodel.Spec
	switch c.Chip.Preset {
	case "", "date16-calibrated":
		spec = chipmodel.DATE16Calibrated()
	case "date16":
		spec = chipmodel.DATE16()
	default:
		return spec, fmt.Errorf("unknown preset %q", c.Chip.Preset)
	}
	if c.Chip.DriveVoltageV > 0 {
		spec.DriveV = c.Chip.DriveVoltageV
	}
	if c.Chip.HMaxM > 0 {
		spec.HMax = c.Chip.HMaxM
	}
	if c.Chip.WireSegments > 0 {
		spec.WireSegments = c.Chip.WireSegments
	}
	if c.Chip.WireDiameterM > 0 {
		spec.WireDiameter = c.Chip.WireDiameterM
	}
	return spec, nil
}

// Options materializes the solver options. Ensemble studies default to the
// fast weak-coupling settings; single runs use the strict defaults.
func (c Run) Options(forEnsemble bool) core.Options {
	return c.Sim.CoreOptions(forEnsemble)
}

// CoreOptions materializes core.Options from the transient-solve section.
// With forEnsemble the unset fields start from core.FastOptions (weak
// staggered coupling, linearized radiation) instead of the strict defaults.
func (s SimConfig) CoreOptions(forEnsemble bool) core.Options {
	var o core.Options
	if forEnsemble {
		o = core.FastOptions()
	}
	o.EndTime = s.EndTimeS
	o.NumSteps = s.NumSteps
	switch s.Coupling {
	case "strong":
		o.Coupling = core.StrongCoupling
	case "weak":
		o.Coupling = core.WeakCoupling
	}
	switch s.Nonlinear {
	case "picard":
		o.Nonlinear = core.Picard
	case "newton":
		o.Nonlinear = core.NewtonLinearized
	}
	switch s.Integrator {
	case "trapezoidal":
		o.TimeIntegrator = core.Trapezoidal
	case "bdf2":
		o.TimeIntegrator = core.BDF2
	case "implicit-euler":
		o.TimeIntegrator = core.ImplicitEuler
	}
	switch s.Joule {
	case "cell-average":
		o.Joule = core.CellAverage
	case "edge-split":
		o.Joule = core.EdgeSplit
	}
	if s.LinTol > 0 {
		o.LinTol = s.LinTol
	}
	switch s.Precond {
	case "ict":
		o.Precond = core.PrecondICT
	case "ic0":
		o.Precond = core.PrecondIC0
	case "jacobi":
		o.Precond = core.PrecondJacobi
	case "none":
		o.Precond = core.PrecondNone
	}
	if s.PrecondOmega != 0 {
		o.PrecondOmega = s.PrecondOmega
	}
	if s.PrecondRefresh > 0 {
		o.PrecondRefreshRatio = s.PrecondRefresh
	}
	if s.SolverWorkers > 0 {
		o.Workers = s.SolverWorkers
	}
	return o
}

// WriteExample writes a commented example configuration.
func WriteExample(path string) error {
	data, err := json.MarshalIndent(Default(), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
