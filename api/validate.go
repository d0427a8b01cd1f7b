package api

import (
	"fmt"
	"math"
)

// Declaration rules of the v1 scenario format. The engine validates every
// scenario with these methods, so a client can run the same checks before
// submitting; Batch.Validate stays the shallow envelope check.

// Validate checks the chip declaration.
func (c ChipSpec) Validate() error {
	switch c.Preset {
	case "", "date16", "date16-calibrated":
	default:
		return fmt.Errorf("unknown chip preset %q", c.Preset)
	}
	switch c.WireMaterial {
	case "", "copper", "gold", "aluminum":
	default:
		return fmt.Errorf("unknown wire material %q", c.WireMaterial)
	}
	if c.DriveVoltageV < 0 || c.DriveScale < 0 || c.HMaxM < 0 || c.WireDiameterM < 0 {
		return fmt.Errorf("chip overrides must be non-negative")
	}
	if c.MeanElongation < 0 || c.MeanElongation >= 1 {
		return fmt.Errorf("mean_elongation %g outside [0, 1)", c.MeanElongation)
	}
	for _, p := range c.ActivePairs {
		if p < 0 || p > 5 {
			return fmt.Errorf("active pair %d outside 0..5", p)
		}
	}
	if c.HTC != nil && *c.HTC < 0 {
		return fmt.Errorf("negative heat transfer coefficient %g", *c.HTC)
	}
	if c.Emissivity != nil && (*c.Emissivity < 0 || *c.Emissivity > 1) {
		return fmt.Errorf("emissivity %g outside [0, 1]", *c.Emissivity)
	}
	if c.AmbientK < 0 {
		return fmt.Errorf("negative ambient temperature %g K", c.AmbientK)
	}
	return nil
}

// Validate checks the transient-solve block. The v1 no-op knobs keep their
// v1 rules (unknown precision, mixed or deflation over precond=jacobi/none,
// a negative or orphan deflation_block, a negative precond_refresh or
// solver_workers), so every v1 document keeps its accept/reject outcome.
func (s SimSpec) Validate() error {
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

// Streaming reports whether the declaration selects the streaming campaign
// path, explicitly or through one of its knobs.
func (u UQSpec) Streaming() bool {
	return u.Stream || u.MaxSamples > 0 || u.TargetSE > 0 || u.TargetCI > 0 || u.Checkpoint != "" || u.Sharded()
}

// Sharded reports whether the declaration routes the campaign through the
// shard/merge layer (any positive shard count, including a single shard).
func (u UQSpec) Sharded() bool { return u.Shards >= 1 }

// Budget returns the effective sample budget of a streaming campaign.
func (u UQSpec) Budget() int {
	if u.MaxSamples > 0 {
		return u.MaxSamples
	}
	return u.Samples
}

// EffectiveMethod returns the method, defaulting to MethodNone.
func (u UQSpec) EffectiveMethod() string {
	if u.Method == "" {
		return MethodNone
	}
	return u.Method
}

// Rare reports whether the declaration selects a rare-event campaign.
func (u UQSpec) Rare() bool { return u.Mode == ModeFailureProbability }

// EffectiveEstimator returns the rare-event estimator, defaulting to
// subset simulation.
func (u UQSpec) EffectiveEstimator() string {
	if u.Estimator == "" {
		return EstimatorSubset
	}
	return u.Estimator
}

// validateRare checks the ModeFailureProbability knobs: everything a
// rare-event run can get wrong is rejected at batch validation, not
// thousands of solves into a campaign.
func (u UQSpec) validateRare() error {
	if u.Method != "" && u.Method != MethodNone {
		return fmt.Errorf("mode %q drives its own germ-space sampling; remove method %q", u.Mode, u.Method)
	}
	if u.Streaming() || u.Samples > 0 {
		return fmt.Errorf("mode %q does not take sampling or streaming knobs (samples/stream/max_samples/target_se/target_ci/checkpoint/shards)", u.Mode)
	}
	if u.P0 < 0 || u.P0 >= 0.5 {
		return fmt.Errorf("p0 %g outside [0, 0.5)", u.P0)
	}
	if u.LevelSamples < 0 || u.MaxLevels < 0 || u.MCMCStep < 0 {
		return fmt.Errorf("level_samples, max_levels and mcmc_step must be non-negative")
	}
	switch u.EffectiveEstimator() {
	case EstimatorSubset:
		if u.ISShift != 0 {
			return fmt.Errorf("is_shift applies to estimator %q only", EstimatorImportance)
		}
		if n := u.LevelSamples; n > 0 {
			p0 := u.P0
			if p0 == 0 {
				p0 = 0.1
			}
			seeds := int(math.Round(p0 * float64(n)))
			if seeds < 2 {
				return fmt.Errorf("level_samples %d gives %d seed chains; need ≥ 2", n, seeds)
			}
			if n%seeds != 0 {
				return fmt.Errorf("level_samples %d not divisible by %d seed chains (pick a multiple of 1/p0)", n, seeds)
			}
		}
	case EstimatorImportance:
		if u.ISShift == 0 {
			return fmt.Errorf("estimator %q needs a non-zero is_shift toward the failure domain", EstimatorImportance)
		}
		if u.P0 != 0 || u.MaxLevels != 0 || u.MCMCStep != 0 {
			return fmt.Errorf("p0, max_levels and mcmc_step apply to estimator %q only", EstimatorSubset)
		}
	default:
		return fmt.Errorf("unknown rare-event estimator %q", u.Estimator)
	}
	return nil
}

// Validate checks the UQ declaration.
func (u UQSpec) Validate() error {
	if u.Mode != "" && u.Mode != ModeFailureProbability {
		return fmt.Errorf("unknown uq mode %q", u.Mode)
	}
	if !u.Rare() && (u.Estimator != "" || u.P0 != 0 || u.LevelSamples != 0 || u.MaxLevels != 0 || u.MCMCStep != 0 || u.ISShift != 0) {
		return fmt.Errorf("rare-event knobs (estimator/p0/level_samples/max_levels/mcmc_step/is_shift) need mode %q", ModeFailureProbability)
	}
	if u.Rare() {
		if err := u.validateRare(); err != nil {
			return err
		}
		if u.Rho != nil && (*u.Rho < 0 || *u.Rho > 1) {
			return fmt.Errorf("rho %g outside [0, 1]", *u.Rho)
		}
		if u.MeanDelta < 0 || u.MeanDelta >= 1 {
			return fmt.Errorf("mean_delta %g outside [0, 1)", u.MeanDelta)
		}
		if u.StdDelta < 0 || u.CriticalK < 0 {
			return fmt.Errorf("std_delta and critical_k must be non-negative")
		}
		return nil
	}
	switch u.EffectiveMethod() {
	case MethodNone:
		if u.Streaming() {
			return fmt.Errorf("streaming knobs need a sampling method")
		}
	case MethodMonteCarlo, MethodLHS, MethodHalton, MethodSobol, MethodSobolOwen, MethodRQMC:
		if u.Budget() <= 0 {
			return fmt.Errorf("method %q needs a positive sample count", u.Method)
		}
	case MethodSmolyak:
		if u.Level < 1 {
			return fmt.Errorf("method %q needs level ≥ 1 (level %d would be a one-point quadrature)", u.Method, u.Level)
		}
		if u.Samples > 0 {
			return fmt.Errorf("method %q takes its budget from level, not samples", u.Method)
		}
		if u.Streaming() {
			return fmt.Errorf("streaming campaigns apply to sampling methods, not smolyak collocation")
		}
	default:
		return fmt.Errorf("unknown uq method %q", u.Method)
	}
	if u.MaxSamples < 0 || u.TargetSE < 0 || u.TargetCI < 0 || u.CheckpointEvery < 0 {
		return fmt.Errorf("streaming knobs must be non-negative")
	}
	if u.Shards < 0 || u.ShardBlock < 0 {
		return fmt.Errorf("sharding knobs must be non-negative")
	}
	if u.Sharded() && (u.TargetSE > 0 || u.TargetCI > 0) {
		return fmt.Errorf("sharded campaigns are budget-only: adaptive stopping (target_se/target_ci) needs the single-fold streaming path")
	}
	if u.Rho != nil && (*u.Rho < 0 || *u.Rho > 1) {
		return fmt.Errorf("rho %g outside [0, 1]", *u.Rho)
	}
	if u.MeanDelta < 0 || u.MeanDelta >= 1 {
		return fmt.Errorf("mean_delta %g outside [0, 1)", u.MeanDelta)
	}
	if u.StdDelta < 0 || u.CriticalK < 0 {
		return fmt.Errorf("std_delta and critical_k must be non-negative")
	}
	return nil
}

// WithSimDefaults returns the scenario with the paper's transient horizon,
// 50 s over 50 steps, filled into unset Sim fields.
func (s Scenario) WithSimDefaults() Scenario {
	if s.Sim.EndTimeS <= 0 {
		s.Sim.EndTimeS = 50
	}
	if s.Sim.NumSteps <= 0 {
		s.Sim.NumSteps = 50
	}
	return s
}

// Validate checks one scenario: its name, chip, sim block (with the
// horizon defaults applied) and uq block.
func (s Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario needs a name")
	}
	if err := s.Chip.Validate(); err != nil {
		return fmt.Errorf("scenario %q: chip: %w", s.Name, err)
	}
	if err := s.WithSimDefaults().Sim.Validate(); err != nil {
		return fmt.Errorf("scenario %q: sim: %w", s.Name, err)
	}
	if err := s.UQ.Validate(); err != nil {
		return fmt.Errorf("scenario %q: uq: %w", s.Name, err)
	}
	return nil
}

// Failed returns the results of scenarios that errored.
func (r *BatchResult) Failed() []*ScenarioResult {
	var out []*ScenarioResult
	for _, s := range r.Scenarios {
		if !s.OK {
			out = append(out, s)
		}
	}
	return out
}
