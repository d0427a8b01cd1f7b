// Package scenario implements the batch simulation engine: a declarative
// list of electrothermal scenarios (chip geometry and drive, bonding-wire
// material and elongation law, ambient conditions, solver settings and UQ
// method) evaluated concurrently over a bounded worker pool, with the
// expensive immutable pieces — mesh construction and FIT material assembly —
// deduplicated through a geometry-keyed cache shared by all scenarios.
//
// The engine is the repo's answer to the "many scenarios, one solver" goal:
// cmd/etbatch drives it from a JSON scenario file, cmd/etserver serves it as
// an asynchronous HTTP job API, and Presets ships paper-grounded example
// batches (nominal heating, the 12-wire DATE-2016 Monte Carlo sweep,
// degradation-to-failure, Au/Al/Cu material comparison, current derating).
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"etherm/internal/chipmodel"
	"etherm/internal/config"
	"etherm/internal/material"
	"etherm/internal/study"
)

// ChipSpec declares the package model of one scenario as a preset plus
// overrides. Zero-valued fields keep the preset value.
type ChipSpec struct {
	// Preset selects the base geometry: "date16" (faithful V_bw = 40 mV
	// drive) or "date16-calibrated" (power-matched drive, the default).
	Preset string `json:"preset,omitempty"`

	// DriveVoltageV overrides the PEC contact drive ±V (a wire pair sees 2V).
	DriveVoltageV float64 `json:"drive_voltage_v,omitempty"`
	// DriveScale multiplies the preset (or overridden) drive voltage; it is
	// the knob behind current-derating scenarios. Zero means 1.
	DriveScale float64 `json:"drive_scale,omitempty"`

	// HMaxM overrides the maximum mesh spacing (metres). This is the only
	// override that changes the grid and therefore the assembly-cache key.
	HMaxM float64 `json:"hmax_m,omitempty"`

	// Wire overrides. These reshape the lumped wires only, so scenarios
	// differing in them still share one cached mesh assembly.
	WireSegments   int     `json:"wire_segments,omitempty"`
	WireDiameterM  float64 `json:"wire_diameter_m,omitempty"`
	WireMaterial   string  `json:"wire_material,omitempty"`   // copper|gold|aluminum
	MeanElongation float64 `json:"mean_elongation,omitempty"` // nominal δ; zero keeps the preset 0.17

	// ActivePairs restricts the drive to the listed wire pairs (0..5);
	// wires of other pairs are removed together with their PEC contacts.
	// Empty means all six pairs (the paper's full 12-wire package).
	ActivePairs []int `json:"active_pairs,omitempty"`

	// Ambient overrides (Table II values when unset). HTC and Emissivity
	// are pointers because zero is physically meaningful there (no
	// convection / no radiation), unlike an ambient of 0 K.
	HTC        *float64 `json:"htc_w_m2k,omitempty"`
	Emissivity *float64 `json:"emissivity,omitempty"`
	AmbientK   float64  `json:"ambient_k,omitempty"`
}

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

// Materialize resolves the declaration into a concrete chipmodel.Spec.
func (c ChipSpec) Materialize() (chipmodel.Spec, error) {
	var spec chipmodel.Spec
	switch c.Preset {
	case "", "date16-calibrated":
		spec = chipmodel.DATE16Calibrated()
	case "date16":
		spec = chipmodel.DATE16()
	default:
		return spec, fmt.Errorf("unknown chip preset %q", c.Preset)
	}
	if c.DriveVoltageV > 0 {
		spec.DriveV = c.DriveVoltageV
	}
	if c.DriveScale > 0 {
		spec.DriveV *= c.DriveScale
	}
	if c.HMaxM > 0 {
		spec.HMax = c.HMaxM
	}
	if c.WireSegments > 0 {
		spec.WireSegments = c.WireSegments
	}
	if c.WireDiameterM > 0 {
		spec.WireDiameter = c.WireDiameterM
	}
	if c.MeanElongation > 0 {
		spec.MeanElong = c.MeanElongation
	}
	switch c.WireMaterial {
	case "gold":
		spec.WireMat = material.Gold()
	case "aluminum":
		spec.WireMat = material.Aluminum()
	case "copper":
		spec.WireMat = material.Copper()
	}
	if c.HTC != nil {
		spec.HTC = *c.HTC
	}
	if c.Emissivity != nil {
		spec.Emissivity = *c.Emissivity
	}
	if c.AmbientK > 0 {
		spec.TAmbient = c.AmbientK
	}
	return spec, nil
}

// UQMethod names the uncertainty treatment of a scenario.
const (
	// MethodNone runs one deterministic simulation at the nominal elongation.
	MethodNone = "none"
	// MethodMonteCarlo is the paper's pseudo-random sampling.
	MethodMonteCarlo = "monte-carlo"
	// MethodLHS is Latin hypercube sampling.
	MethodLHS = "lhs"
	// MethodHalton is the shifted Halton QMC sequence.
	MethodHalton = "halton"
	// MethodSobol is the Sobol' QMC sequence.
	MethodSobol = "sobol"
	// MethodSmolyak is sparse-grid stochastic collocation.
	MethodSmolyak = "smolyak"
	// MethodSobolOwen is the Owen-scrambled Sobol' QMC sequence.
	MethodSobolOwen = "sobol-owen"
	// MethodRQMC interleaves independently scrambled Sobol' replicates
	// (randomized QMC with CLT-valid error bars).
	MethodRQMC = "rqmc-sobol"
)

// Campaign modes. The default (empty) mode estimates moments and exceedance
// statistics of the temperature field; ModeFailureProbability answers a
// single rare-event question instead.
const (
	// ModeFailureProbability estimates P(T_max ≥ critical_k) with a
	// dedicated rare-event estimator (subset simulation or mean-shift
	// importance sampling) — the 1e-6..1e-8 regime of arXiv:1609.06187
	// where direct sampling is infeasible.
	ModeFailureProbability = "failure_probability"
)

// Rare-event estimators for ModeFailureProbability.
const (
	// EstimatorSubset is Au–Beck subset simulation (the default).
	EstimatorSubset = "subset"
	// EstimatorImportance is mean-shift importance sampling.
	EstimatorImportance = "importance"
)

// UQSpec declares the uncertainty study of one scenario.
type UQSpec struct {
	// Method is one of the Method… constants; empty means MethodNone.
	Method string `json:"method,omitempty"`
	// Samples is the evaluation budget M for sampling methods.
	Samples int `json:"samples,omitempty"`
	// Level is the Smolyak sparse-grid level (MethodSmolyak only).
	Level int `json:"level,omitempty"`
	// Seed feeds the deterministic per-index sample streams.
	Seed uint64 `json:"seed,omitempty"`
	// Rho is the wire-to-wire elongation correlation ρ ∈ [0, 1]; nil means
	// the calibrated study.DefaultRho. (A pointer because ρ = 0, fully
	// independent wires, is a meaningful choice distinct from "unset".)
	Rho *float64 `json:"rho,omitempty"`
	// MeanDelta and StdDelta override the paper's fitted elongation law
	// (δ ~ N(0.17, 0.048²)). Zero means "the paper's value", as in
	// study.Params — an exactly-zero law is not expressible; note that
	// the nominal geometry of deterministic scenarios is set by
	// ChipSpec.MeanElongation instead.
	MeanDelta float64 `json:"mean_delta,omitempty"`
	StdDelta  float64 `json:"std_delta,omitempty"`
	// CriticalK overrides the failure threshold (default 523 K).
	CriticalK float64 `json:"critical_k,omitempty"`

	// Stream selects the streaming campaign for sampling methods, which
	// adds the campaign accounting (streamed, stop_reason, fail_prob_emp,
	// t_obs_max_k) to the result. It is implied by any of the knobs below.
	// Every sampling scenario folds outputs into O(NumOutputs) accumulators
	// as samples complete, so the moments are the same bits either way.
	Stream bool `json:"stream,omitempty"`
	// MaxSamples is the streaming sample budget (0 = Samples). Adaptive
	// rules may stop before it; it never runs past it.
	MaxSamples int `json:"max_samples,omitempty"`
	// TargetSE stops the campaign once every output's Monte Carlo standard
	// error (eq. 6) is at or below it (kelvin); TargetCI once the 95%
	// failure-probability confidence half-width is. Zero disables a rule.
	TargetSE float64 `json:"target_se,omitempty"`
	TargetCI float64 `json:"target_ci,omitempty"`
	// Checkpoint persists resumable campaign state to this path every
	// CheckpointEvery folded samples (0 = default period); when the file
	// already exists the campaign resumes from it. Sharded campaigns write
	// one "<path>.shard-N" file per shard instead, so resumed shards never
	// mix state.
	Checkpoint      string `json:"checkpoint,omitempty"`
	CheckpointEvery int    `json:"checkpoint_every,omitempty"`

	// Shards partitions the sample index range into this many
	// self-contained, block-aligned shards (see uq.ShardPlan): each is
	// runnable on a different process or machine, and the merged result is
	// bit-identical for any shard count or worker placement. 0 keeps the
	// single-fold streaming campaign; shards=1 is a one-shard campaign
	// through the same block-merge layer (the reference for cross-K
	// comparisons). Sharding implies streaming and is budget-only (no
	// adaptive stopping targets).
	Shards int `json:"shards,omitempty"`
	// ShardBlock is the merge granularity of the shard plan
	// (0 = uq.DefaultShardBlockSize). It is part of the campaign identity:
	// changing it changes shard checkpoints and the merged bits.
	ShardBlock int `json:"shard_block,omitempty"`

	// Mode switches the campaign question. Empty is the default
	// moments/exceedance study; ModeFailureProbability answers
	// P(T_max ≥ critical_k) with a rare-event estimator and ignores the
	// sampling Method (the estimator drives its own germ-space sampling).
	Mode string `json:"mode,omitempty"`
	// Estimator picks the rare-event driver for ModeFailureProbability:
	// EstimatorSubset (default) or EstimatorImportance.
	Estimator string `json:"estimator,omitempty"`
	// P0 is the subset-simulation conditional probability per level
	// (0 = 0.1).
	P0 float64 `json:"p0,omitempty"`
	// LevelSamples is the subset-simulation per-level sample count N, also
	// the importance-sampling budget (0 = 2000). It must be a multiple of
	// the seed count round(P0·N).
	LevelSamples int `json:"level_samples,omitempty"`
	// MaxLevels bounds the subset-simulation level count (0 = 12).
	MaxLevels int `json:"max_levels,omitempty"`
	// MCMCStep is the modified-Metropolis component proposal standard
	// deviation (0 = 1).
	MCMCStep float64 `json:"mcmc_step,omitempty"`
	// ISShift is the importance-sampling mean shift applied to every germ
	// dimension (EstimatorImportance only).
	ISShift float64 `json:"is_shift,omitempty"`
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

// EffectiveRho returns ρ, defaulting to study.DefaultRho when unset.
func (u UQSpec) EffectiveRho() float64 {
	if u.Rho == nil {
		return study.DefaultRho
	}
	return *u.Rho
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

// Scenario is one declarative entry of a batch: a chip configuration, a
// transient-solve configuration and an uncertainty treatment.
type Scenario struct {
	// Name identifies the scenario in results; unique within a batch.
	Name string `json:"name"`
	// Description is free text carried into the results manifest.
	Description string `json:"description,omitempty"`
	// Chip declares geometry, drive, wires and ambient.
	Chip ChipSpec `json:"chip,omitempty"`
	// Sim declares the transient solve; zero end time / steps take the
	// paper's 50 s / 50 steps.
	Sim config.SimConfig `json:"sim,omitempty"`
	// UQ declares the uncertainty study; the zero value is deterministic.
	UQ UQSpec `json:"uq,omitempty"`
}

// withSimDefaults returns the scenario with the paper's transient horizon
// filled into unset Sim fields.
func (s Scenario) withSimDefaults() Scenario {
	if s.Sim.EndTimeS <= 0 {
		s.Sim.EndTimeS = 50
	}
	if s.Sim.NumSteps <= 0 {
		s.Sim.NumSteps = 50
	}
	return s
}

// Validate checks one scenario.
func (s Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario needs a name")
	}
	if err := s.Chip.Validate(); err != nil {
		return fmt.Errorf("scenario %q: chip: %w", s.Name, err)
	}
	if err := s.withSimDefaults().Sim.Validate(); err != nil {
		return fmt.Errorf("scenario %q: sim: %w", s.Name, err)
	}
	if err := s.UQ.Validate(); err != nil {
		return fmt.Errorf("scenario %q: uq: %w", s.Name, err)
	}
	return nil
}

// Batch is a named list of scenarios evaluated through one shared assembly
// cache.
type Batch struct {
	// Name labels the batch in manifests and job listings.
	Name string `json:"name,omitempty"`
	// Workers bounds scenario-level parallelism (0 = automatic).
	Workers int `json:"workers,omitempty"`
	// SampleWorkers bounds the per-scenario ensemble parallelism
	// (0 = automatic).
	SampleWorkers int `json:"sample_workers,omitempty"`
	// Scenarios is evaluated in order; results keep this order regardless
	// of scheduling.
	Scenarios []Scenario `json:"scenarios"`
}

// Validate checks the batch structurally: names, worker counts, and each
// scenario's declared solver knobs and uncertainty study (contradictory
// combinations like precision=mixed with precond=jacobi, or rare-event
// knobs without the failure_probability mode, fail submission with a 422
// instead of degrading silently at run time). Per-scenario physics/geometry
// errors (e.g. an unbuildable chip) are deliberately NOT caught here —
// they surface as that scenario's failure at run time, isolated from the
// rest of the batch.
func (b *Batch) Validate() error {
	if len(b.Scenarios) == 0 {
		return fmt.Errorf("scenario: batch has no scenarios")
	}
	if b.Workers < 0 || b.SampleWorkers < 0 {
		return fmt.Errorf("scenario: negative worker counts")
	}
	seen := make(map[string]bool, len(b.Scenarios))
	for i, s := range b.Scenarios {
		if s.Name == "" {
			return fmt.Errorf("scenario: entry %d has no name", i)
		}
		if seen[s.Name] {
			return fmt.Errorf("scenario: duplicate scenario name %q", s.Name)
		}
		seen[s.Name] = true
		if err := s.withSimDefaults().Sim.Validate(); err != nil {
			return fmt.Errorf("scenario %q: sim: %w", s.Name, err)
		}
		if err := s.UQ.Validate(); err != nil {
			return fmt.Errorf("scenario %q: uq: %w", s.Name, err)
		}
	}
	return nil
}

// ParseBatch decodes a batch from JSON, rejecting unknown fields so typos in
// scenario files fail loudly.
func ParseBatch(data []byte) (*Batch, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b Batch
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return &b, nil
}

// LoadBatch reads and decodes a batch file.
func LoadBatch(path string) (*Batch, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	b, err := ParseBatch(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// MarshalIndent renders the batch as formatted JSON (the on-disk scenario
// file format).
func (b *Batch) MarshalIndent() ([]byte, error) {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
