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
	"os"

	"etherm/api"
	"etherm/internal/chipmodel"
	"etherm/internal/core"
	"etherm/internal/material"
)

// The v1 scenario format is declared once, in package api; the engine
// refers to those types by these names.
type (
	// ChipSpec declares the package model of one scenario as a preset plus
	// overrides.
	ChipSpec = api.ChipSpec
	// UQSpec declares the uncertainty study of one scenario.
	UQSpec = api.UQSpec
	// Scenario is one declarative entry of a batch.
	Scenario = api.Scenario
	// ScenarioResult is the structured outcome of one scenario. Timing
	// fields (ElapsedS) are wall-clock and the only nondeterministic part;
	// everything else is bit-identical across repeated runs and worker
	// counts.
	ScenarioResult = api.ScenarioResult
	// RareLevel summarizes one subset-simulation level for results and SSE
	// progress.
	RareLevel = api.RareLevel
	// BatchResult is the deterministic aggregation of a batch run: the
	// structured manifest cmd/etbatch writes and cmd/etserver returns.
	BatchResult = api.BatchResult
)

// UQ methods, campaign modes and rare-event estimators of UQSpec.
const (
	MethodNone             = api.MethodNone
	MethodMonteCarlo       = api.MethodMonteCarlo
	MethodLHS              = api.MethodLHS
	MethodHalton           = api.MethodHalton
	MethodSobol            = api.MethodSobol
	MethodSobolOwen        = api.MethodSobolOwen
	MethodRQMC             = api.MethodRQMC
	MethodSmolyak          = api.MethodSmolyak
	ModeFailureProbability = api.ModeFailureProbability
	EstimatorSubset        = api.EstimatorSubset
	EstimatorImportance    = api.EstimatorImportance
)

// Materialize resolves a chip declaration into a concrete chipmodel.Spec.
func Materialize(c ChipSpec) (chipmodel.Spec, error) {
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

// coreOptions materializes core.Options from the transient-solve block.
// With forEnsemble the unset fields start from core.FastOptions (weak
// staggered coupling, linearized radiation) instead of the strict defaults.
//
// Precond ic0 (also the default) factorizes the thermal operator with MIC0
// and the electric one with plain IC(0); ict is a v1 alias of ic0, kept
// valid since the ICT thermal factor left the simulator. jacobi and none
// apply to both operators. A failed factorization falls back to Jacobi for
// the rest of the run. PrecondOmega relaxes the thermal MIC0 factor: 0
// keeps full compensation, negative selects plain IC(0).
// Precision, Deflation, DeflationBlock, PrecondRefresh and SolverWorkers
// are v1 fields accepted as no-ops (DESIGN.md §5b): coreOptions ignores
// them, while api.SimSpec.Validate still applies their v1 rules.
func coreOptions(s api.SimSpec, forEnsemble bool) core.Options {
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
	case "ict", "ic0":
		o.Precond = core.PrecondIC0
	case "jacobi":
		o.Precond = core.PrecondJacobi
	case "none":
		o.Precond = core.PrecondNone
	}
	if s.PrecondOmega != 0 {
		o.PrecondOmega = s.PrecondOmega
	}
	return o
}

// Batch is a named list of scenarios evaluated through one shared assembly
// cache. It is api.Batch under the engine's deep Validate; converting
// between the two is a plain type conversion.
type Batch api.Batch

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
		if err := s.WithSimDefaults().Sim.Validate(); err != nil {
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
