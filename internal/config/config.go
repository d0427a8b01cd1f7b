// Package config maps the transient-solve block ("sim") of the v1
// scenario format onto core.Options. The block itself, and its
// validation rules, are api.SimSpec.
package config

import (
	"etherm/api"
	"etherm/internal/core"
)

// SimConfig is the transient-solve block of a scenario.
type SimConfig = api.SimSpec

// CoreOptions materializes core.Options from the transient-solve block.
// With forEnsemble the unset fields start from core.FastOptions (weak
// staggered coupling, linearized radiation) instead of the strict defaults.
//
// Precond ict and ic0 name the thermal factorization; the electric
// operator always takes plain IC(0) under both. jacobi and none apply to
// both operators. Empty keeps the mode's default (ICT for ensembles via
// FastOptions, MIC0 otherwise), and a failed factorization falls back to
// Jacobi for the rest of the run. PrecondOmega relaxes the thermal MIC0
// factor: 0 keeps full compensation, negative selects plain IC(0).
// Precision, Deflation, DeflationBlock, PrecondRefresh and SolverWorkers
// are v1 fields accepted as no-ops (DESIGN.md §5b): CoreOptions ignores
// them, while api.SimSpec.Validate still applies their v1 rules.
func CoreOptions(s SimConfig, forEnsemble bool) core.Options {
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
	return o
}
