// Package config defines SimConfig, the transient-solve block ("sim") of
// the v1 scenario format, and its mapping onto core.Options.
package config

import (
	"fmt"

	"etherm/internal/core"
)

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
	// ict and ic0 name the thermal factorization; the electric operator
	// always takes plain IC(0) under both. jacobi and none apply to both
	// operators. Empty keeps the mode's default (ICT for ensembles via
	// FastOptions, MIC0 otherwise). A failed factorization falls back to
	// Jacobi for the rest of the run.
	Precond string `json:"precond,omitempty"`
	// Precision (float64 | mixed), Deflation, DeflationBlock and
	// PrecondRefresh are v1 fields accepted as no-ops (DESIGN.md §5b):
	// CoreOptions ignores them, while Validate still applies the v1 rules
	// (unknown precision, mixed or deflation over precond=jacobi/none, a
	// negative or orphan deflation_block, a negative precond_refresh), so
	// v1 documents keep their accept/reject outcome.
	Precision      string `json:"precision,omitempty"`
	Deflation      bool   `json:"deflation,omitempty"`
	DeflationBlock int    `json:"deflation_block,omitempty"`
	// PrecondOmega is the relaxation of the thermal MIC0 factor, in
	// [0, 1]; 0 keeps the default (1, full compensation), negative
	// selects plain IC(0).
	PrecondOmega float64 `json:"precond_omega,omitempty"`
	// PrecondRefresh was the v1 preconditioner lag ratio; a no-op now.
	PrecondRefresh float64 `json:"precond_refresh,omitempty"`
	// SolverWorkers enables the bit-identical parallel matvec/assembly path
	// inside each transient solve; 0 or 1 keeps the serial default.
	SolverWorkers int `json:"solver_workers,omitempty"`
}

// Validate checks the transient-solve block.
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
	if s.SolverWorkers > 0 {
		o.Workers = s.SolverWorkers
	}
	return o
}
