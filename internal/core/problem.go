// Package core implements the paper's primary contribution: the transient
// coupled electrothermal field simulation with lumped bonding-wire models
// embedded as point-to-point electrothermal conductances in the FIT
// discretization. It solves, per implicit-Euler time step,
//
//	S̃ Mσ(T) S̃ᵀ Φ + Σ_j P_j G_el,j(T_bw,j) P_jᵀ Φ = 0
//	Mρc Ṫ + S̃ Mλ(T) S̃ᵀ T + Σ_j P_j G_th,j(T_bw,j) P_jᵀ T = Q(T, Φ)
//
// with Q collecting field Joule heating, convective/radiative boundary
// exchange and the bonding-wire self-heating (eqs. 3–4 of the paper plus the
// wire stamps of section III-B).
package core

import (
	"fmt"

	"etherm/internal/bondwire"
	"etherm/internal/fit"
	"etherm/internal/grid"
	"etherm/internal/material"
)

// Problem is the discrete electrothermal problem definition: geometry,
// materials, bonding wires and boundary conditions.
type Problem struct {
	Grid    *grid.Grid
	CellMat []int // material ID per primary cell
	Lib     *material.Library
	Wires   []bondwire.Wire

	// ElecDirichlet lists the PEC contact sets with prescribed potentials.
	ElecDirichlet []fit.Dirichlet
	// ThermDirichlet optionally pins node temperatures (mostly for
	// verification problems; the paper's example uses Robin only).
	ThermDirichlet []fit.Dirichlet
	// ThermalBC is the convection+radiation exchange on the domain boundary.
	ThermalBC fit.RobinBC
	// TInit is the uniform initial temperature; zero means ThermalBC.TInf.
	TInit float64
}

// Validate checks the problem for consistency.
func (p *Problem) Validate() error {
	if p.Grid == nil {
		return fmt.Errorf("core: problem has no grid")
	}
	if p.Lib == nil {
		return fmt.Errorf("core: problem has no material library")
	}
	if len(p.CellMat) != p.Grid.NumCells() {
		return fmt.Errorf("core: cellMat has %d entries for %d cells", len(p.CellMat), p.Grid.NumCells())
	}
	n := p.Grid.NumNodes()
	for i, d := range p.ElecDirichlet {
		if err := d.Validate(n); err != nil {
			return fmt.Errorf("core: electric Dirichlet set %d: %w", i, err)
		}
	}
	for i, d := range p.ThermDirichlet {
		if err := d.Validate(n); err != nil {
			return fmt.Errorf("core: thermal Dirichlet set %d: %w", i, err)
		}
	}
	if err := p.ThermalBC.Validate(); err != nil {
		return err
	}
	for i, w := range p.Wires {
		if err := w.Validate(n); err != nil {
			return fmt.Errorf("core: wire %d: %w", i, err)
		}
	}
	if p.TInit < 0 {
		return fmt.Errorf("core: negative initial temperature %g", p.TInit)
	}
	return nil
}

// InitTemperature returns the effective initial temperature.
func (p *Problem) InitTemperature() float64 {
	if p.TInit > 0 {
		return p.TInit
	}
	return p.ThermalBC.TInf
}

// CouplingMode selects how the electric and thermal sub-problems exchange
// data within one time step.
type CouplingMode int

// Coupling modes.
const (
	// StrongCoupling iterates electric solve → Joule → thermal solve until
	// the wire/node temperatures stop changing (Gauss–Seidel multiphysics).
	StrongCoupling CouplingMode = iota
	// WeakCoupling performs a single staggered pass per step: the electric
	// problem sees the temperatures of the previous step only.
	WeakCoupling
)

func (m CouplingMode) String() string {
	if m == WeakCoupling {
		return "weak"
	}
	return "strong"
}

// NonlinearMode selects the treatment of the temperature-dependent
// coefficients and the radiation boundary term in the thermal step.
type NonlinearMode int

// Nonlinear solve modes.
const (
	// Picard lags the coefficients: each inner iteration assembles
	// K(T^k) and the secant radiation coefficient and solves the SPD system.
	Picard NonlinearMode = iota
	// NewtonLinearized additionally uses the tangent (4εσT³) linearization of
	// the radiation term, converging faster near the solution.
	NewtonLinearized
)

func (m NonlinearMode) String() string {
	if m == NewtonLinearized {
		return "newton"
	}
	return "picard"
}

// Integrator selects the time discretization.
type Integrator int

// Time integrators.
const (
	// ImplicitEuler is the paper's scheme (first order, L-stable).
	ImplicitEuler Integrator = iota
	// Trapezoidal is the Crank–Nicolson scheme (second order, A-stable).
	Trapezoidal
	// BDF2 is the two-step backward differentiation formula (second order,
	// L-stable); the first step falls back to implicit Euler.
	BDF2
)

func (i Integrator) String() string {
	switch i {
	case Trapezoidal:
		return "trapezoidal"
	case BDF2:
		return "bdf2"
	default:
		return "implicit-euler"
	}
}

// JouleScheme selects the redistribution of field Joule power onto nodes.
type JouleScheme int

// Joule redistribution schemes.
const (
	// EdgeSplit assigns each branch power g(Δφ)² half to each terminal;
	// exactly energy conserving.
	EdgeSplit JouleScheme = iota
	// CellAverage is the paper's variant: interpolate E to cell midpoints,
	// evaluate σ|E|² per cell and average back to nodes.
	CellAverage
)

func (s JouleScheme) String() string {
	if s == CellAverage {
		return "cell-average"
	}
	return "edge-split"
}

// Preconditioner selection for the inner CG solves.
type Precond int

// Preconditioner kinds. Under the factorization mode, PrecondIC0, both
// operators take a zero-fill incomplete Cholesky factor: plain IC(0) on the
// electric operator and MIC0 on the thermal one. Each factor is built at its
// operator's first solve and serves the whole run; a failed build falls back
// to Jacobi, with the reason recorded in RunStats.
const (
	// PrecondIC0 factorizes the thermal operator with modified incomplete
	// Cholesky with zero fill (MIC0, or plain IC0 for PrecondOmega < 0). It
	// is the default of every run, strict and FastOptions alike.
	PrecondIC0 Precond = iota
	// PrecondJacobi uses the inverse diagonal on both operators.
	PrecondJacobi
	// PrecondNone runs plain CG on both operators.
	PrecondNone
)

func (p Precond) String() string {
	switch p {
	case PrecondJacobi:
		return "jacobi"
	case PrecondNone:
		return "none"
	default:
		return "ic0"
	}
}

// Options controls the transient solve. The zero value is completed by
// withDefaults to the paper's Table II settings where applicable.
type Options struct {
	EndTime  float64 // default 50 s
	NumSteps int     // default 50 (51 time points, as in the paper)

	Coupling        CouplingMode
	MaxCouplingIter int     // default 8 (strong coupling)
	CouplingTol     float64 // K, default 1e-4

	Nonlinear     NonlinearMode
	MaxNonlinIter int     // default 25
	NonlinTol     float64 // K, default 1e-6

	TimeIntegrator Integrator
	Joule          JouleScheme

	// LinTol is the CG relative-residual target. The strict default is
	// 1e-10 under the default (MIC0 thermal) preconditioner: the extra
	// digit costs fewer iterations than the pre-MIC 1e-9 did, and it keeps
	// the energy-balance audit an order of magnitude inside its bound.
	// Explicit PrecondJacobi/PrecondNone keep the 1e-9 default — the extra
	// digit is only cheap with a strong preconditioner. FastOptions relaxes
	// it to 1e-8 for ensembles, on the same MIC0 factor; the Fig. 7
	// campaign's E_max moves by about 1e-4 K between 1e-8 and 1e-7.
	LinTol     float64
	LinMaxIter int // default 4000
	Precond    Precond

	// PrecondOmega is the modified-IC relaxation ω ∈ [0, 1] of the thermal
	// MIC0 factor under PrecondIC0 (Gustafsson diagonal compensation of
	// dropped fill). ω = 1 — the default, selected by leaving the field
	// zero — makes the factor exact on constant vectors, cutting CG
	// iterations ~2–3× on the near-uniform FIT fields. Set a negative value
	// for the plain, uncompensated IC(0). It does not shape the electric
	// factor, which is always plain IC(0).
	PrecondOmega float64

	// RecordFieldEvery stores the full grid temperature field every k-th
	// step (0 disables; the final field is always kept).
	RecordFieldEvery int
}

// FastOptions returns options tuned for ensemble (Monte Carlo) runs: weak
// staggered coupling, tangent-linearized radiation and mildly relaxed
// tolerances. On the chip example these settings reproduce the
// strong-coupling solution within a few hundredths of a kelvin at roughly a
// third of the cost (see the coupling ablation bench). The preconditioner
// is the default one: MIC0 on the thermal operator, as in strict runs.
func FastOptions() Options {
	return Options{
		Coupling:      WeakCoupling,
		Nonlinear:     NewtonLinearized,
		NonlinTol:     2e-5,
		MaxNonlinIter: 8,
		LinTol:        1e-8,
	}
}

func (o Options) withDefaults() Options {
	if o.EndTime <= 0 {
		o.EndTime = 50
	}
	if o.NumSteps <= 0 {
		o.NumSteps = 50
	}
	if o.MaxCouplingIter <= 0 {
		o.MaxCouplingIter = 8
	}
	if o.CouplingTol <= 0 {
		o.CouplingTol = 1e-4
	}
	if o.MaxNonlinIter <= 0 {
		o.MaxNonlinIter = 25
	}
	if o.NonlinTol <= 0 {
		o.NonlinTol = 1e-6
	}
	if o.LinTol <= 0 {
		if o.Precond == PrecondIC0 {
			o.LinTol = 1e-10
		} else {
			o.LinTol = 1e-9
		}
	}
	if o.LinMaxIter <= 0 {
		o.LinMaxIter = 4000
	}
	switch {
	case o.PrecondOmega == 0:
		o.PrecondOmega = 1
	case o.PrecondOmega < 0:
		o.PrecondOmega = 0
	case o.PrecondOmega > 1:
		o.PrecondOmega = 1
	}
	return o
}
