package core

import (
	"fmt"

	"etherm/internal/bondwire"
	"etherm/internal/fit"
	"etherm/internal/solver"
	"etherm/internal/sparse"
)

// Simulator solves the transient coupled electrothermal problem. A Simulator
// owns mutable per-run buffers and may be Cloned cheaply for parallel Monte
// Carlo workers: clones share the immutable mesh/material assembly but have
// independent wires, operators and state.
type Simulator struct {
	prob *Problem
	opt  Options

	asm  *fit.Assembler
	coup *bondwire.Coupling

	nGrid, nEdges, nDOF int

	branches []fit.Branch // grid edges followed by wire segments
	opE, opT *fit.Operator

	massDiag []float64 // lumped heat capacity per DOF
	bndAreas []float64 // exposed boundary area per DOF (zero beyond grid)

	// Work buffers (length nDOF unless noted).
	condE, condT   []float64 // per-branch conductances
	phi, T         []float64
	q, rhs         []float64
	bndDiag, bndRh []float64 // grid-length boundary linearization
	tPrev, tIter   []float64
	tNext, prev2   []float64 // step-loop iterates, hoisted out of the loop
	explicit       []float64 // explicit part for θ/BDF2 schemes
	scratch        []float64

	// Allocation-free solver state, one per operator: CG workspace, the
	// precomputed Dirichlet elimination, and the preconditioner of the run.
	wsE, wsT     *solver.Workspace
	dirE, dirT   *fit.DirichletApplier
	precE, precT precState

	// runStats points at the RunStats of the transient in flight so the
	// preconditioner lifecycle can be audited; nil outside Run.
	runStats *RunStats
}

// precState holds the preconditioner of one operator for the run in flight.
// It is built at the operator's first solve and serves every later solve of
// the run; only Jacobi re-reads the diagonal on each solve.
type precState struct {
	mat  *sparse.CSR           // operator matrix the preconditioner was built for
	m    solver.Preconditioner // live preconditioner
	jac  *solver.JacobiPrec    // set when Jacobi serves, so each solve refreshes it
	tier string                // tier that serves the solves
}

// NewSimulator validates the problem and prepares operators and buffers.
func NewSimulator(p *Problem, opt Options) (*Simulator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	asm, err := fit.NewAssembler(p.Grid, p.CellMat, p.Lib)
	if err != nil {
		return nil, err
	}
	return newWithAssembler(p, opt, asm)
}

// NewSimulatorShared builds a simulator reusing an existing assembler (which
// must have been built for the same grid/materials). Monte Carlo drivers use
// this to share the mesh assembly across workers.
func NewSimulatorShared(p *Problem, opt Options, asm *fit.Assembler) (*Simulator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if asm.Grid != p.Grid {
		return nil, fmt.Errorf("core: assembler was built for a different grid")
	}
	return newWithAssembler(p, opt, asm)
}

func newWithAssembler(p *Problem, opt Options, asm *fit.Assembler) (*Simulator, error) {
	opt = opt.withDefaults()
	coup, err := bondwire.NewCoupling(p.Grid.NumNodes(), p.Wires)
	if err != nil {
		return nil, err
	}
	s := &Simulator{
		prob:   p,
		opt:    opt,
		asm:    asm,
		coup:   coup,
		nGrid:  p.Grid.NumNodes(),
		nEdges: p.Grid.NumEdges(),
		nDOF:   coup.TotalDOF,
	}

	// Merged branch list: grid edges first, then wire segments.
	s.branches = make([]fit.Branch, 0, s.nEdges+coup.NumSegments())
	for e := 0; e < s.nEdges; e++ {
		n1, n2 := p.Grid.EdgeNodes(e)
		s.branches = append(s.branches, fit.Branch{N1: n1, N2: n2})
	}
	s.branches = append(s.branches, coup.Branches()...)

	if s.opE, err = fit.NewOperator(s.nDOF, s.branches); err != nil {
		return nil, err
	}
	if s.opT, err = fit.NewOperator(s.nDOF, s.branches); err != nil {
		return nil, err
	}

	s.massDiag = make([]float64, s.nDOF)
	copy(s.massDiag, asm.MassDiag())
	copy(s.massDiag[s.nGrid:], coup.MassDiagExtra())

	s.bndAreas = make([]float64, s.nDOF)
	copy(s.bndAreas, asm.BoundaryAreasMasked(p.ThermalBC))

	nb := len(s.branches)
	s.condE = make([]float64, nb)
	s.condT = make([]float64, nb)
	s.phi = make([]float64, s.nDOF)
	s.T = make([]float64, s.nDOF)
	s.q = make([]float64, s.nDOF)
	s.rhs = make([]float64, s.nDOF)
	s.bndDiag = make([]float64, s.nDOF)
	s.bndRh = make([]float64, s.nDOF)
	s.tPrev = make([]float64, s.nDOF)
	s.tIter = make([]float64, s.nDOF)
	s.tNext = make([]float64, s.nDOF)
	s.prev2 = make([]float64, s.nDOF)
	s.explicit = make([]float64, s.nDOF)
	s.scratch = make([]float64, s.nDOF)

	s.wsE = solver.NewWorkspace(s.nDOF)
	s.wsT = solver.NewWorkspace(s.nDOF)
	if s.dirE, err = fit.NewDirichletApplier(s.opE.Matrix(), p.ElecDirichlet...); err != nil {
		return nil, err
	}
	if s.dirT, err = fit.NewDirichletApplier(s.opT.Matrix(), p.ThermDirichlet...); err != nil {
		return nil, err
	}

	s.ResetState()
	return s, nil
}

// Clone returns an independent simulator sharing the immutable mesh assembly
// (grid, material blends, capacities) but with its own wires, operators and
// state. Intended for parallel workers.
func (s *Simulator) Clone() (*Simulator, error) {
	p := *s.prob
	p.Wires = append([]bondwire.Wire(nil), s.coup.Wires...)
	return newWithAssembler(&p, s.opt, s.asm)
}

// NumDOF returns the total number of unknowns (grid nodes + wire internals).
func (s *Simulator) NumDOF() int { return s.nDOF }

// Problem returns the problem definition (treat as read-only).
func (s *Simulator) Problem() *Problem { return s.prob }

// Options returns the effective (defaulted) options.
func (s *Simulator) Options() Options { return s.opt }

// Wires returns the simulator's wires (a live slice owned by the coupling;
// use SetWireElongation to modify).
func (s *Simulator) Wires() []bondwire.Wire { return s.coup.Wires }

// SetWireElongation sets the relative elongation δ of wire i, keeping its
// direct distance and diameter: L = d/(1−δ) per the paper's definition.
func (s *Simulator) SetWireElongation(i int, delta float64) error {
	if i < 0 || i >= len(s.coup.Wires) {
		return fmt.Errorf("core: wire index %d out of range", i)
	}
	old := s.coup.Wires[i].Geom
	g, err := bondwire.FromElongation(old.Direct, delta, old.Diameter)
	if err != nil {
		return err
	}
	s.coup.Wires[i].Geom = g
	return nil
}

// ResetState restores the initial condition (uniform initial temperature,
// zero potentials) and discards the preconditioners, so the simulator can
// run another sample. The preconditioner reset matters for determinism:
// ensemble workers run different sample subsequences on the same cloned
// simulator, and a factorization leaking from one sample into the next
// would make results depend on the worker split. With the reset, every Run
// starts from the identical solver state.
func (s *Simulator) ResetState() {
	t0 := s.prob.InitTemperature()
	for i := range s.T {
		s.T[i] = t0
	}
	for i := range s.phi {
		s.phi[i] = 0
	}
	s.precE = precState{}
	s.precT = precState{}
}

// Temperatures returns the current DOF temperature vector (live; copy before
// modifying).
func (s *Simulator) Temperatures() []float64 { return s.T }

// preconditioner returns the preconditioner of the operator behind ps,
// building it at the operator's first solve of the run. Under the
// factorization mode the electric operator always takes plain IC(0): MIC0
// breaks down on the floating copper islands of every chip mesh coarser
// than 0.25 mm. The thermal operator takes MIC0 with PrecondOmega (plain
// IC(0) when it is 0). A failed build falls back to Jacobi for the rest of
// the run, with the reason in RunStats.
func (s *Simulator) preconditioner(ps *precState, a *sparse.CSR, electric bool) solver.Preconditioner {
	if ps.mat == a {
		if ps.jac != nil {
			ps.jac.Refresh(a)
		}
		return ps.m
	}
	*ps = precState{mat: a}
	var err error
	switch {
	case s.opt.Precond == PrecondNone:
		ps.m, ps.tier = solver.IdentityPrec{}, tierNone
		return ps.m
	case s.opt.Precond == PrecondJacobi:
		ps.jac = solver.NewJacobi(a)
		ps.m, ps.tier = ps.jac, tierJacobi
		return ps.m
	case electric || s.opt.PrecondOmega == 0:
		ps.m, err = solver.NewIC0(a)
		ps.tier = tierIC0
	default:
		ps.m, err = solver.NewMIC0(a, s.opt.PrecondOmega)
		ps.tier = tierMIC0
	}
	if err == nil {
		if s.runStats != nil {
			s.runStats.PrecondBuilds++
		}
		return ps.m
	}
	ps.jac = solver.NewJacobi(a)
	ps.m, ps.tier = ps.jac, tierJacobi
	if s.runStats != nil {
		s.runStats.PrecondFallbacks++
		s.runStats.PrecondFallbackReason = err.Error()
	}
	return ps.m
}

// solveCG runs one preconditioned CG solve and reports it to the per-tier
// RunStats counters and the process-wide solve observer.
func (s *Simulator) solveCG(op string, ws *solver.Workspace, a *sparse.CSR, b, x []float64, ps *precState) (solver.Stats, error) {
	m := s.preconditioner(ps, a, op == "electric")
	opt := solver.Options{Tol: s.opt.LinTol, MaxIter: s.opt.LinMaxIter}
	stats, err := solver.CGWith(ws, a, b, x, m, opt)
	if s.runStats != nil {
		switch ps.tier {
		case tierMIC0:
			s.runStats.CGItersMIC0 += stats.Iterations
		case tierIC0:
			s.runStats.CGItersIC0 += stats.Iterations
		case tierJacobi:
			s.runStats.CGItersJacobi += stats.Iterations
		case tierNone:
			s.runStats.CGItersNone += stats.Iterations
		}
	}
	notifySolve(op, ps.tier, stats.Iterations)
	return stats, err
}

// SolveElectric assembles and solves the stationary current problem at the
// DOF temperatures T, leaving the potentials in s.phi (warm-started). The
// per-branch electric conductances remain in s.condE for Joule evaluation.
func (s *Simulator) SolveElectric(T []float64) (solver.Stats, error) {
	s.asm.EdgeConductances(fit.Electric, T[:s.nGrid], s.condE[:s.nEdges])
	s.coup.SegmentConductances(fit.Electric, T, s.condE[s.nEdges:])
	s.opE.SetValues(s.condE)
	a := s.opE.Matrix()
	for i := range s.rhs {
		s.rhs[i] = 0
	}
	s.dirE.Apply(a, s.rhs)
	stats, err := s.solveCG("electric", s.wsE, a, s.rhs, s.phi, &s.precE)
	if err != nil {
		return stats, fmt.Errorf("core: electric solve: %w", err)
	}
	return stats, nil
}

// jouleInto accumulates the Joule power vector at the current potentials and
// conductances (s.phi, s.condE) into dst, returning field and wire totals.
// The temperatures are those at which s.condE was evaluated.
func (s *Simulator) jouleInto(T, dst []float64) (fieldP, wireP float64) {
	for i := range dst {
		dst[i] = 0
	}
	if s.opt.Joule == CellAverage {
		fieldP = s.asm.JouleCellAverage(s.phi[:s.nGrid], T[:s.nGrid], dst[:s.nGrid])
	} else {
		fit.JouleEdgeSplit(s.branches[:s.nEdges], s.condE[:s.nEdges], s.phi, dst)
		fieldP = fit.TotalPower(s.branches[:s.nEdges], s.condE[:s.nEdges], s.phi)
	}
	// Wire self-heating: the ½/½ split onto the wire chain nodes is exactly
	// the paper's X_j redistribution for single-segment wires.
	fit.JouleEdgeSplit(s.branches[s.nEdges:], s.condE[s.nEdges:], s.phi, dst)
	wireP = fit.TotalPower(s.branches[s.nEdges:], s.condE[s.nEdges:], s.phi)
	return fieldP, wireP
}

// assembleThermal evaluates the thermal conductances at Tk and stamps the
// Laplacian into s.opT.
func (s *Simulator) assembleThermal(Tk []float64) {
	s.asm.EdgeConductances(fit.Thermal, Tk[:s.nGrid], s.condT[:s.nEdges])
	s.coup.SegmentConductances(fit.Thermal, Tk, s.condT[s.nEdges:])
	s.opT.SetValues(s.condT)
}

// thermalResidualParts computes, at the temperatures Tk, the conduction term
// K(Tk)·Tk + boundary loss − Q into dst. Used for the explicit part of the
// θ-scheme and for energy audits.
func (s *Simulator) thermalResidualParts(Tk, q, dst []float64) {
	s.asm.EdgeConductances(fit.Thermal, Tk[:s.nGrid], s.condT[:s.nEdges])
	s.coup.SegmentConductances(fit.Thermal, Tk, s.condT[s.nEdges:])
	fit.ApplyLaplacian(s.branches, s.condT, Tk, dst)
	fit.RobinLoss(Tk[:s.nGrid], s.bndAreas[:s.nGrid], s.prob.ThermalBC, dst)
	for i := range dst {
		dst[i] -= q[i]
	}
}
