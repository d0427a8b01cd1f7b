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
	// precomputed Dirichlet elimination, and the cached preconditioner with
	// its lag-policy bookkeeping.
	wsE, wsT     *solver.Workspace
	dirE, dirT   *fit.DirichletApplier
	precE, precT precState

	// runStats points at the RunStats of the transient in flight so the
	// preconditioner lifecycle can be audited; nil outside Run.
	runStats *RunStats
}

// precState caches the preconditioner of one operator across solves. The
// factorization of the configured top tier is built once per operator
// matrix, numerically refreshed in place only when the lag policy triggers,
// and degraded — ICT → modified IC0 → plain IC0 → Jacobi — at most once
// per tier per operator, with the reason recorded.
type precState struct {
	mat      *sparse.CSR // operator matrix this state is bound to
	ict      *solver.CholPrec
	ic0      *solver.IC0Prec
	jac      *solver.JacobiPrec
	omega    float64 // current modified-IC relaxation (downgraded on failure)
	ictDead  bool    // ICT tier abandoned for this operator
	useJac   bool    // permanent fallback for this operator
	tier     string  // tier that will serve the upcoming solve
	reason   string  // why a tier was abandoned or downgraded
	refIters int     // CG iterations right after the last (re)factorization
	fresh    bool    // factorization was rebuilt for the upcoming solve
	pending  bool    // lag policy requested a refresh before the next solve
}

// current returns the live factorization of the highest surviving tier, or
// nil when the chain has not been built for this operator yet.
func (ps *precState) current() solver.Preconditioner {
	switch {
	case ps.ict != nil:
		return ps.ict
	case ps.ic0 != nil:
		return ps.ic0
	}
	return nil
}

// refreshCurrent refactorizes the live tier in place for the drifted values.
func (ps *precState) refreshCurrent(a *sparse.CSR) error {
	switch {
	case ps.ict != nil:
		return ps.ict.Refresh(a)
	case ps.ic0 != nil:
		return ps.ic0.Refresh(a)
	}
	return nil
}

// dropCurrent abandons the live tier after a failed refresh so buildChain
// rebuilds from the next tier down. (A failed IC0 refresh keeps its omega:
// buildChain retries the factorization from scratch at the same relaxation
// before downgrading, matching the build-time chain.)
func (ps *precState) dropCurrent() {
	switch {
	case ps.ict != nil:
		ps.ict = nil
		ps.ictDead = true
	case ps.ic0 != nil:
		ps.ic0 = nil
	}
}

// precondIterSlack is the additive headroom of the lag policy: refresh only
// when a solve exceeds ratio·refIters + slack iterations, so near-zero
// iteration counts (warm-started solves) don't trigger refresh storms.
const precondIterSlack = 4

// noteIters feeds a solve's iteration count into the lag policy.
func (ps *precState) noteIters(iters int, ratio float64) {
	if ps.fresh {
		ps.fresh = false
		ps.refIters = iters
		return
	}
	if ps.current() == nil || ps.useJac {
		return
	}
	if float64(iters) > ratio*float64(ps.refIters)+precondIterSlack {
		ps.pending = true
	}
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

// NumGridNodes returns the number of grid nodes.
func (s *Simulator) NumGridNodes() int { return s.nGrid }

// Problem returns the problem definition (treat as read-only).
func (s *Simulator) Problem() *Problem { return s.prob }

// Options returns the effective (defaulted) options.
func (s *Simulator) Options() Options { return s.opt }

// Wires returns the simulator's wires (a live slice owned by the coupling;
// use SetWireGeometry to modify).
func (s *Simulator) Wires() []bondwire.Wire { return s.coup.Wires }

// SetWireGeometry replaces the geometry of wire i (e.g. with a sampled
// uncertain length). The wire's segment topology is unchanged.
func (s *Simulator) SetWireGeometry(i int, g bondwire.Geometry) error {
	if i < 0 || i >= len(s.coup.Wires) {
		return fmt.Errorf("core: wire index %d out of range", i)
	}
	if err := g.Validate(); err != nil {
		return err
	}
	s.coup.Wires[i].Geom = g
	return nil
}

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
// zero potentials) and discards the cached preconditioner state, so the
// simulator can run another sample. The preconditioner reset matters for
// determinism: ensemble workers run different sample subsequences on the
// same cloned simulator, and a factorization (or lag-policy history) leaking
// from one sample into the next would make results depend on the worker
// split. With the reset, every Run starts from the identical solver state.
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

// Potentials returns the current DOF potential vector (live).
func (s *Simulator) Potentials() []float64 { return s.phi }

// preconditioner returns the cached preconditioner of the operator behind
// ps, building it on first use, refreshing the IC0 factorization in place
// when the lag policy has flagged drift, and falling back to Jacobi at most
// once per operator (the reason lands in RunStats).
func (s *Simulator) preconditioner(ps *precState, a *sparse.CSR) solver.Preconditioner {
	switch s.opt.Precond {
	case PrecondNone:
		ps.tier = tierNone
		return solver.IdentityPrec{}
	case PrecondJacobi:
		if ps.mat != a || ps.jac == nil {
			*ps = precState{mat: a, jac: solver.NewJacobi(a)}
		} else {
			ps.jac.Refresh(a)
		}
		ps.tier = tierJacobi
		return ps.jac
	default: // incomplete-factorization chain with lagged in-place refresh
		if ps.mat != a {
			*ps = precState{mat: a, omega: s.opt.PrecondOmega}
		}
		if ps.useJac {
			ps.jac.Refresh(a)
			ps.tier = tierJacobi
			return ps.jac
		}
		cur := ps.current()
		if cur == nil {
			return s.buildChain(ps, a)
		}
		if ps.pending {
			if err := ps.refreshCurrent(a); err != nil {
				// The refreshed values broke this tier; rebuild down the
				// degradation chain.
				ps.reason = err.Error()
				ps.dropCurrent()
				return s.buildChain(ps, a)
			}
			ps.pending = false
			ps.fresh = true
			if s.runStats != nil {
				s.runStats.PrecondRefreshes++
			}
		}
		return cur
	}
}

// noteDowngrade records one step down the degradation chain.
func (s *Simulator) noteDowngrade(ps *precState, err error) {
	ps.reason = err.Error()
	if s.runStats != nil {
		s.runStats.PrecondDowngrades++
		s.runStats.PrecondFallbackReason = ps.reason
	}
}

// buildChain factorizes the operator at the highest tier the options and
// this operator's earlier failures allow, degrading
// ICT → modified IC0 → plain IC0 → Jacobi.
func (s *Simulator) buildChain(ps *precState, a *sparse.CSR) solver.Preconditioner {
	if s.opt.Precond == PrecondICT && !ps.ictDead {
		ict, err := solver.NewICT(a, 0, 0)
		if err == nil {
			ps.ict = ict
			ps.tier = tierICT
			ps.pending, ps.fresh = false, true
			if s.runStats != nil {
				s.runStats.PrecondBuilds++
			}
			return ict
		}
		ps.ictDead = true
		s.noteDowngrade(ps, err)
	}
	ic, err := solver.NewMIC0(a, ps.omega)
	if err != nil && ps.omega != 0 {
		ps.omega = 0
		s.noteDowngrade(ps, err)
		ic, err = solver.NewIC0(a)
	}
	if err != nil {
		return s.fallbackJacobi(ps, a, err)
	}
	ps.ic0 = ic
	if ps.omega != 0 {
		ps.tier = tierMIC0
	} else {
		ps.tier = tierIC0
	}
	ps.pending = false
	ps.fresh = true
	if s.runStats != nil {
		s.runStats.PrecondBuilds++
	}
	return ic
}

// fallbackJacobi permanently switches one operator's preconditioning to
// Jacobi after a failed IC0 factorization, recording why.
func (s *Simulator) fallbackJacobi(ps *precState, a *sparse.CSR, err error) solver.Preconditioner {
	ps.ict, ps.ic0 = nil, nil
	ps.useJac = true
	ps.tier = tierJacobi
	ps.fresh = true
	ps.reason = err.Error()
	if ps.jac == nil {
		ps.jac = solver.NewJacobi(a)
	} else {
		ps.jac.Refresh(a)
	}
	if s.runStats != nil {
		s.runStats.PrecondFallbacks++
		s.runStats.PrecondFallbackReason = ps.reason
	}
	return ps.jac
}

// solveCG runs one preconditioned CG solve and feeds the outcome to the lag
// policy, the per-tier RunStats counters and the process-wide solve
// observer.
func (s *Simulator) solveCG(op string, ws *solver.Workspace, a *sparse.CSR, b, x []float64, ps *precState) (solver.Stats, error) {
	m := s.preconditioner(ps, a)
	opt := solver.Options{Tol: s.opt.LinTol, MaxIter: s.opt.LinMaxIter, Workers: s.opt.Workers}
	stats, err := solver.CGWith(ws, a, b, x, m, opt)
	ps.noteIters(stats.Iterations, s.opt.PrecondRefreshRatio)
	if s.runStats != nil {
		switch ps.tier {
		case tierICT:
			s.runStats.CGItersICT += stats.Iterations
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
	s.asm.EdgeConductancesWorkers(fit.Electric, T[:s.nGrid], s.condE[:s.nEdges], s.opt.Workers)
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
	s.asm.EdgeConductancesWorkers(fit.Thermal, Tk[:s.nGrid], s.condT[:s.nEdges], s.opt.Workers)
	s.coup.SegmentConductances(fit.Thermal, Tk, s.condT[s.nEdges:])
	s.opT.SetValues(s.condT)
}

// thermalResidualParts computes, at the temperatures Tk, the conduction term
// K(Tk)·Tk + boundary loss − Q into dst. Used for the explicit part of the
// θ-scheme and for energy audits.
func (s *Simulator) thermalResidualParts(Tk, q, dst []float64) {
	s.asm.EdgeConductancesWorkers(fit.Thermal, Tk[:s.nGrid], s.condT[:s.nEdges], s.opt.Workers)
	s.coup.SegmentConductances(fit.Thermal, Tk, s.condT[s.nEdges:])
	fit.ApplyLaplacian(s.branches, s.condT, Tk, dst)
	fit.RobinLoss(Tk[:s.nGrid], s.bndAreas[:s.nGrid], s.prob.ThermalBC, dst)
	for i := range dst {
		dst[i] -= q[i]
	}
}
