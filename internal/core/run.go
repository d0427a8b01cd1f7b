package core

import (
	"fmt"
	"math"

	"etherm/internal/fit"
)

// RunStats aggregates solver work over a transient run.
type RunStats struct {
	ElecSolves            int
	ThermSolves           int
	ElecCGIters           int
	ThermCGIters          int
	CouplingIters         int
	CouplingNonConverged  int
	NonlinIters           int
	NonlinNonConverged    int
	MaxEnergyImbalance    float64 // max over steps of |dE/dt + P_out − P_in| / max(P_in, 1e-30)
	FinalElecPower        float64
	FinalBoundaryLoss     float64
	FinalHottestWireIndex int

	// Preconditioner lifecycle: factorizations built (one per operator
	// per run) and falls back to Jacobi after a failed build, with the
	// reason of the most recent one (normally none happen and it stays
	// empty). PrecondRefreshes is always 0: a factor serves its whole run
	// unrefreshed. The field stays because the benchmark harness reads it.
	PrecondBuilds         int
	PrecondRefreshes      int
	PrecondFallbacks      int
	PrecondFallbackReason string `json:",omitempty"`

	// CG iterations split by the preconditioner tier that served each solve
	// (both operators combined). Under the factorization mode the electric
	// iterations land in IC0 and the thermal ones in MIC0 (IC0 when
	// PrecondOmega opts out); anything in Jacobi quantifies what a failed
	// build cost. Fixed fields, not a map, so RunStats stays comparable
	// with ==.
	CGItersMIC0   int `json:",omitempty"`
	CGItersIC0    int `json:",omitempty"`
	CGItersJacobi int `json:",omitempty"`
	CGItersNone   int `json:",omitempty"`
}

// Result holds the transient solution history. Index 0 of every time series
// is the initial state at t = 0.
type Result struct {
	Times       []float64
	WireTemp    [][]float64 // [time][wire] end-point average T_bw (eq. 5)
	WireMaxTemp [][]float64 // [time][wire] max over the wire's DOF chain
	WirePower   [][]float64 // [time][wire] Joule power in the wire, W

	FieldPower      []float64 // Joule power in the field (grid), W
	WirePowerTotal  []float64 // Joule power in all wires, W
	BoundaryLoss    []float64 // convective+radiative outflow, W
	EnergyImbalance []float64 // relative energy-balance defect per step

	FinalField []float64         // grid temperatures at the end time
	FinalPhi   []float64         // grid potentials at the end time
	Snapshots  map[int][]float64 // step index → grid temperature copy

	Stats RunStats

	// wireBack is the single backing array behind the WireTemp, WireMaxTemp
	// and WirePower rows, allocated once per run.
	wireBack []float64
}

// NumWires returns the number of wires in the result.
func (r *Result) NumWires() int {
	if len(r.WireTemp) == 0 {
		return 0
	}
	return len(r.WireTemp[0])
}

// HottestWire returns the wire index with the highest final temperature.
func (r *Result) HottestWire() int {
	last := len(r.Times) - 1
	best, bestT := 0, math.Inf(-1)
	for j := 0; j < r.NumWires(); j++ {
		if v := r.WireTemp[last][j]; v > bestT {
			best, bestT = j, v
		}
	}
	return best
}

// MaxWireTempAt returns max_j T_bw,j at time index t.
func (r *Result) MaxWireTempAt(t int) float64 {
	m := math.Inf(-1)
	for _, v := range r.WireTemp[t] {
		if v > m {
			m = v
		}
	}
	return m
}

// Run executes the transient coupled simulation from the initial state.
func (s *Simulator) Run() (*Result, error) {
	s.ResetState()
	opt := s.opt
	nSteps := opt.NumSteps
	dt := opt.EndTime / float64(nSteps)
	nw := len(s.coup.Wires)

	res := &Result{
		Times:           make([]float64, 0, nSteps+1),
		WireTemp:        make([][]float64, 0, nSteps+1),
		WireMaxTemp:     make([][]float64, 0, nSteps+1),
		WirePower:       make([][]float64, 0, nSteps+1),
		FieldPower:      make([]float64, 0, nSteps+1),
		WirePowerTotal:  make([]float64, 0, nSteps+1),
		BoundaryLoss:    make([]float64, 0, nSteps+1),
		EnergyImbalance: make([]float64, 0, nSteps+1),
		Snapshots:       make(map[int][]float64),

		// One backing array per wire series instead of three slices per
		// recorded step; record slices rows out of these.
		wireBack: make([]float64, 3*(nSteps+1)*nw),
	}
	s.runStats = &res.Stats
	defer func() { s.runStats = nil }()

	// Initial state: record wire temperatures and the instantaneous electric
	// power at the initial temperature.
	if st, err := s.SolveElectric(s.T); err == nil {
		res.Stats.ElecSolves++
		res.Stats.ElecCGIters += st.Iterations
	} else {
		return nil, err
	}
	fieldP, wireP := s.jouleInto(s.T, s.q)
	for i := range s.scratch {
		s.scratch[i] = 0
	}
	pOut0 := fit.RobinLoss(s.T[:s.nGrid], s.bndAreas[:s.nGrid], s.prob.ThermalBC, s.scratch)
	s.record(res, 0, 0, fieldP, wireP, pOut0, nw)

	prev2 := s.prev2 // T_{n-1} for BDF2
	for i := range prev2 {
		prev2[i] = 0
	}
	havePrev2 := false

	// Explicit part for the trapezoidal rule: K(T_n)T_n + q_bnd(T_n) − Q_n.
	if opt.TimeIntegrator == Trapezoidal {
		s.thermalResidualParts(s.T, s.q, s.explicit)
	}

	for n := 1; n <= nSteps; n++ {
		copy(s.tPrev, s.T)

		integ := opt.TimeIntegrator
		if integ == BDF2 && !havePrev2 {
			integ = ImplicitEuler // BDF2 startup step
		}

		// Coupling loop: electric solve → Joule → thermal step.
		var couplingErr error
		converged := false
		guess := s.T // s.T holds the current estimate of T_{n+1}
		for c := 0; c < opt.MaxCouplingIter; c++ {
			st, err := s.SolveElectric(guess)
			if err != nil {
				couplingErr = err
				break
			}
			res.Stats.ElecSolves++
			res.Stats.ElecCGIters += st.Iterations

			fieldP, wireP = s.jouleInto(guess, s.q)

			copy(s.tIter, guess)
			if err := s.thermalStep(integ, dt, prev2, res); err != nil {
				couplingErr = err
				break
			}
			diff := maxAbsDiff(s.tIter, guess)
			copy(s.T, s.tIter)
			res.Stats.CouplingIters++
			if opt.Coupling == WeakCoupling {
				converged = true
				break
			}
			if diff < opt.CouplingTol {
				converged = true
				break
			}
		}
		if couplingErr != nil {
			return nil, fmt.Errorf("core: step %d (t=%g s): %w", n, float64(n)*dt, couplingErr)
		}
		if !converged && opt.Coupling == StrongCoupling {
			res.Stats.CouplingNonConverged++
		}

		// Energy audit for the implicit Euler branch: dE/dt + P_out − P_in.
		dEdt := 0.0
		for i := 0; i < s.nDOF; i++ {
			dEdt += s.massDiag[i] * (s.T[i] - s.tPrev[i]) / dt
		}
		for i := range s.scratch {
			s.scratch[i] = 0
		}
		pOut := fit.RobinLoss(s.T[:s.nGrid], s.bndAreas[:s.nGrid], s.prob.ThermalBC, s.scratch)
		pIn := fieldP + wireP
		imb := math.Abs(dEdt+pOut-pIn) / math.Max(pIn, 1e-30)
		if integ != ImplicitEuler {
			imb = 0 // the audit identity holds for implicit Euler only
		}
		if imb > res.Stats.MaxEnergyImbalance {
			res.Stats.MaxEnergyImbalance = imb
		}

		// History bookkeeping.
		copy(prev2, s.tPrev)
		havePrev2 = true
		if opt.TimeIntegrator == Trapezoidal {
			s.thermalResidualParts(s.T, s.q, s.explicit)
		}

		s.record(res, float64(n)*dt, imb, fieldP, wireP, pOut, nw)
		if opt.RecordFieldEvery > 0 && n%opt.RecordFieldEvery == 0 {
			res.Snapshots[n] = append([]float64(nil), s.T[:s.nGrid]...)
		}
	}

	res.FinalField = append([]float64(nil), s.T[:s.nGrid]...)
	res.FinalPhi = append([]float64(nil), s.phi[:s.nGrid]...)
	res.Stats.FinalElecPower = res.FieldPower[len(res.FieldPower)-1] + res.WirePowerTotal[len(res.WirePowerTotal)-1]
	res.Stats.FinalBoundaryLoss = res.BoundaryLoss[len(res.BoundaryLoss)-1]
	res.Stats.FinalHottestWireIndex = res.HottestWire()
	return res, nil
}

func (s *Simulator) record(res *Result, t, imb, fieldP, wireP, pOut float64, nw int) {
	res.Times = append(res.Times, t)
	base := 3 * nw * (len(res.Times) - 1)
	wt := res.wireBack[base : base+nw : base+nw]
	wmax := res.wireBack[base+nw : base+2*nw : base+2*nw]
	wp := res.wireBack[base+2*nw : base+3*nw : base+3*nw]
	for j := 0; j < nw; j++ {
		wt[j] = s.coup.WireTemperature(j, s.T)
		wmax[j] = s.coup.WireMaxTemperature(j, s.T)
		wp[j] = s.coup.WirePower(j, s.phi, s.T)
	}
	res.WireTemp = append(res.WireTemp, wt)
	res.WireMaxTemp = append(res.WireMaxTemp, wmax)
	res.WirePower = append(res.WirePower, wp)
	res.FieldPower = append(res.FieldPower, fieldP)
	res.WirePowerTotal = append(res.WirePowerTotal, wireP)
	res.BoundaryLoss = append(res.BoundaryLoss, pOut)
	res.EnergyImbalance = append(res.EnergyImbalance, imb)
}

// thermalStep advances s.tIter (initialized to the coupling guess) to the
// solution of the nonlinear thermal system for one step of the selected
// integrator, holding the Joule vector s.q fixed. On return s.tIter holds
// T_{n+1}; s.tPrev holds T_n; prev2 holds T_{n-1} (for BDF2).
func (s *Simulator) thermalStep(integ Integrator, dt float64, prev2 []float64, res *Result) error {
	opt := s.opt
	var thetaW, massCoef float64
	switch integ {
	case Trapezoidal:
		thetaW, massCoef = 0.5, 1/dt
	case BDF2:
		thetaW, massCoef = 1.0, 1.5/dt
	default: // implicit Euler
		thetaW, massCoef = 1.0, 1/dt
	}

	// History right-hand side.
	hist := s.scratch
	switch integ {
	case BDF2:
		for i := range hist {
			hist[i] = s.massDiag[i] * (2*s.tPrev[i] - 0.5*prev2[i]) / dt
		}
	case Trapezoidal:
		for i := range hist {
			hist[i] = s.massDiag[i]*s.tPrev[i]/dt - 0.5*s.explicit[i]
		}
	default:
		for i := range hist {
			hist[i] = s.massDiag[i] * s.tPrev[i] / dt
		}
	}

	newton := opt.Nonlinear == NewtonLinearized
	tNext := s.tNext
	copy(tNext, s.tIter)

	for k := 0; k < opt.MaxNonlinIter; k++ {
		s.assembleThermal(s.tIter)
		a := s.opT.Matrix()
		if thetaW != 1 {
			a.Scale(thetaW)
		}
		fit.RobinLinearized(s.tIter[:s.nGrid], s.bndAreas[:s.nGrid], s.prob.ThermalBC, newton,
			s.bndDiag[:s.nGrid], s.bndRh[:s.nGrid])
		for i := 0; i < s.nDOF; i++ {
			d := massCoef * s.massDiag[i]
			if i < s.nGrid {
				d += thetaW * s.bndDiag[i]
			}
			s.opT.AddToDiagEntry(i, d)
		}
		for i := 0; i < s.nDOF; i++ {
			s.rhs[i] = hist[i] + thetaW*s.q[i]
			if i < s.nGrid {
				s.rhs[i] += thetaW * s.bndRh[i]
			}
		}
		s.dirT.Apply(a, s.rhs)
		st, err := s.solveCG("thermal", s.wsT, a, s.rhs, tNext, &s.precT)
		res.Stats.ThermSolves++
		res.Stats.ThermCGIters += st.Iterations
		res.Stats.NonlinIters++
		if err != nil {
			return fmt.Errorf("core: thermal solve: %w", err)
		}
		diff := maxAbsDiff(tNext, s.tIter)
		copy(s.tIter, tNext)
		if diff < opt.NonlinTol {
			return nil
		}
	}
	res.Stats.NonlinNonConverged++
	return nil
}

func maxAbsDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}
