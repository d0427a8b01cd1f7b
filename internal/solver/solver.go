// Package solver provides the preconditioned conjugate gradient solver used
// by the electrothermal simulator on its symmetric positive definite FIT
// operators, with Jacobi and zero-fill incomplete-Cholesky (IC0, MIC0)
// preconditioners. The threshold factor ICT stays only for the benchmark's
// probes (see CholPrec).
package solver

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"etherm/internal/sparse"
)

// ErrMaxIterations is returned when an iterative method exhausts its
// iteration budget without meeting the requested tolerance.
var ErrMaxIterations = errors.New("solver: maximum iterations reached")

// SolveError reasons (see SolveError.Reason).
const (
	// ReasonNaN: the residual (or a curvature term) became NaN or Inf —
	// the iterate is poisoned and no further iteration can recover it.
	ReasonNaN = "nan"
	// ReasonDiverged: the residual grew far beyond its best value instead
	// of contracting; continuing would only burn the iteration budget.
	ReasonDiverged = "diverged"
	// ReasonIndefinite: CG detected non-positive curvature (pᵀAp ≤ 0);
	// the operator is not SPD as required.
	ReasonIndefinite = "indefinite"
)

// SolveError is a structured iterative-solve failure: instead of silently
// burning max iterations on a poisoned or diverging iterate, the solver
// stops as soon as the failure is detectable and reports where the solve
// stood. Callers match it with errors.As to distinguish numerical
// breakdown (retry with a different preconditioner, report the scenario
// failed) from a mere budget exhaustion (ErrMaxIterations).
type SolveError struct {
	Method string // "cg"
	Reason string // ReasonNaN, ReasonDiverged or ReasonIndefinite
	// Iteration is where the failure was detected; Residual the relative
	// residual there (NaN/Inf for ReasonNaN).
	Iteration int
	Residual  float64
	// BestIteration/BestResidual locate the closest approach to
	// convergence before the breakdown — the diagnostic that separates
	// "never converging" from "diverged after nearly converging".
	BestIteration int
	BestResidual  float64
}

func (e *SolveError) Error() string {
	return fmt.Sprintf("solver: %s %s at iteration %d (residual %.3g, best %.3g at iteration %d)",
		e.Method, e.Reason, e.Iteration, e.Residual, e.BestResidual, e.BestIteration)
}

// divergenceFactor and divergenceFloor gate ReasonDiverged: the residual
// must exceed divergenceFactor × its best value AND divergenceFloor in
// absolute (relative-residual) terms. CG's 2-norm residual may oscillate
// by O(cond) on ill-conditioned systems while the A-norm error still
// contracts, so both thresholds are set far outside that envelope.
const (
	divergenceFactor = 1e8
	divergenceFloor  = 1e4
)

// Fault is an injected solver failure mode, consumed by the chaos hook
// (see SetFaultHook). Faults corrupt the iterate so the guardrails — not
// a bypass — detect and report them, exercising the production error
// path end to end.
type Fault int

// Injected failure modes.
const (
	// FaultNone injects nothing.
	FaultNone Fault = iota
	// FaultNaN poisons the search direction with a NaN; the solve must
	// fail with a SolveError of ReasonNaN.
	FaultNaN
	// FaultDiverge scales the residual catastrophically; the solve must
	// fail with a SolveError of ReasonDiverged.
	FaultDiverge
	// FaultPanic panics inside the iteration loop, exercising the
	// panic-isolation boundaries above the solver.
	FaultPanic
)

// faultHook, when set, is consulted once per CGWith call for a fault to
// inject. Nil (the default) costs one atomic load per solve.
var faultHook atomic.Pointer[func() Fault]

// SetFaultHook installs (or, with nil, removes) the process-wide chaos
// fault source. Testing and chaos harnesses only — never set in
// production serving paths.
func SetFaultHook(h func() Fault) {
	if h == nil {
		faultHook.Store(nil)
		return
	}
	faultHook.Store(&h)
}

// faultInjectionIteration is where an injected fault corrupts the solve:
// late enough that the loop is in steady state, early enough that every
// budget reaches it.
const faultInjectionIteration = 2

// Stats reports the work performed by an iterative solve.
type Stats struct {
	Iterations int
	Residual   float64 // final relative residual ‖b−Ax‖/‖b‖
	Converged  bool
}

// Preconditioner approximates A⁻¹ application for Krylov methods.
type Preconditioner interface {
	// Apply computes dst ≈ A⁻¹ r. dst and r have equal length and do not alias.
	Apply(dst, r []float64)
}

// IdentityPrec is the trivial preconditioner M = I.
type IdentityPrec struct{}

// Apply copies r into dst.
func (IdentityPrec) Apply(dst, r []float64) { copy(dst, r) }

// JacobiPrec preconditions with the inverse diagonal of A.
type JacobiPrec struct {
	invDiag []float64
}

// NewJacobi builds a Jacobi preconditioner from the diagonal of a. Zero
// diagonal entries are treated as one, which keeps the preconditioner usable
// on rows eliminated by Dirichlet conditions.
func NewJacobi(a *sparse.CSR) *JacobiPrec {
	p := &JacobiPrec{invDiag: make([]float64, min(a.Rows, a.Cols))}
	p.Refresh(a)
	return p
}

// Refresh re-reads the diagonal of a into the existing buffer, allocating
// nothing. a must have the dimensions the preconditioner was built for.
func (p *JacobiPrec) Refresh(a *sparse.CSR) {
	a.DiagInto(p.invDiag)
	for i, v := range p.invDiag {
		if v != 0 {
			p.invDiag[i] = 1 / v
		} else {
			p.invDiag[i] = 1
		}
	}
}

// Apply computes dst = D⁻¹ r.
func (p *JacobiPrec) Apply(dst, r []float64) {
	for i := range r {
		dst[i] = r[i] * p.invDiag[i]
	}
}

// Options controls the iterative solvers.
type Options struct {
	Tol     float64 // relative residual target; default 1e-10
	MaxIter int     // default 10·n
}

func (o Options) withDefaults(n int) Options {
	if o.Tol <= 0 {
		o.Tol = 1e-10
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 10 * n
		if o.MaxIter < 100 {
			o.MaxIter = 100
		}
	}
	return o
}

// Workspace owns the scratch vectors of an iterative solve so the Krylov
// loop runs without heap allocations. One workspace serves one solve at a
// time; the simulator keeps one per operator and reuses it across the
// Newton × coupling × time-step × sample loops.
type Workspace struct {
	r, z, p, ap []float64
}

// NewWorkspace returns a workspace for systems of n unknowns.
func NewWorkspace(n int) *Workspace {
	return &Workspace{
		r:  make([]float64, n),
		z:  make([]float64, n),
		p:  make([]float64, n),
		ap: make([]float64, n),
	}
}

// ensure grows the workspace to n unknowns if needed.
func (w *Workspace) ensure(n int) {
	if len(w.r) < n {
		w.r = make([]float64, n)
		w.z = make([]float64, n)
		w.p = make([]float64, n)
		w.ap = make([]float64, n)
	}
}

// CG solves the symmetric positive definite system A x = b with the
// preconditioned conjugate gradient method. x is used as the starting guess
// and is updated in place. A nil preconditioner defaults to identity.
//
// CG allocates fresh work vectors per call; hot loops should hold a
// Workspace and call CGWith instead.
func CG(a *sparse.CSR, b, x []float64, m Preconditioner, opt Options) (Stats, error) {
	return CGWith(NewWorkspace(a.Rows), a, b, x, m, opt)
}

// CGWith is CG running on caller-owned scratch vectors: in steady state
// (workspace already sized, preconditioner prebuilt) the solve performs zero
// heap allocations. The inner loop fuses the matvec with the pᵀAp reduction
// and the x/r updates with the residual-norm reduction; every fused
// reduction accumulates in the same left-to-right order as the standalone
// sparse.Dot/Norm2, so results are bit-identical to the textbook loop.
func CGWith(ws *Workspace, a *sparse.CSR, b, x []float64, m Preconditioner, opt Options) (Stats, error) {
	n := a.Rows
	if a.Cols != n || len(b) != n || len(x) != n {
		return Stats{}, fmt.Errorf("solver: CG dimension mismatch (A %d×%d, b %d, x %d)", a.Rows, a.Cols, len(b), len(x))
	}
	opt = opt.withDefaults(n)
	if m == nil {
		m = IdentityPrec{}
	}
	ws.ensure(n)
	r, z, p, ap := ws.r[:n], ws.z[:n], ws.p[:n], ws.ap[:n]

	a.MulVec(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	normB := sparse.Norm2(b)
	if normB == 0 {
		for i := range x {
			x[i] = 0
		}
		return Stats{Iterations: 0, Residual: 0, Converged: true}, nil
	}
	if sparse.Norm2(r)/normB <= opt.Tol {
		return Stats{Iterations: 0, Residual: sparse.Norm2(r) / normB, Converged: true}, nil
	}

	m.Apply(z, r)
	copy(p, z)
	rz := sparse.Dot(r, z)

	fault := FaultNone
	if h := faultHook.Load(); h != nil {
		fault = (*h)()
	}

	bestRes := math.Inf(1)
	bestIt := 0
	for it := 1; it <= opt.MaxIter; it++ {
		if fault != FaultNone && it == faultInjectionIteration {
			switch fault {
			case FaultPanic:
				panic("solver: injected fault (chaos)")
			case FaultNaN:
				p[0] = math.NaN()
			case FaultDiverge:
				for i := range r {
					r[i] *= 1e140
				}
			}
		}
		pap := mulVecDot(a, ap, p)
		if math.IsNaN(pap) || math.IsInf(pap, 0) {
			return Stats{Iterations: it, Residual: math.NaN()},
				&SolveError{Method: "cg", Reason: ReasonNaN, Iteration: it,
					Residual: math.NaN(), BestIteration: bestIt, BestResidual: bestRes}
		}
		if pap <= 0 {
			res := sparse.Norm2(r) / normB
			return Stats{Iterations: it, Residual: res},
				&SolveError{Method: "cg", Reason: ReasonIndefinite, Iteration: it,
					Residual: res, BestIteration: bestIt, BestResidual: bestRes}
		}
		alpha := rz / pap

		// x += α p; r −= α ap; rr = ‖r‖² — one fused pass, canonical order.
		rr := 0.0
		for i := range x {
			x[i] += alpha * p[i]
			ri := r[i] - alpha*ap[i]
			r[i] = ri
			rr += ri * ri
		}
		res := math.Sqrt(rr) / normB
		if res <= opt.Tol {
			return Stats{Iterations: it, Residual: res, Converged: true}, nil
		}
		// Guardrails: a poisoned iterate (NaN/Inf residual) or a residual
		// exploding past its best value cannot converge; stop with the
		// diagnostics instead of burning the remaining budget.
		if math.IsNaN(res) || math.IsInf(res, 0) {
			return Stats{Iterations: it, Residual: res},
				&SolveError{Method: "cg", Reason: ReasonNaN, Iteration: it,
					Residual: res, BestIteration: bestIt, BestResidual: bestRes}
		}
		if res < bestRes {
			bestRes, bestIt = res, it
		} else if res > divergenceFactor*bestRes && res > divergenceFloor {
			return Stats{Iterations: it, Residual: res},
				&SolveError{Method: "cg", Reason: ReasonDiverged, Iteration: it,
					Residual: res, BestIteration: bestIt, BestResidual: bestRes}
		}
		m.Apply(z, r)
		rzNew := sparse.Dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	return Stats{Iterations: opt.MaxIter, Residual: sparse.Norm2(r) / normB}, ErrMaxIterations
}

// mulVecDot computes dst = A x and returns xᵀ dst in one pass over the
// matrix, summing each row in the canonical order of sparse.CSR.MulVec and
// the dot product in ascending row order, bit-identical to a matvec
// followed by sparse.Dot.
func mulVecDot(a *sparse.CSR, dst, x []float64) float64 {
	dot := 0.0
	for i := 0; i < a.Rows; i++ {
		klo, khi := a.RowPtr[i], a.RowPtr[i+1]
		var s0, s1, s2, s3 float64
		k := klo
		for ; k+4 <= khi; k += 4 {
			s0 += a.Val[k] * x[a.ColIdx[k]]
			s1 += a.Val[k+1] * x[a.ColIdx[k+1]]
			s2 += a.Val[k+2] * x[a.ColIdx[k+2]]
			s3 += a.Val[k+3] * x[a.ColIdx[k+3]]
		}
		for ; k < khi; k++ {
			s0 += a.Val[k] * x[a.ColIdx[k]]
		}
		s := (s0 + s1) + (s2 + s3)
		dst[i] = s
		dot += x[i] * s
	}
	return dot
}
