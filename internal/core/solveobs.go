package core

import "sync/atomic"

// Preconditioner tier names, as reported in RunStats and to the solve
// observer. They name the preconditioner that served a solve, not the
// option that was requested: electric solves under a factorization mode
// report ic0, and a failed build reports jacobi.
const (
	tierMIC0   = "mic0"
	tierIC0    = "ic0"
	tierJacobi = "jacobi"
	tierNone   = "none"
)

// SolveObserver receives one callback per inner CG solve: the operator
// ("electric" or "thermal"), the preconditioner tier that served the solve,
// and the iteration count. Observers run synchronously on the simulation
// goroutine and may be called concurrently from parallel Monte Carlo
// workers — they must be fast and thread-safe (metrics counters, not I/O).
type SolveObserver func(op, tier string, iters int)

var solveObs atomic.Pointer[SolveObserver]

// SetSolveObserver installs (or, with nil, removes) the process-wide solve
// observer. The server uses it to feed the CG-iteration histogram on
// /metrics; simulations never depend on it.
func SetSolveObserver(f SolveObserver) {
	if f == nil {
		solveObs.Store(nil)
		return
	}
	solveObs.Store(&f)
}

func notifySolve(op, tier string, iters int) {
	if p := solveObs.Load(); p != nil {
		(*p)(op, tier, iters)
	}
}
