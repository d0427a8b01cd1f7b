package core

import (
	"sync"
	"testing"
)

// TestPerTierIterationSplit: the per-tier CG counters attribute every
// iteration to the preconditioner tier that served it. Under the
// factorization mode the electric operator runs on plain IC(0) and the
// thermal operator on MIC0, or plain IC(0) when PrecondOmega opts out;
// jacobi and none serve both.
func TestPerTierIterationSplit(t *testing.T) {
	for _, tc := range []struct {
		name        string
		opt         Options
		elec, therm string
	}{
		{"ic0 default", Options{EndTime: 2, NumSteps: 3}, tierIC0, tierMIC0},
		{"plain omega", Options{EndTime: 2, NumSteps: 3, PrecondOmega: -1}, tierIC0, tierIC0},
		{"jacobi", Options{EndTime: 2, NumSteps: 3, Precond: PrecondJacobi}, tierJacobi, tierJacobi},
		{"none", Options{EndTime: 2, NumSteps: 3, Precond: PrecondNone}, tierNone, tierNone},
	} {
		p := wiredProblem(t)
		s, err := NewSimulator(p, tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		st := res.Stats
		if st.ElecCGIters == 0 || st.ThermCGIters == 0 {
			t.Fatalf("%s: no CG iterations recorded (%+v)", tc.name, st)
		}
		got := map[string]int{
			tierMIC0: st.CGItersMIC0, tierIC0: st.CGItersIC0,
			tierJacobi: st.CGItersJacobi, tierNone: st.CGItersNone,
		}
		want := map[string]int{}
		want[tc.elec] += st.ElecCGIters
		want[tc.therm] += st.ThermCGIters
		for tier, n := range got {
			if n != want[tier] {
				t.Errorf("%s: %d iterations in tier %s, want %d (%+v)", tc.name, n, tier, want[tier], st)
			}
		}
	}
}

// TestSolveObserver: every linear solve of a run is reported with its
// operator and serving tier (IC0 for the electric operator, MIC0 for the
// thermal one); removing the observer stops the stream.
func TestSolveObserver(t *testing.T) {
	var mu sync.Mutex
	type key struct{ op, tier string }
	seen := map[key]int{}
	SetSolveObserver(func(op, tier string, iters int) {
		// iters can legitimately be 0: warm-started CG may accept the
		// previous iterate immediately.
		if iters < 0 {
			t.Errorf("observer saw %d iterations for %s/%s", iters, op, tier)
		}
		mu.Lock()
		seen[key{op, tier}]++
		mu.Unlock()
	})
	defer SetSolveObserver(nil)

	p := wiredProblem(t)
	s, err := NewSimulator(p, Options{EndTime: 1, NumSteps: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	elec, therm := seen[key{"electric", "ic0"}], seen[key{"thermal", "mic0"}]
	mu.Unlock()
	if elec != res.Stats.ElecSolves || therm != res.Stats.ThermSolves {
		t.Errorf("observer saw %d electric / %d thermal solves, stats say %d / %d",
			elec, therm, res.Stats.ElecSolves, res.Stats.ThermSolves)
	}

	SetSolveObserver(nil)
	mu.Lock()
	before := len(seen)
	mu.Unlock()
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	after := len(seen)
	mu.Unlock()
	if after != before {
		t.Error("observer still firing after removal")
	}
}
