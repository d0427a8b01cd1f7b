package core

import (
	"sync"
	"testing"
)

// TestPerTierIterationSplit: the per-tier CG counters attribute every
// iteration to the preconditioner tier that served it, and the tiers track
// the configured Precond mode.
func TestPerTierIterationSplit(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  Options
		tier func(st RunStats) int
	}{
		{"ic0 default lands in mic0", Options{EndTime: 2, NumSteps: 3},
			func(st RunStats) int { return st.CGItersMIC0 }},
		{"ict mode lands in ict", Options{EndTime: 2, NumSteps: 3, Precond: PrecondICT},
			func(st RunStats) int { return st.CGItersICT }},
		{"plain omega lands in ic0", Options{EndTime: 2, NumSteps: 3, PrecondOmega: -1},
			func(st RunStats) int { return st.CGItersIC0 }},
		{"jacobi lands in jacobi", Options{EndTime: 2, NumSteps: 3, Precond: PrecondJacobi},
			func(st RunStats) int { return st.CGItersJacobi }},
		{"none lands in none", Options{EndTime: 2, NumSteps: 3, Precond: PrecondNone},
			func(st RunStats) int { return st.CGItersNone }},
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
		total := st.ElecCGIters + st.ThermCGIters
		inTier := tc.tier(st)
		perTier := st.CGItersICT + st.CGItersMIC0 +
			st.CGItersIC0 + st.CGItersJacobi + st.CGItersNone
		if total == 0 {
			t.Fatalf("%s: no CG iterations recorded", tc.name)
		}
		if perTier != total {
			t.Errorf("%s: per-tier sum %d != total CG iterations %d (%+v)", tc.name, perTier, total, st)
		}
		if inTier != total {
			t.Errorf("%s: want all %d iterations in the configured tier, got %d (%+v)",
				tc.name, total, inTier, st)
		}
	}
}

// TestSolveObserver: every linear solve of a run is reported with its
// operator and serving tier; removing the observer stops the stream.
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
	s, err := NewSimulator(p, Options{EndTime: 1, NumSteps: 2, Precond: PrecondICT})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	elec, therm := seen[key{"electric", "ict"}], seen[key{"thermal", "ict"}]
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
