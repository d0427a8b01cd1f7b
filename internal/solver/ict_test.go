package solver

import (
	"math"
	"testing"
)

// TestICTReducesIterations: the dual-threshold factor earns its fill — it
// must beat the zero-fill IC0 iteration count decisively on the model
// problem that mirrors the chip thermal system.
func TestICTReducesIterations(t *testing.T) {
	a := poisson2D(40, 1e-3)
	n := a.Rows
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	ic, err := NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	ict, err := NewICT(a, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Tol: 1e-10, MaxIter: 10000}
	x := make([]float64, n)
	st0, err := CGWith(NewWorkspace(n), a, b, x, ic, opt)
	if err != nil || !st0.Converged {
		t.Fatalf("IC0 solve failed: %v", err)
	}
	for i := range x {
		x[i] = 0
	}
	st1, err := CGWith(NewWorkspace(n), a, b, x, ict, opt)
	if err != nil || !st1.Converged {
		t.Fatalf("ICT solve failed: %v", err)
	}
	if st1.Iterations*3 > st0.Iterations*2 {
		t.Errorf("ICT iterations %d vs IC0 %d: want at least a 1.5x cut", st1.Iterations, st0.Iterations)
	}
}

// TestICTRefreshStable is the regression test for the marker-aliasing bug:
// refreshThreshold stamps marker entries with column indices, so a stamp
// left behind by round k aliases the same column in round k+1 unless the
// marker is cleared — the factor then silently drops entries and decays a
// little further on every refresh (observed on the chip mesh as
// 24 → 210 → 267 → 310 CG iterations across refreshes). Refreshing on
// unchanged values must reproduce the factor bit for bit, every round.
func TestICTRefreshStable(t *testing.T) {
	a := poisson2D(40, 1e-3)
	n := a.Rows
	ict, err := NewICT(a, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewICT(a, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	nnz := ict.NNZ()
	r := make([]float64, n)
	for i := range r {
		r[i] = math.Sin(float64(i))
	}
	want := make([]float64, n)
	fresh.Apply(want, r)
	got := make([]float64, n)
	for round := 0; round < 4; round++ {
		if err := ict.Refresh(a); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if ict.NNZ() != nnz {
			t.Fatalf("round %d: factor pattern decayed: nnz %d, want %d", round, ict.NNZ(), nnz)
		}
		ict.Apply(got, r)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("round %d: refreshed factor diverged at %d: %g vs %g", round, i, got[i], want[i])
			}
		}
	}
}

// TestICTRefreshTracksNewValues: a refresh on restamped values equals a
// from-scratch factorization of the new matrix (the build itself runs
// through Refresh, so both sides execute the same deterministic code).
func TestICTRefreshTracksNewValues(t *testing.T) {
	a := poisson2D(30, 1e-3)
	n := a.Rows
	ict, err := NewICT(a, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Strengthen the diagonal in place: same pattern, new values.
	shift := make([]float64, n)
	for i := range shift {
		shift[i] = 0.5
	}
	a.AddToDiag(shift)
	if err := ict.Refresh(a); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewICT(a, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ict.NNZ() != fresh.NNZ() {
		t.Fatalf("refreshed nnz %d != from-scratch %d", ict.NNZ(), fresh.NNZ())
	}
	r := make([]float64, n)
	for i := range r {
		r[i] = float64(i%11) - 5
	}
	got, want := make([]float64, n), make([]float64, n)
	ict.Apply(got, r)
	fresh.Apply(want, r)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("refresh vs rebuild differ at %d: %g vs %g", i, got[i], want[i])
		}
	}
}
