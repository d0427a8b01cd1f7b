package solver

import (
	"math"
	"math/rand/v2"
	"testing"

	"etherm/internal/sparse"
)

// poisson2D builds the 2D five-point Poisson matrix with a diagonal shift.
func poisson2D(nx int, shift float64) *sparse.CSR {
	n := nx * nx
	b := sparse.NewBuilder(n, n)
	id := func(i, j int) int { return i + nx*j }
	for j := 0; j < nx; j++ {
		for i := 0; i < nx; i++ {
			if i+1 < nx {
				b.AddSym(id(i, j), id(i+1, j), 1)
			}
			if j+1 < nx {
				b.AddSym(id(i, j), id(i, j+1), 1)
			}
		}
	}
	for i := 0; i < n; i++ {
		b.Add(i, i, shift)
	}
	return b.ToCSR()
}

// TestIC0RefreshMatchesFromScratch perturbs the values of a matrix (pattern
// unchanged) and checks that the in-place refresh reproduces the factor a
// from-scratch factorization computes, for plain and modified IC0: Apply of
// the two gives the same bits on every unit vector and on random vectors.
// NewMIC0 factorizes through Refresh too, so both are also held to a dense
// textbook factorization of the perturbed matrix.
func TestIC0RefreshMatchesFromScratch(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	for _, omega := range []float64{0, 0.95, 1} {
		a := randomSPD(rng, 60)
		p, err := NewMIC0(a, omega)
		if err != nil {
			t.Fatalf("omega=%g: %v", omega, err)
		}
		// Perturb the values on the same pattern, keeping SPD via diagonal
		// dominance: scale off-diagonals down, diagonal up.
		for i := 0; i < a.Rows; i++ {
			for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
				if a.ColIdx[k] == i {
					a.Val[k] *= 1.3
				} else {
					a.Val[k] *= 0.8
				}
			}
		}
		if err := p.Refresh(a); err != nil {
			t.Fatalf("omega=%g: refresh: %v", omega, err)
		}
		q, err := NewMIC0(a, omega)
		if err != nil {
			t.Fatalf("omega=%g: fresh factorization: %v", omega, err)
		}
		l := denseMIC0(a, omega)
		n := a.Rows
		r, x, y := make([]float64, n), make([]float64, n), make([]float64, n)
		check := func(what string) {
			t.Helper()
			p.Apply(x, r)
			q.Apply(y, r)
			for i := range x {
				if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
					t.Fatalf("omega=%g, %s: refreshed Apply[%d] = %g, from-scratch %g", omega, what, i, x[i], y[i])
				}
			}
			want := denseSolve(l, r)
			scale, diff := 0.0, 0.0
			for i := range want {
				scale = max(scale, math.Abs(want[i]))
				diff = max(diff, math.Abs(x[i]-want[i]))
			}
			if diff > 1e-12*scale {
				t.Fatalf("omega=%g, %s: Apply differs from the dense factorization by %g (scale %g)", omega, what, diff, scale)
			}
		}
		for j := 0; j < n; j++ {
			clear(r)
			r[j] = 1
			check("unit vector")
		}
		for k := 0; k < 4; k++ {
			for i := range r {
				r[i] = rng.NormFloat64()
			}
			check("random vector")
		}
	}
}

// denseMIC0 is the textbook right-looking modified IC(0) on a dense copy
// of the lower triangle of a: the Schur update of each column lands on the
// entries in the pattern of a, and fill outside it moves onto the two
// diagonals it connects, scaled by omega. It returns the dense factor L.
func denseMIC0(a *sparse.CSR, omega float64) [][]float64 {
	n := a.Rows
	l, in := make([][]float64, n), make([][]bool, n)
	for i := range l {
		l[i], in[i] = make([]float64, n), make([]bool, n)
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if j := a.ColIdx[k]; j <= i {
				l[i][j], in[i][j] = a.Val[k], true
			}
		}
	}
	for j := 0; j < n; j++ {
		l[j][j] = math.Sqrt(l[j][j])
		for i := j + 1; i < n; i++ {
			l[i][j] /= l[j][j]
		}
		for i1 := j + 1; i1 < n; i1++ {
			l[i1][i1] -= l[i1][j] * l[i1][j]
			for i2 := i1 + 1; i2 < n; i2++ {
				prod := l[i1][j] * l[i2][j]
				if in[i2][i1] {
					l[i2][i1] -= prod
				} else {
					l[i1][i1] -= omega * prod
					l[i2][i2] -= omega * prod
				}
			}
		}
	}
	return l
}

// denseSolve solves L Lᵀ x = r by forward and backward substitution.
func denseSolve(l [][]float64, r []float64) []float64 {
	n := len(r)
	x := append([]float64(nil), r...)
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			x[i] -= l[i][j] * x[j]
		}
		x[i] /= l[i][i]
	}
	for i := n - 1; i >= 0; i-- {
		for j := i + 1; j < n; j++ {
			x[i] -= l[j][i] * x[j]
		}
		x[i] /= l[i][i]
	}
	return x
}

// TestIC0RefreshRejectsPatternChange ensures Refresh refuses a matrix with a
// different pattern instead of silently mixing index maps.
func TestIC0RefreshRejectsPatternChange(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 24))
	a := randomSPD(rng, 30)
	p, err := NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	other := sparse.Identity(30)
	if err := p.Refresh(other); err == nil {
		t.Error("expected pattern-mismatch error")
	}
}

// TestMIC0RowSums checks Gustafsson's defining property at omega = 1: L Lᵀ
// has the same row sums as A, i.e. the preconditioner is exact on the
// constant vector.
func TestMIC0RowSums(t *testing.T) {
	a := poisson2D(16, 1e-3)
	p, err := NewMIC0(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := a.Rows
	ones := make([]float64, n)
	aOnes := make([]float64, n)
	for i := range ones {
		ones[i] = 1
	}
	a.MulVec(aOnes, ones)
	// Solve L Lᵀ x = A·1; row-sum preservation means x = 1.
	x := make([]float64, n)
	p.Apply(x, aOnes)
	for i := range x {
		if math.Abs(x[i]-1) > 1e-8 {
			t.Fatalf("MIC0 not exact on constants: x[%d] = %g", i, x[i])
		}
	}
}

// TestMIC0ReducesIterations verifies the modified factorization beats plain
// IC(0) on the Poisson model problem.
func TestMIC0ReducesIterations(t *testing.T) {
	a := poisson2D(24, 1e-3)
	rng := rand.New(rand.NewPCG(25, 26))
	rhs := make([]float64, a.Rows)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	solve := func(m Preconditioner) int {
		x := make([]float64, a.Rows)
		st, err := CG(a, rhs, x, m, Options{Tol: 1e-10, MaxIter: 100000})
		if err != nil {
			t.Fatal(err)
		}
		return st.Iterations
	}
	ic, err := NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	mic, err := NewMIC0(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	plain, modified := solve(ic), solve(mic)
	if modified >= plain {
		t.Errorf("MIC0 (%d iters) should beat IC0 (%d iters)", modified, plain)
	}
}

// TestMIC0SolvesAccurately checks the modified preconditioner does not
// change what CG converges to.
func TestMIC0SolvesAccurately(t *testing.T) {
	rng := rand.New(rand.NewPCG(27, 28))
	for trial := 0; trial < 10; trial++ {
		n := 10 + rng.IntN(50)
		a := randomSPD(rng, n)
		mic, err := NewMIC0(a, 1)
		if err != nil {
			// Compensation can break on random matrices; that is what the
			// simulator's degradation chain is for.
			continue
		}
		solveAndCheck(t, "mic0", a, mic)
	}
}

// TestCGWithZeroAllocs is the allocation-regression gate for the solver hot
// path: steady-state CG solves on a reused workspace must not touch the
// heap.
func TestCGWithZeroAllocs(t *testing.T) {
	a := poisson2D(20, 0.5)
	n := a.Rows
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = float64(i%5) - 2
	}
	ic, err := NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace(n)
	x := make([]float64, n)
	opt := Options{Tol: 1e-10, MaxIter: 10000}
	// Warm up once (first call may size internals), then measure.
	if _, err := CGWith(ws, a, rhs, x, ic, opt); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		for i := range x {
			x[i] = 0
		}
		if _, err := CGWith(ws, a, rhs, x, ic, opt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state CGWith performed %v allocations per solve, want 0", allocs)
	}
	// The refresh path must also be allocation-free.
	allocs = testing.AllocsPerRun(10, func() {
		if err := ic.Refresh(a); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("IC0 refresh performed %v allocations, want 0", allocs)
	}
}

// TestJacobiRefresh checks the in-place Jacobi refresh tracks new values.
func TestJacobiRefresh(t *testing.T) {
	a := sparse.DiagCSR([]float64{2, 4, 8})
	p := NewJacobi(a)
	a.Val[0] = 10
	p.Refresh(a)
	dst := make([]float64, 3)
	p.Apply(dst, []float64{10, 4, 8})
	for i, want := range []float64{1, 1, 1} {
		if math.Abs(dst[i]-want) > 1e-15 {
			t.Fatalf("dst[%d] = %g, want %g", i, dst[i], want)
		}
	}
}
