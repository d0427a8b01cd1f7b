package solver

import (
	"math"
	"math/rand/v2"
	"testing"

	"etherm/internal/sparse"
)

// randomSPD builds a random sparse SPD matrix as L·Lᵀ-like Laplacian plus a
// positive diagonal shift.
func randomSPD(rng *rand.Rand, n int) *sparse.CSR {
	b := sparse.NewBuilder(n, n)
	for k := 0; k < 3*n; k++ {
		i, j := rng.IntN(n), rng.IntN(n)
		if i == j {
			continue
		}
		b.AddSym(i, j, 0.1+rng.Float64())
	}
	for i := 0; i < n; i++ {
		b.Add(i, i, 1+rng.Float64())
	}
	return b.ToCSR()
}

func solveAndCheck(t *testing.T, name string, a *sparse.CSR, prec Preconditioner) {
	t.Helper()
	n := a.Rows
	rng := rand.New(rand.NewPCG(42, uint64(n)))
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	a.MulVec(b, xTrue)
	x := make([]float64, n)
	stats, err := CG(a, b, x, prec, Options{Tol: 1e-12})
	if err != nil {
		t.Fatalf("%s: CG failed: %v (stats %+v)", name, err, stats)
	}
	if !stats.Converged {
		t.Fatalf("%s: CG did not converge", name)
	}
	for i := range x {
		if math.Abs(x[i]-xTrue[i]) > 1e-6*(1+math.Abs(xTrue[i])) {
			t.Fatalf("%s: x[%d] = %g, want %g", name, i, x[i], xTrue[i])
		}
	}
}

func TestCGRandomSPD(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.IntN(60)
		a := randomSPD(rng, n)
		solveAndCheck(t, "identity-prec", a, nil)
		solveAndCheck(t, "jacobi", a, NewJacobi(a))
		if ic, err := NewIC0(a); err == nil {
			solveAndCheck(t, "ic0", a, ic)
		} else {
			t.Fatalf("IC0 failed on SPD matrix: %v", err)
		}
	}
}

func TestCGAgainstDenseLU(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 3))
	a := randomSPD(rng, 40)
	b := make([]float64, 40)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := make([]float64, 40)
	if _, err := CG(a, b, x, NewJacobi(a), Options{Tol: 1e-13}); err != nil {
		t.Fatal(err)
	}
	xRef, err := sparse.SolveDense(a.ToDense(), b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(x[i]-xRef[i]) > 1e-7*(1+math.Abs(xRef[i])) {
			t.Fatalf("CG vs LU mismatch at %d: %g vs %g", i, x[i], xRef[i])
		}
	}
}

func TestCGZeroRHS(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 5))
	a := randomSPD(rng, 10)
	x := make([]float64, 10)
	for i := range x {
		x[i] = 1 // nonzero start must be reset to the zero solution
	}
	stats, err := CG(a, make([]float64, 10), x, nil, Options{})
	if err != nil || !stats.Converged {
		t.Fatalf("zero-rhs solve failed: %v", err)
	}
	for i := range x {
		if x[i] != 0 {
			t.Fatalf("x[%d] = %g, want 0", i, x[i])
		}
	}
}

func TestCGWarmStart(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 7))
	a := randomSPD(rng, 50)
	xTrue := make([]float64, 50)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := make([]float64, 50)
	a.MulVec(b, xTrue)

	cold := make([]float64, 50)
	sCold, err := CG(a, b, cold, NewJacobi(a), Options{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	warm := append([]float64(nil), xTrue...)
	warm[0] += 1e-8
	sWarm, err := CG(a, b, warm, NewJacobi(a), Options{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if sWarm.Iterations >= sCold.Iterations {
		t.Errorf("warm start (%d iters) not faster than cold (%d)", sWarm.Iterations, sCold.Iterations)
	}
}

func TestCGRejectsNonSPD(t *testing.T) {
	b := sparse.NewBuilder(2, 2)
	b.Add(0, 0, -1)
	b.Add(1, 1, 1)
	a := b.ToCSR()
	x := make([]float64, 2)
	if _, err := CG(a, []float64{1, 1}, x, nil, Options{MaxIter: 10}); err == nil {
		t.Error("expected non-SPD detection error")
	}
}

func TestCGDimensionMismatch(t *testing.T) {
	a := sparse.Identity(3)
	x := make([]float64, 2)
	if _, err := CG(a, []float64{1, 2, 3}, x, nil, Options{}); err == nil {
		t.Error("expected dimension mismatch error")
	}
}

func TestIC0ExactForDiagonal(t *testing.T) {
	d := sparse.DiagCSR([]float64{4, 9, 16})
	p, err := NewIC0(d)
	if err != nil {
		t.Fatal(err)
	}
	r := []float64{4, 9, 16}
	dst := make([]float64, 3)
	p.Apply(dst, r)
	for i, want := range []float64{1, 1, 1} {
		if math.Abs(dst[i]-want) > 1e-14 {
			t.Fatalf("IC0 diagonal apply: dst[%d] = %g, want %g", i, dst[i], want)
		}
	}
}

func TestIC0IsExactCholeskyForTridiagonal(t *testing.T) {
	// For a tridiagonal SPD matrix IC(0) has no dropped fill, so applying the
	// preconditioner solves the system exactly.
	n := 30
	b := sparse.NewBuilder(n, n)
	for i := 0; i < n-1; i++ {
		b.AddSym(i, i+1, 1)
	}
	for i := 0; i < n; i++ {
		b.Add(i, i, 0.5) // diag = 2·1+0.5 interior
	}
	a := b.ToCSR()
	p, err := NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(10, 11))
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	rhs := make([]float64, n)
	a.MulVec(rhs, xTrue)
	x := make([]float64, n)
	p.Apply(x, rhs)
	for i := range x {
		if math.Abs(x[i]-xTrue[i]) > 1e-9*(1+math.Abs(xTrue[i])) {
			t.Fatalf("IC0 tridiagonal not exact at %d: %g vs %g", i, x[i], xTrue[i])
		}
	}
}

func TestIC0ReducesIterations(t *testing.T) {
	// 2D Poisson matrix: IC(0) should need far fewer CG iterations.
	nx := 20
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
		b.Add(i, i, 1e-3)
	}
	a := b.ToCSR()
	rhs := make([]float64, n)
	rng := rand.New(rand.NewPCG(12, 13))
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	x1 := make([]float64, n)
	s1, err := CG(a, rhs, x1, NewJacobi(a), Options{Tol: 1e-10, MaxIter: 10000})
	if err != nil {
		t.Fatal(err)
	}
	ic, err := NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	x2 := make([]float64, n)
	s2, err := CG(a, rhs, x2, ic, Options{Tol: 1e-10, MaxIter: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Iterations >= s1.Iterations {
		t.Errorf("IC0 (%d iters) should beat Jacobi (%d iters)", s2.Iterations, s1.Iterations)
	}
}

func TestIC0RejectsIndefinite(t *testing.T) {
	b := sparse.NewBuilder(2, 2)
	b.Add(0, 0, 1)
	b.Add(1, 1, 1)
	b.Add(0, 1, 5)
	b.Add(1, 0, 5)
	if _, err := NewIC0(b.ToCSR()); err == nil {
		t.Error("expected IC0 failure on indefinite matrix")
	}
}
