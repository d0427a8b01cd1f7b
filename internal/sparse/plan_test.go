package sparse

import (
	"math"
	"math/rand/v2"
	"testing"
)

// randCSR builds a random rectangular-band sparse matrix with enough rows
// to span several plan blocks.
func randCSR(rng *rand.Rand, n int) *CSR {
	b := NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 1+rng.Float64())
		for k := 0; k < 6; k++ {
			b.Add(i, rng.IntN(n), rng.NormFloat64())
		}
	}
	return b.ToCSR()
}

func randVec(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// TestBlockedMatvecBitIdentical is the contract the whole solver stack
// leans on: the cache-blocked plan kernel, the parallel kernel at every
// worker count and the fused dot variant must reproduce the scalar
// reference bit for bit, because they all share the canonical
// four-accumulator summation order.
func TestBlockedMatvecBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 8))
	for _, n := range []int{1, 7, 500, 9000} {
		a := randCSR(rng, n)
		ref := a.Clone() // Clone drops the plan: scalar reference path
		x := randVec(rng, n)

		yRef := make([]float64, n)
		ref.MulVec(yRef, x)

		pl := a.Optimize()
		if n >= 4096 && pl.NumBlocks() < 2 {
			t.Fatalf("n=%d: expected multiple blocks, got %d", n, pl.NumBlocks())
		}
		y := make([]float64, n)
		a.MulVec(y, x)
		for i := range y {
			if y[i] != yRef[i] {
				t.Fatalf("n=%d: blocked y[%d]=%v != scalar %v", n, i, y[i], yRef[i])
			}
		}

		for _, w := range []int{1, 2, 8} {
			for i := range y {
				y[i] = 0
			}
			a.MulVecWorkers(y, x, w)
			for i := range y {
				if y[i] != yRef[i] {
					t.Fatalf("n=%d workers=%d: y[%d]=%v != scalar %v", n, w, i, y[i], yRef[i])
				}
			}
		}

		dot := pl.MulVecDot(a.Val, y, x)
		wantDot := 0.0
		for i := range yRef {
			if y[i] != yRef[i] {
				t.Fatalf("n=%d: MulVecDot y[%d]=%v != scalar %v", n, i, y[i], yRef[i])
			}
			wantDot += x[i] * yRef[i]
		}
		if math.Abs(dot-wantDot) > 1e-9*(1+math.Abs(wantDot)) {
			t.Fatalf("n=%d: MulVecDot=%v, want %v", n, dot, wantDot)
		}
	}
}

// TestOptimizeIdempotentAcrossRestamps: Optimize is built once per pattern;
// restamping values (the fit.Operator reassembly path) must not stale the
// plan's results.
func TestOptimizeIdempotentAcrossRestamps(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	a := randCSR(rng, 300)
	pl := a.Optimize()
	if a.Optimize() != pl {
		t.Fatal("Optimize rebuilt the plan for an unchanged pattern")
	}
	x := randVec(rng, 300)
	for round := 0; round < 3; round++ {
		for i := range a.Val {
			a.Val[i] = rng.NormFloat64()
		}
		ref := a.Clone()
		y, yRef := make([]float64, 300), make([]float64, 300)
		a.MulVec(y, x)
		ref.MulVec(yRef, x)
		for i := range y {
			if y[i] != yRef[i] {
				t.Fatalf("round %d: restamped blocked y[%d]=%v != scalar %v", round, i, y[i], yRef[i])
			}
		}
	}
}
