package fit

import (
	"math"
	"math/rand/v2"
	"testing"

	"etherm/internal/sparse"
)

// randomSymPattern builds a random symmetric-pattern matrix with a full
// diagonal, mimicking an assembled operator.
func randomSymPattern(rng *rand.Rand, n int) *sparse.CSR {
	b := sparse.NewBuilder(n, n)
	for k := 0; k < 4*n; k++ {
		i, j := rng.IntN(n), rng.IntN(n)
		if i == j {
			continue
		}
		b.AddSym(i, j, rng.NormFloat64())
	}
	for i := 0; i < n; i++ {
		b.Add(i, i, 1+rng.Float64())
	}
	return b.ToCSR()
}

// TestDirichletApplierMatchesApplyDirichlet compares the precomputed applier
// against the reference elimination on random matrices, values and
// constraint sets — matrix values and right-hand side must agree exactly.
func TestDirichletApplierMatchesApplyDirichlet(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 42))
	for trial := 0; trial < 25; trial++ {
		n := 6 + rng.IntN(30)
		a := randomSymPattern(rng, n)

		nc := 1 + rng.IntN(n/2)
		nodes := rng.Perm(n)[:nc]
		sets := []Dirichlet{
			{Nodes: nodes[:nc/2+1], Values: []float64{rng.NormFloat64()}},
		}
		if rest := nodes[nc/2+1:]; len(rest) > 0 {
			vals := make([]float64, len(rest))
			for i := range vals {
				vals[i] = rng.NormFloat64()
			}
			sets = append(sets, Dirichlet{Nodes: rest, Values: vals})
		}

		ap, err := NewDirichletApplier(a, sets...)
		if err != nil {
			t.Fatal(err)
		}
		if ap.NumConstrained() != nc {
			t.Fatalf("applier holds %d constraints, want %d", ap.NumConstrained(), nc)
		}

		// Reference path on a deep copy.
		aRef := a.Clone()
		rhsRef := make([]float64, n)
		rhsAp := make([]float64, n)
		for i := range rhsRef {
			v := rng.NormFloat64()
			rhsRef[i] = v
			rhsAp[i] = v
		}
		if err := ApplyDirichlet(aRef, rhsRef, sets...); err != nil {
			t.Fatal(err)
		}
		ap.Apply(a, rhsAp)

		for k := range a.Val {
			if a.Val[k] != aRef.Val[k] {
				t.Fatalf("trial %d: Val[%d] = %g, reference %g", trial, k, a.Val[k], aRef.Val[k])
			}
		}
		// ApplyDirichlet accumulates the contributions of multiple
		// constrained neighbors in Go map order (nondeterministic!), so rhs
		// entries can differ from the applier's fixed order in the last bit.
		// The applier itself is deterministic — that is the point.
		for i := range rhsAp {
			if d := math.Abs(rhsAp[i] - rhsRef[i]); d > 1e-13*(1+math.Abs(rhsRef[i])) {
				t.Fatalf("trial %d: rhs[%d] = %g, reference %g", trial, i, rhsAp[i], rhsRef[i])
			}
		}
	}
}

// TestDirichletApplierReusable checks a second Apply on freshly assembled
// values (pattern-stable reassembly) matches a fresh reference elimination.
func TestDirichletApplierReusable(t *testing.T) {
	rng := rand.New(rand.NewPCG(43, 44))
	a := randomSymPattern(rng, 20)
	sets := []Dirichlet{{Nodes: []int{0, 7, 13}, Values: []float64{2.5}}}
	ap, err := NewDirichletApplier(a, sets...)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for k := range a.Val {
			a.Val[k] = rng.NormFloat64()
		}
		// Re-symmetrize values so the reference's symmetric walk sees the
		// same entries (pattern already symmetric).
		for i := 0; i < a.Rows; i++ {
			for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
				if j := a.ColIdx[k]; j > i {
					if kj, ok := a.Find(j, i); ok {
						a.Val[kj] = a.Val[k]
					}
				}
			}
		}
		aRef := a.Clone()
		rhsRef := make([]float64, a.Rows)
		rhsAp := make([]float64, a.Rows)
		for i := range rhsRef {
			v := rng.NormFloat64()
			rhsRef[i], rhsAp[i] = v, v
		}
		if err := ApplyDirichlet(aRef, rhsRef, sets...); err != nil {
			t.Fatal(err)
		}
		ap.Apply(a, rhsAp)
		for k := range a.Val {
			if a.Val[k] != aRef.Val[k] {
				t.Fatalf("round %d: Val[%d] mismatch", round, k)
			}
		}
		for i := range rhsAp {
			if d := math.Abs(rhsAp[i] - rhsRef[i]); d > 1e-13*(1+math.Abs(rhsRef[i])) {
				t.Fatalf("round %d: rhs[%d] mismatch", round, i)
			}
		}
	}
}

// TestDirichletApplierConflict mirrors ApplyDirichlet's duplicate handling:
// same node with equal values is fine, conflicting values error.
func TestDirichletApplierConflict(t *testing.T) {
	rng := rand.New(rand.NewPCG(45, 46))
	a := randomSymPattern(rng, 8)
	if _, err := NewDirichletApplier(a,
		Dirichlet{Nodes: []int{1}, Values: []float64{3}},
		Dirichlet{Nodes: []int{1}, Values: []float64{4}}); err == nil {
		t.Error("expected conflict error")
	}
	if _, err := NewDirichletApplier(a,
		Dirichlet{Nodes: []int{1}, Values: []float64{3}},
		Dirichlet{Nodes: []int{1}, Values: []float64{3}}); err != nil {
		t.Errorf("equal duplicate constraint should be accepted: %v", err)
	}
}

// TestDirichletApplierZeroAlloc: the per-solve constraint application must
// not allocate.
func TestDirichletApplierZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewPCG(47, 48))
	a := randomSymPattern(rng, 50)
	ap, err := NewDirichletApplier(a, Dirichlet{Nodes: []int{0, 10, 20}, Values: []float64{1}})
	if err != nil {
		t.Fatal(err)
	}
	rhs := make([]float64, a.Rows)
	allocs := testing.AllocsPerRun(20, func() { ap.Apply(a, rhs) })
	if allocs != 0 {
		t.Errorf("Apply performed %v allocations, want 0", allocs)
	}
}
