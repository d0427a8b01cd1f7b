package fit

import (
	"fmt"

	"etherm/internal/sparse"
)

// Branch is a two-terminal conductance between DOFs N1 and N2 of the global
// system. Grid edges and bonding-wire segments are both branches; the
// Laplacian stamp is [g,−g;−g,g].
type Branch struct {
	N1, N2 int
}

// Operator is a weighted graph Laplacian over a fixed branch topology with
// pattern-stable, allocation-free reassembly: the CSR pattern (including the
// full diagonal) is computed once, and SetValues refreshes the numeric
// values for a new conductance vector. This is what makes the repeated
// nonlinear/Monte-Carlo assemblies cheap.
type Operator struct {
	n        int
	branches []Branch
	mat      *sparse.CSR
	// For branch b: value-array positions of (n1,n1), (n2,n2), (n1,n2), (n2,n1).
	pos [][4]int
	// Value-array positions of the diagonal, for AddDiag.
	diagPos []int
}

// NewOperator builds the pattern for nDOF unknowns and the given branches.
// Every diagonal entry is part of the pattern even for isolated DOFs, so
// mass terms and boundary conductances can always be added.
func NewOperator(nDOF int, branches []Branch) (*Operator, error) {
	b := sparse.NewBuilder(nDOF, nDOF)
	for i, br := range branches {
		if br.N1 < 0 || br.N1 >= nDOF || br.N2 < 0 || br.N2 >= nDOF {
			return nil, fmt.Errorf("fit: branch %d (%d,%d) out of range for %d DOFs", i, br.N1, br.N2, nDOF)
		}
		if br.N1 == br.N2 {
			return nil, fmt.Errorf("fit: branch %d is a self-loop at DOF %d", i, br.N1)
		}
		b.AddSym(br.N1, br.N2, 0)
	}
	for i := 0; i < nDOF; i++ {
		b.Add(i, i, 0)
	}
	op := &Operator{n: nDOF, branches: append([]Branch(nil), branches...), mat: b.ToCSR()}
	op.pos = make([][4]int, len(branches))
	for i, br := range branches {
		p11, ok1 := op.mat.Find(br.N1, br.N1)
		p22, ok2 := op.mat.Find(br.N2, br.N2)
		p12, ok3 := op.mat.Find(br.N1, br.N2)
		p21, ok4 := op.mat.Find(br.N2, br.N1)
		if !ok1 || !ok2 || !ok3 || !ok4 {
			return nil, fmt.Errorf("fit: internal error: pattern entry missing for branch %d", i)
		}
		op.pos[i] = [4]int{p11, p22, p12, p21}
	}
	op.diagPos = make([]int, nDOF)
	for i := 0; i < nDOF; i++ {
		p, ok := op.mat.Find(i, i)
		if !ok {
			return nil, fmt.Errorf("fit: internal error: diagonal %d missing", i)
		}
		op.diagPos[i] = p
	}
	// The pattern is final here — SetValues/AddDiag only restamp values — so
	// select the cache-blocked matvec layout once at assembly time. Every
	// matvec on this operator (CG inner loops included) then runs the blocked
	// kernel, bit-identical to the scalar reference by the shared canonical
	// summation order.
	op.mat.Optimize()
	return op, nil
}

// NumDOF returns the number of unknowns.
func (op *Operator) NumDOF() int { return op.n }

// NumBranches returns the number of branches.
func (op *Operator) NumBranches() int { return len(op.branches) }

// Branches returns the branch topology (shared slice; do not modify).
func (op *Operator) Branches() []Branch { return op.branches }

// SetValues zeroes the matrix and stamps conductance g[b] for every branch b.
func (op *Operator) SetValues(g []float64) {
	if len(g) != len(op.branches) {
		panic(fmt.Sprintf("fit: SetValues got %d conductances for %d branches", len(g), len(op.branches)))
	}
	op.mat.Zero()
	v := op.mat.Val
	for b, p := range op.pos {
		gb := g[b]
		v[p[0]] += gb
		v[p[1]] += gb
		v[p[2]] -= gb
		v[p[3]] -= gb
	}
}

// AddDiag adds d[i] to the matrix diagonal (mass terms, Robin conductances).
func (op *Operator) AddDiag(d []float64) {
	if len(d) != op.n {
		panic("fit: AddDiag length mismatch")
	}
	v := op.mat.Val
	for i, di := range d {
		v[op.diagPos[i]] += di
	}
}

// AddToDiagEntry adds v to diagonal entry i.
func (op *Operator) AddToDiagEntry(i int, v float64) {
	op.mat.Val[op.diagPos[i]] += v
}

// Matrix returns the assembled CSR matrix. The operator retains ownership;
// the matrix is invalidated by the next SetValues call.
func (op *Operator) Matrix() *sparse.CSR { return op.mat }

// ApplyLaplacian computes dst = K x directly from branch conductances
// without touching the CSR matrix (useful for residual evaluations):
// dst[n1] += g (x[n1]−x[n2]), dst[n2] += g (x[n2]−x[n1]).
func ApplyLaplacian(branches []Branch, g, x, dst []float64) {
	for i := range dst {
		dst[i] = 0
	}
	for b, br := range branches {
		d := g[b] * (x[br.N1] - x[br.N2])
		dst[br.N1] += d
		dst[br.N2] -= d
	}
}

// JouleEdgeSplit accumulates branch Joule powers P_b = g_b (Δφ_b)² into dst,
// half to each terminal. The total injected power equals φᵀKφ exactly, which
// keeps the discrete energy balance closed (property-tested).
func JouleEdgeSplit(branches []Branch, g, phi, dst []float64) {
	for b, br := range branches {
		dphi := phi[br.N1] - phi[br.N2]
		p := 0.5 * g[b] * dphi * dphi
		dst[br.N1] += p
		dst[br.N2] += p
	}
}

// TotalPower returns φᵀKφ = Σ_b g_b (Δφ_b)².
func TotalPower(branches []Branch, g, phi []float64) float64 {
	s := 0.0
	for b, br := range branches {
		dphi := phi[br.N1] - phi[br.N2]
		s += g[b] * dphi * dphi
	}
	return s
}
