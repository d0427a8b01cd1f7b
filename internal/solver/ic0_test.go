package solver

import (
	"math"
	"math/rand/v2"
	"testing"

	"etherm/internal/sparse"
)

// wiredGrid is an 8×8 five-point grid with wire-like chains appended after
// the grid DOFs, each end coupled to a grid node far from it in the
// ordering, as the simulator couples bond-wire segments to the pads:
//
//   - a six-node chain 64…69 from grid node 10 to grid node 50, whose first
//     row has only a far entry and whose other rows have the i−1 neighbour;
//   - a single node 70 coupled to grid nodes 5 and 60: only far entries;
//   - a four-node chain 71…74 from grid node 33 to grid node 7.
func wiredGrid() *sparse.CSR {
	const nx, ng = 8, 64
	b := sparse.NewBuilder(ng+11, ng+11)
	for j := 0; j < nx; j++ {
		for i := 0; i < nx; i++ {
			if i+1 < nx {
				b.AddSym(i+nx*j, i+1+nx*j, 1)
			}
			if j+1 < nx {
				b.AddSym(i+nx*j, i+nx*(j+1), 1)
			}
		}
	}
	chain := func(from, first, last, to int) {
		b.AddSym(from, first, 3)
		for k := first; k < last; k++ {
			b.AddSym(k, k+1, 5)
		}
		b.AddSym(last, to, 3)
	}
	chain(10, 64, 69, 50)
	chain(5, 70, 70, 60)
	chain(33, 71, 74, 7)
	for i := 0; i < ng+11; i++ {
		b.Add(i, i, 1e-2)
	}
	return b.ToCSR()
}

// denseFactor reads the lower-triangular factor L back from the copy the
// backward sweep uses: l_ii = 1/diag[i], l_{i+1,i} = upNb[i]·l_ii and the
// far entries l_ji = upVal·l_ii.
func denseFactor(p *IC0Prec) [][]float64 {
	l := make([][]float64, p.n)
	for i := range l {
		l[i] = make([]float64, p.n)
	}
	for i := 0; i < p.n; i++ {
		lii := 1 / p.diag[i]
		l[i][i] = lii
		if i+1 < p.n {
			l[i+1][i] = p.upNb[i] * lii
		}
		for k := p.upPtr[i]; k < p.upPtr[i+1]; k++ {
			l[p.upIdx[k]][i] = p.upVal[k] * lii
		}
	}
	return l
}

// twoSweep is the textbook solve of L Lᵀ x = r: forward substitution
// y_i = (r_i − Σ_{j<i} l_ij y_j)/l_ii, then backward substitution
// x_i = (y_i − Σ_{j>i} l_ji x_j)/l_ii.
func twoSweep(l [][]float64, r []float64) []float64 {
	n := len(r)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := r[i]
		for j := 0; j < i; j++ {
			s -= l[i][j] * y[j]
		}
		y[i] = s / l[i][i]
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= l[j][i] * x[j]
		}
		x[i] = s / l[i][i]
	}
	return x
}

// TestIC0ApplyMatchesTwoSweep pins Apply's register-recurrence solve
// against textbook substitution over the same factor. The factor is read
// back from the backward sweep's copy while Apply's forward sweep reads the
// other one, so a neighbour coefficient that is dropped, lands on the wrong
// row or is scaled by the wrong pivot in either sweep shows as a mismatch.
// Apply in place (dst aliasing r) must give the same bits.
func TestIC0ApplyMatchesTwoSweep(t *testing.T) {
	one := sparse.NewBuilder(1, 1)
	one.Add(0, 0, 4)
	two := sparse.NewBuilder(2, 2)
	two.AddSym(0, 1, 1.5)
	two.Add(0, 0, 2)
	two.Add(1, 1, 0.5)
	rng := rand.New(rand.NewPCG(31, 32))
	for _, tc := range []struct {
		name  string
		a     *sparse.CSR
		omega float64
	}{
		{"poisson ic0", poisson2D(12, 1e-2), 0},
		{"poisson mic0", poisson2D(12, 1e-2), 1},
		{"wired ic0", wiredGrid(), 0},
		{"wired mic0", wiredGrid(), 1},
		{"n=1", one.ToCSR(), 1},
		{"n=2 ic0", two.ToCSR(), 0},
		{"n=2 mic0", two.ToCSR(), 1},
	} {
		p, err := NewMIC0(tc.a, tc.omega)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		n := tc.a.Rows
		r := make([]float64, n)
		for i := range r {
			r[i] = rng.NormFloat64()
		}
		want := twoSweep(denseFactor(p), r)
		got := make([]float64, n)
		p.Apply(got, r)
		var diff, scale float64
		for i := range want {
			diff = math.Max(diff, math.Abs(got[i]-want[i]))
			scale = math.Max(scale, math.Abs(want[i]))
		}
		if diff > 1e-13*scale {
			t.Errorf("%s: Apply differs from the two-sweep solve by %.3g (max-norm %.3g)", tc.name, diff, scale)
		}
		p.Apply(r, r)
		for i := range r {
			if r[i] != got[i] {
				t.Fatalf("%s: in-place Apply differs at %d: %g vs %g", tc.name, i, r[i], got[i])
			}
		}
	}
}
