package uq

import (
	"fmt"
	"math"

	"etherm/internal/sparse"
)

// PCE is a polynomial-chaos expansion in normalized probabilists' Hermite
// polynomials over independent standard-normal germs, fitted non-intrusively
// by least-squares regression. Mean, variance and Sobol' indices follow
// analytically from the coefficients.
type PCE struct {
	Dim, Order int
	Indices    [][]int     // multi-indices α, Indices[0] = 0
	Coeff      [][]float64 // [output][basis]
	NumOutputs int
}

// totalOrderIndices enumerates all multi-indices with |α|₁ ≤ p.
func totalOrderIndices(d, p int) [][]int {
	var out [][]int
	idx := make([]int, d)
	var rec func(j, rem int)
	rec = func(j, rem int) {
		if j == d {
			out = append(out, append([]int(nil), idx...))
			return
		}
		for v := 0; v <= rem; v++ {
			idx[j] = v
			rec(j+1, rem-v)
		}
		idx[j] = 0
	}
	rec(0, p)
	return out
}

// hermiteProb evaluates the normalized probabilists' Hermite polynomial
// He_n(x)/√(n!) (orthonormal under N(0,1)).
func hermiteProb(n int, x float64) float64 {
	p0, p1 := 1.0, x
	if n == 0 {
		return 1
	}
	for k := 2; k <= n; k++ {
		p0, p1 = p1, x*p1-float64(k-1)*p0
	}
	return p1 / math.Sqrt(factorial(n))
}

// FitPCE fits a total-order-p expansion from training data: germs are the
// standard-normal transforms of the inputs under the given (normal)
// distributions. The number of samples should exceed ~2× the basis size.
func FitPCE(dists []Dist, params, outputs [][]float64, order int) (*PCE, error) {
	d := len(dists)
	if d == 0 || order < 0 {
		return nil, fmt.Errorf("uq: invalid PCE setup (d=%d, order=%d)", d, order)
	}
	if len(params) != len(outputs) || len(params) == 0 {
		return nil, fmt.Errorf("uq: PCE needs matching, non-empty training data")
	}
	idx := totalOrderIndices(d, order)
	nb := len(idx)
	m := len(params)
	if m < nb {
		return nil, fmt.Errorf("uq: PCE with %d basis functions needs ≥ %d samples, got %d", nb, nb, m)
	}
	nOut := len(outputs[0])

	// Design matrix Ψ (m×nb): ψ_α(ξ_i) with ξ the standard-normal germ.
	psi := make([][]float64, m)
	for i := range psi {
		psi[i] = make([]float64, nb)
		xi := make([]float64, d)
		for j := 0; j < d; j++ {
			// Germ: ξ = Φ⁻¹(F(x)).
			u := dists[j].CDF(params[i][j])
			if u < 1e-15 {
				u = 1e-15
			}
			if u > 1-1e-15 {
				u = 1 - 1e-15
			}
			xi[j] = Normal{0, 1}.Quantile(u)
		}
		for b, alpha := range idx {
			v := 1.0
			for j, a := range alpha {
				if a > 0 {
					v *= hermiteProb(a, xi[j])
				}
			}
			psi[i][b] = v
		}
	}

	// Normal equations ΨᵀΨ c = Ψᵀ y, solved densely per output.
	ata := sparse.NewDense(nb, nb)
	for i := 0; i < m; i++ {
		for a := 0; a < nb; a++ {
			for b := a; b < nb; b++ {
				ata.Add(a, b, psi[i][a]*psi[i][b])
			}
		}
	}
	for a := 0; a < nb; a++ {
		for b := 0; b < a; b++ {
			ata.Set(a, b, ata.At(b, a))
		}
		ata.Add(a, a, 1e-10*float64(m)) // tiny ridge for conditioning
	}
	lu, err := ata.Factor()
	if err != nil {
		return nil, fmt.Errorf("uq: PCE normal equations singular: %w", err)
	}

	p := &PCE{Dim: d, Order: order, Indices: idx, NumOutputs: nOut, Coeff: make([][]float64, nOut)}
	rhs := make([]float64, nb)
	for k := 0; k < nOut; k++ {
		for b := range rhs {
			rhs[b] = 0
		}
		for i := 0; i < m; i++ {
			y := outputs[i][k]
			for b := 0; b < nb; b++ {
				rhs[b] += psi[i][b] * y
			}
		}
		p.Coeff[k] = lu.Solve(rhs)
	}
	return p, nil
}

// Mean returns the PCE mean of output k (the constant coefficient).
func (p *PCE) Mean(k int) float64 { return p.Coeff[k][0] }

// Variance returns the PCE variance of output k: Σ_{α≠0} c_α² for the
// orthonormal basis.
func (p *PCE) Variance(k int) float64 {
	v := 0.0
	for b := 1; b < len(p.Indices); b++ {
		c := p.Coeff[k][b]
		v += c * c
	}
	return v
}

// StdDev returns √Variance for output k.
func (p *PCE) StdDev(k int) float64 { return math.Sqrt(p.Variance(k)) }

// MainSobol returns the first-order Sobol' index of input j for output k:
// the variance share of basis terms involving only dimension j.
func (p *PCE) MainSobol(k, j int) float64 {
	tot := p.Variance(k)
	if tot == 0 {
		return 0
	}
	s := 0.0
	for b := 1; b < len(p.Indices); b++ {
		alpha := p.Indices[b]
		only := alpha[j] > 0
		for jj, a := range alpha {
			if jj != j && a > 0 {
				only = false
				break
			}
		}
		if only {
			c := p.Coeff[k][b]
			s += c * c
		}
	}
	return s / tot
}

// TotalSobol returns the total-effect Sobol' index of input j for output k:
// the variance share of all basis terms involving dimension j.
func (p *PCE) TotalSobol(k, j int) float64 {
	tot := p.Variance(k)
	if tot == 0 {
		return 0
	}
	s := 0.0
	for b := 1; b < len(p.Indices); b++ {
		if p.Indices[b][j] > 0 {
			c := p.Coeff[k][b]
			s += c * c
		}
	}
	return s / tot
}

// NumBasis returns the number of basis functions in the expansion.
func (p *PCE) NumBasis() int { return len(p.Indices) }

// BasisGerm fills psi (length NumBasis) with the orthonormal basis
// evaluated at the standard-normal germ vector xi (length Dim). Splitting
// basis evaluation from the coefficient dot product lets one germ serve
// every output — the surrogate query path evaluates all wires from a
// single basis vector.
func (p *PCE) BasisGerm(xi, psi []float64) {
	// Per-dimension Hermite table up to the expansion order.
	stride := p.Order + 1
	h := make([]float64, p.Dim*stride)
	for j := 0; j < p.Dim; j++ {
		for a := 0; a <= p.Order; a++ {
			h[j*stride+a] = hermiteProb(a, xi[j])
		}
	}
	for b, alpha := range p.Indices {
		v := 1.0
		for j, a := range alpha {
			if a > 0 {
				v *= h[j*stride+a]
			}
		}
		psi[b] = v
	}
}

// DotBasis returns the expansion value of output k for a basis vector
// produced by BasisGerm.
func (p *PCE) DotBasis(psi []float64, k int) float64 {
	v := 0.0
	for b, c := range p.Coeff[k] {
		v += c * psi[b]
	}
	return v
}

// Eval evaluates the fitted surrogate at physical parameters x for output k.
func (p *PCE) Eval(dists []Dist, x []float64, k int) float64 {
	xi := make([]float64, p.Dim)
	for j := 0; j < p.Dim; j++ {
		u := dists[j].CDF(x[j])
		if u < 1e-15 {
			u = 1e-15
		}
		if u > 1-1e-15 {
			u = 1 - 1e-15
		}
		xi[j] = Normal{0, 1}.Quantile(u)
	}
	v := 0.0
	for b, alpha := range p.Indices {
		t := 1.0
		for j, a := range alpha {
			if a > 0 {
				t *= hermiteProb(a, xi[j])
			}
		}
		v += p.Coeff[k][b] * t
	}
	return v
}
