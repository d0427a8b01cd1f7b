package solver

import (
	"errors"
	"fmt"
	"math"

	"etherm/internal/sparse"
)

// IC0Prec is a zero-fill incomplete Cholesky preconditioner A ≈ L Lᵀ where L
// keeps the sparsity pattern of the lower triangle of A, optionally with
// Gustafsson's modified-IC diagonal compensation (see NewMIC0). It
// substantially reduces CG iteration counts on the FIT Laplacians.
//
// The factor is stored twice: row-major (the forward solve walks rows of L)
// and column-major (the backward solve walks rows of Lᵀ), so both triangular
// solves are gather loops with unit-stride writes. Column indices are int32
// to halve the index-array memory traffic, and the diagonal is kept inverted
// so the solves multiply instead of divide. Apply is the hottest kernel of
// the whole simulator — every CG iteration runs both solves.
//
// The pattern (and the index maps into the source matrix) are extracted once
// by NewIC0/NewMIC0; Refresh refactorizes in place for new numeric values on
// the same pattern, allocating nothing.
type IC0Prec struct {
	n     int
	omega float64 // modified-IC relaxation; 0 is plain IC(0)

	rowPtr []int32 // lower-triangular pattern, strictly-lower entries
	colIdx []int32
	val    []float64
	diag   []float64 // working diagonal, then diagonal of L
	invDg  []float64 // 1 / diag(L)
	work   []float64

	// Transposed view of the strictly-lower pattern: up-row i holds the
	// entries of column i of L, i.e. (j, i) for j > i. lowPos maps each
	// transposed slot to its position in val; upVal mirrors the factor for
	// the gather-based backward solve.
	upPtr  []int32
	upIdx  []int32
	upVal  []float64
	lowPos []int32

	// Index maps into the source matrix: srcLower[k] is the a.Val position
	// of the k-th strictly-lower pattern entry, srcDiag[i] of diagonal i
	// (-1 when absent). srcNNZ guards Refresh against pattern changes.
	srcLower []int32
	srcDiag  []int32
	srcNNZ   int
}

// micPivotFloor rejects factorizations whose compensated pivot collapses
// relative to the original diagonal: a technically-positive but tiny pivot
// yields a near-singular factor that is worse than falling back.
const micPivotFloor = 1e-12

// NewIC0 computes an IC(0) factorization of the symmetric positive definite
// matrix a. It returns an error when a pivot becomes non-positive, in which
// case callers should fall back to Jacobi preconditioning.
func NewIC0(a *sparse.CSR) (*IC0Prec, error) {
	return NewMIC0(a, 0)
}

// NewMIC0 computes a relaxed modified IC(0) factorization: fill outside the
// pattern that plain IC(0) would silently drop is instead moved onto the two
// diagonals it connects, scaled by omega (Gustafsson's compensation).
// omega = 0 is plain IC(0); omega = 1 preserves row sums exactly, which
// makes the preconditioner exact on constant vectors — a dramatic iteration
// cut for the near-uniform temperature and potential fields of this code's
// FIT operators. The compensation lowers pivots, so factorization failure is
// more likely than for plain IC(0); the simulator falls back to Jacobi.
func NewMIC0(a *sparse.CSR, omega float64) (*IC0Prec, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, errors.New("solver: IC0 needs a square matrix")
	}
	if omega < 0 || omega > 1 {
		return nil, fmt.Errorf("solver: MIC0 relaxation %g outside [0, 1]", omega)
	}

	// Count the strictly-lower entries so every slice is sized exactly once.
	nLower := 0
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if a.ColIdx[k] < i {
				nLower++
			}
		}
	}
	p := &IC0Prec{
		n:      n,
		omega:  omega,
		rowPtr: make([]int32, n+1),
		colIdx: make([]int32, 0, nLower),
		val:    make([]float64, nLower),
		diag:   make([]float64, n),
		invDg:  make([]float64, n),
		work:   make([]float64, n),
		upPtr:  make([]int32, n+1),
		upIdx:  make([]int32, nLower),
		upVal:  make([]float64, nLower),
		lowPos: make([]int32, nLower),

		srcLower: make([]int32, 0, nLower),
		srcDiag:  make([]int32, n),
		srcNNZ:   a.NNZ(),
	}

	// Extract the strictly-lower triangle pattern plus diagonal positions.
	for i := 0; i < n; i++ {
		p.srcDiag[i] = -1
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.ColIdx[k]
			if j < i {
				p.colIdx = append(p.colIdx, int32(j))
				p.srcLower = append(p.srcLower, int32(k))
			} else if j == i {
				p.srcDiag[i] = int32(k)
			}
		}
		p.rowPtr[i+1] = int32(len(p.colIdx))
	}

	// Transposed pattern: counting pass over the lower column indices.
	cnt := make([]int32, n)
	for _, c := range p.colIdx {
		cnt[c]++
	}
	for i := 0; i < n; i++ {
		p.upPtr[i+1] = p.upPtr[i] + cnt[i]
	}
	next := append([]int32(nil), p.upPtr[:n]...)
	for i := 0; i < n; i++ {
		for k := p.rowPtr[i]; k < p.rowPtr[i+1]; k++ {
			c := p.colIdx[k]
			p.upIdx[next[c]] = int32(i)
			p.lowPos[next[c]] = int32(k)
			next[c]++
		}
	}

	if err := p.Refresh(a); err != nil {
		return nil, err
	}
	return p, nil
}

// Omega returns the modified-IC relaxation the factor was built with.
func (p *IC0Prec) Omega() float64 { return p.omega }

// Refresh refactorizes in place for the current numeric values of a, which
// must have the sparsity pattern the factor was extracted from (same matrix
// object, or an identical pattern). It allocates nothing; on a failed pivot
// the factor is left invalid and callers should rebuild or fall back,
// exactly as for a failed NewIC0/NewMIC0.
func (p *IC0Prec) Refresh(a *sparse.CSR) error {
	if a.Rows != p.n || a.Cols != p.n || a.NNZ() != p.srcNNZ {
		return errors.New("solver: IC0 refresh pattern mismatch")
	}
	for k, src := range p.srcLower {
		p.val[k] = a.Val[src]
	}
	for i, src := range p.srcDiag {
		if src >= 0 {
			p.diag[i] = a.Val[src]
		} else {
			p.diag[i] = 0
		}
	}

	// Right-looking (outer-product) factorization over columns: after
	// eliminating column j, the Schur update −L(i1,j)·L(i2,j) lands on
	// pattern entry (i2, i1) when it exists; otherwise the fill is dropped
	// (plain IC0) or moved onto the diagonals i1 and i2 with weight omega
	// (modified IC0). For omega = 0 this computes the same factor as the
	// classical up-looking IC(0) sweep.
	for j := 0; j < p.n; j++ {
		d := p.diag[j]
		var d0 float64
		if src := p.srcDiag[j]; src >= 0 {
			d0 = math.Abs(a.Val[src])
		}
		if d <= 0 || d <= micPivotFloor*d0 {
			return fmt.Errorf("solver: IC0 non-positive pivot at row %d (omega=%g); matrix not sufficiently SPD", j, p.omega)
		}
		dj := math.Sqrt(d)
		p.diag[j] = dj
		inv := 1 / dj
		p.invDg[j] = inv
		lo, hi := p.upPtr[j], p.upPtr[j+1]
		for k := lo; k < hi; k++ {
			p.val[p.lowPos[k]] *= inv
		}
		for ka := lo; ka < hi; ka++ {
			i1 := p.upIdx[ka]
			la := p.val[p.lowPos[ka]]
			p.diag[i1] -= la * la
			for kb := ka + 1; kb < hi; kb++ {
				i2 := p.upIdx[kb]
				prod := la * p.val[p.lowPos[kb]]
				// Pattern entry (i2, i1), i2 > i1: the lower row i2 is short
				// and sorted, so a linear scan with early exit finds it.
				found := false
				for k := p.rowPtr[i2]; k < p.rowPtr[i2+1]; k++ {
					if c := p.colIdx[k]; c >= i1 {
						if c == i1 {
							p.val[k] -= prod
							found = true
						}
						break
					}
				}
				if !found && p.omega != 0 {
					p.diag[i1] -= p.omega * prod
					p.diag[i2] -= p.omega * prod
				}
			}
		}
	}

	// Mirror the factor into the transposed layout for the backward solve.
	for k, low := range p.lowPos {
		p.upVal[k] = p.val[low]
	}
	return nil
}

// Apply solves L Lᵀ dst = r.
func (p *IC0Prec) Apply(dst, r []float64) {
	y := p.work
	// Forward solve L y = r, gathering along rows of L.
	for i := 0; i < p.n; i++ {
		s := r[i]
		for k := p.rowPtr[i]; k < p.rowPtr[i+1]; k++ {
			s -= p.val[k] * y[p.colIdx[k]]
		}
		y[i] = s * p.invDg[i]
	}
	// Backward solve Lᵀ dst = y, gathering along rows of Lᵀ (columns of L).
	for i := p.n - 1; i >= 0; i-- {
		s := y[i]
		for k := p.upPtr[i]; k < p.upPtr[i+1]; k++ {
			s -= p.upVal[k] * dst[p.upIdx[k]]
		}
		dst[i] = s * p.invDg[i]
	}
}
