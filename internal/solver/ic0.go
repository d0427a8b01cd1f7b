package solver

import (
	"errors"
	"fmt"
	"math"

	"etherm/internal/sparse"
)

// IC0Prec is a zero-fill incomplete Cholesky preconditioner A ≈ L Lᵀ where L
// keeps the sparsity pattern of the lower triangle of A, optionally with
// Gustafsson's modified-IC diagonal compensation (see NewMIC0). It is the
// factorization of both FIT operators: plain IC(0) on the electric one,
// MIC0 on the thermal one. Apply is the hottest kernel of the whole
// simulator — every CG iteration runs both triangular solves.
//
// The factor is laid out for those solves, not for reading back L. Each
// sweep is a row recurrence
//
//	y_i = r_i/l_ii − Σ_far (l_ij/l_ii)·y_j − c_i·y_{i∓1}
//
// so every off-diagonal entry is stored pre-multiplied by its row's inverse
// pivot, and the one entry that couples a row to the row solved just before
// it — (i, i−1) in the forward sweep, (i+1, i) in the backward one — is
// pulled out of the gather loop as the per-row coefficient c_i. That
// previous value is carried in a register, so the chain from one row to the
// next is one multiply and one subtract; the far gathers read values solved
// rows earlier and overlap with it. The forward sweep walks rows of L and
// the backward sweep rows of Lᵀ (columns of L), so the far entries are kept
// twice, each copy scaled by its own row's pivot. Column indices are int32
// to halve the index-array memory traffic.
//
// The pattern (and the index maps into the source matrix) are extracted once
// by NewIC0/NewMIC0; Refresh refactorizes in place for new numeric values on
// the same pattern, allocating nothing.
type IC0Prec struct {
	n     int
	omega float64 // modified-IC relaxation; 0 is plain IC(0)

	// Forward sweep, rows of L: the far entries (i, j), j < i−1, as
	// l_ij/l_ii, and nb[i] = l_{i,i−1}/l_ii (0 when (i, i−1) is not in the
	// pattern).
	rowPtr []int32
	colIdx []int32
	val    []float64
	nb     []float64

	// Backward sweep, rows of Lᵀ: up-row i holds the far entries (j, i),
	// j > i+1, as l_ji/l_ii, and upNb[i] = l_{i+1,i}/l_ii. Refresh factorizes
	// in this column-major layout on the raw values of L, then scales it;
	// lowPos maps each up slot to the val slot of the same entry.
	upPtr  []int32
	upIdx  []int32
	upVal  []float64
	upNb   []float64
	lowPos []int32

	diag []float64 // working diagonal while factorizing, then 1/l_ii

	// Index maps into the source matrix: srcUp[k] is the a.Val position of
	// the entry in up slot k, srcNb[i] of (i+1, i) and srcDiag[i] of (i, i)
	// (-1 when absent). srcNNZ guards Refresh against pattern changes.
	srcUp   []int32
	srcNb   []int32
	srcDiag []int32
	srcNNZ  int
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
	p := &IC0Prec{
		n:       n,
		omega:   omega,
		rowPtr:  make([]int32, n+1),
		nb:      make([]float64, n),
		upPtr:   make([]int32, n+1),
		upNb:    make([]float64, n),
		diag:    make([]float64, n),
		srcNb:   make([]int32, n),
		srcDiag: make([]int32, n),
		srcNNZ:  a.NNZ(),
	}

	// Classify the lower triangle: the diagonal, the neighbour (i, i−1)
	// and the far entries, counted per row and per column so every slice
	// is sized exactly once.
	for i := range p.srcNb {
		p.srcNb[i], p.srcDiag[i] = -1, -1
	}
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			switch j := a.ColIdx[k]; {
			case j == i:
				p.srcDiag[i] = int32(k)
			case j == i-1:
				p.srcNb[j] = int32(k)
			case j < i-1:
				p.rowPtr[i+1]++
				p.upPtr[j+1]++
			}
		}
	}
	for i := 0; i < n; i++ {
		p.rowPtr[i+1] += p.rowPtr[i]
		p.upPtr[i+1] += p.upPtr[i]
	}
	nFar := p.rowPtr[n]
	p.colIdx = make([]int32, nFar)
	p.val = make([]float64, nFar)
	p.upIdx = make([]int32, nFar)
	p.upVal = make([]float64, nFar)
	p.lowPos = make([]int32, nFar)
	p.srcUp = make([]int32, nFar)

	// Fill both far layouts in one pass over the rows: rows ascend, so each
	// up-row (column of L) fills in ascending row order.
	next := append([]int32(nil), p.upPtr[:n]...)
	var f int32
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if j := a.ColIdx[k]; j < i-1 {
				u := next[j]
				next[j]++
				p.colIdx[f] = int32(j)
				p.upIdx[u] = int32(i)
				p.lowPos[u] = f
				p.srcUp[u] = int32(k)
				f++
			}
		}
	}

	if err := p.Refresh(a); err != nil {
		return nil, err
	}
	return p, nil
}

// Refresh refactorizes in place for the current numeric values of a, which
// must have the sparsity pattern the factor was extracted from (same matrix
// object, or an identical pattern). It allocates nothing; on a failed pivot
// the factor is left invalid and callers should rebuild or fall back,
// exactly as for a failed NewIC0/NewMIC0.
func (p *IC0Prec) Refresh(a *sparse.CSR) error {
	if a.Rows != p.n || a.Cols != p.n || a.NNZ() != p.srcNNZ {
		return errors.New("solver: IC0 refresh pattern mismatch")
	}
	for k, src := range p.srcUp {
		p.upVal[k] = a.Val[src]
	}
	for i := range p.diag {
		p.diag[i], p.upNb[i] = 0, 0
		if src := p.srcDiag[i]; src >= 0 {
			p.diag[i] = a.Val[src]
		}
		if src := p.srcNb[i]; src >= 0 {
			p.upNb[i] = a.Val[src]
		}
	}

	// Right-looking (outer-product) factorization over the columns of L,
	// each the neighbour (j+1, j) followed by the far entries: after
	// eliminating column j, the Schur update −l_{i1,j}·l_{i2,j} lands on
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
		inv := 1 / math.Sqrt(d)
		p.diag[j] = inv
		lo, hi := p.upPtr[j], p.upPtr[j+1]
		rows, col := p.upIdx[lo:hi], p.upVal[lo:hi]
		for k := range col {
			col[k] *= inv
		}
		if p.srcNb[j] >= 0 {
			l := p.upNb[j] * inv
			p.upNb[j] = l
			p.diag[j+1] -= l * l
			for k, i2 := range rows {
				p.schur(j+1, int(i2), l*col[k])
			}
		}
		for ka, i1 := range rows {
			la := col[ka]
			p.diag[i1] -= la * la
			for kb := ka + 1; kb < len(rows); kb++ {
				p.schur(int(i1), int(rows[kb]), la*col[kb])
			}
		}
	}

	// Scale into the solve layout: each copy of an entry by the inverse
	// pivot of the row it sits in during its sweep.
	for j := 0; j < p.n; j++ {
		inv := p.diag[j]
		for k := p.upPtr[j]; k < p.upPtr[j+1]; k++ {
			p.val[p.lowPos[k]] = p.upVal[k] * p.diag[p.upIdx[k]]
			p.upVal[k] *= inv
		}
		if j+1 < p.n {
			p.nb[j+1] = p.upNb[j] * p.diag[j+1]
		}
		p.upNb[j] *= inv
	}
	return nil
}

// schur applies the fill prod = l_{i1,j}·l_{i2,j}, i2 > i1, of one column's
// Schur update: it is subtracted from the factor entry (i2, i1) when the
// pattern has one, and otherwise moved onto both diagonals with weight
// omega. Column i1 of L is short and sorted, so a linear scan with early
// exit finds the entry.
func (p *IC0Prec) schur(i1, i2 int, prod float64) {
	if i2 == i1+1 {
		if p.srcNb[i1] >= 0 {
			p.upNb[i1] -= prod
			return
		}
	} else {
		for k := p.upPtr[i1]; k < p.upPtr[i1+1]; k++ {
			if r := int(p.upIdx[k]); r >= i2 {
				if r == i2 {
					p.upVal[k] -= prod
					return
				}
				break
			}
		}
	}
	if p.omega != 0 {
		p.diag[i1] -= p.omega * prod
		p.diag[i2] -= p.omega * prod
	}
}

// Apply solves L Lᵀ dst = r. Both sweeps run in dst, which may alias r:
// the forward sweep overwrites dst[i] with y_i after reading r[i], and the
// backward sweep overwrites y_i with the solution.
func (p *IC0Prec) Apply(dst, r []float64) {
	n := p.n
	dst, r = dst[:n], r[:n]
	inv, nb, upNb := p.diag[:n], p.nb[:n], p.upNb[:n]
	rowPtr, colIdx, val := p.rowPtr[:n+1], p.colIdx, p.val
	upPtr, upIdx, upVal := p.upPtr[:n+1], p.upIdx, p.upVal

	// Forward sweep L y = r; prev carries y_{i−1}.
	var prev float64
	for i := 0; i < n; i++ {
		s := r[i] * inv[i]
		for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
			s -= val[k] * dst[colIdx[k]]
		}
		prev = s - nb[i]*prev
		dst[i] = prev
	}
	// Backward sweep Lᵀ x = y; prev carries x_{i+1}.
	prev = 0
	for i := n - 1; i >= 0; i-- {
		s := dst[i] * inv[i]
		for k := upPtr[i]; k < upPtr[i+1]; k++ {
			s -= upVal[k] * dst[upIdx[k]]
		}
		prev = s - upNb[i]*prev
		dst[i] = prev
	}
}
