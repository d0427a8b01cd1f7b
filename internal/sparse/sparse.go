// Package sparse provides the sparse and dense linear-algebra primitives used
// by the FIT electrothermal solver: a coordinate-format builder, compressed
// sparse row matrices with pattern-stable in-place reassembly, and a small
// dense matrix type with LU factorization used for tests and lumped networks.
//
// All matrices are real-valued (float64). The package is self-contained and
// depends only on the standard library.
package sparse

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
)

// Builder accumulates matrix entries in coordinate (COO) form. Duplicate
// entries for the same (row, col) position are summed when converting to CSR,
// which matches the finite-integration "stamping" style of assembly.
type Builder struct {
	rows, cols int
	ri, ci     []int
	v          []float64
}

// NewBuilder returns a Builder for an rows×cols matrix.
func NewBuilder(rows, cols int) *Builder {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("sparse: negative dimensions %d×%d", rows, cols))
	}
	return &Builder{rows: rows, cols: cols}
}

// Rows returns the number of rows of the matrix under construction.
func (b *Builder) Rows() int { return b.rows }

// Cols returns the number of columns of the matrix under construction.
func (b *Builder) Cols() int { return b.cols }

// NNZ returns the number of accumulated (not yet deduplicated) entries.
func (b *Builder) NNZ() int { return len(b.v) }

// Add accumulates v at position (i, j).
func (b *Builder) Add(i, j int, v float64) {
	if i < 0 || i >= b.rows || j < 0 || j >= b.cols {
		panic(fmt.Sprintf("sparse: Add(%d,%d) out of bounds for %d×%d", i, j, b.rows, b.cols))
	}
	b.ri = append(b.ri, i)
	b.ci = append(b.ci, j)
	b.v = append(b.v, v)
}

// AddSym accumulates the 2×2 conductance stamp [g,-g;-g,g] for a branch
// between nodes i and j. This is the fundamental operation when assembling
// graph Laplacians such as S̃ Mσ G.
func (b *Builder) AddSym(i, j int, g float64) {
	b.Add(i, i, g)
	b.Add(j, j, g)
	b.Add(i, j, -g)
	b.Add(j, i, -g)
}

// ToCSR converts the accumulated entries to a CSR matrix, summing duplicates.
// The Builder remains usable afterwards. The (row, col) ordering is produced
// by a two-pass stable counting sort, so conversion is O(nnz + rows + cols)
// rather than O(nnz log nnz).
func (b *Builder) ToCSR() *CSR {
	n := len(b.v)

	// Pass 1: stable counting sort by column.
	colCur := make([]int, b.cols+1)
	for _, c := range b.ci {
		colCur[c+1]++
	}
	for j := 0; j < b.cols; j++ {
		colCur[j+1] += colCur[j]
	}
	byCol := make([]int, n)
	for k := 0; k < n; k++ {
		c := b.ci[k]
		byCol[colCur[c]] = k
		colCur[c]++
	}

	// Pass 2: stable counting sort by row; stability preserves the column
	// order within each row, so byRow is sorted by (row, col) with duplicate
	// positions adjacent.
	rowCur := make([]int, b.rows+1)
	for _, r := range b.ri {
		rowCur[r+1]++
	}
	for i := 0; i < b.rows; i++ {
		rowCur[i+1] += rowCur[i]
	}
	byRow := make([]int, n)
	for _, k := range byCol {
		r := b.ri[k]
		byRow[rowCur[r]] = k
		rowCur[r]++
	}

	m := &CSR{Rows: b.rows, Cols: b.cols,
		RowPtr: make([]int, b.rows+1),
		ColIdx: make([]int, 0, n),
		Val:    make([]float64, 0, n)}
	lastR, lastC := -1, -1
	for _, k := range byRow {
		r, c, v := b.ri[k], b.ci[k], b.v[k]
		if r == lastR && c == lastC {
			m.Val[len(m.Val)-1] += v
			continue
		}
		m.ColIdx = append(m.ColIdx, c)
		m.Val = append(m.Val, v)
		m.RowPtr[r+1]++
		lastR, lastC = r, c
	}
	for i := 0; i < b.rows; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	return m
}

// CSR is a compressed-sparse-row matrix. Column indices within each row are
// strictly increasing.
type CSR struct {
	Rows, Cols int
	RowPtr     []int
	ColIdx     []int
	Val        []float64

	// plan is the optional cache-blocked kernel layout built by Optimize;
	// MulVec and MulVecWorkers route through it when present. It is not
	// copied by Clone.
	plan *Plan
}

// NNZ returns the number of stored entries.
func (a *CSR) NNZ() int { return len(a.Val) }

// MulVec computes dst = A x. dst must have length Rows and x length Cols;
// dst and x must not alias.
func (a *CSR) MulVec(dst, x []float64) {
	if len(dst) != a.Rows || len(x) != a.Cols {
		panic(fmt.Sprintf("sparse: MulVec dimension mismatch: A is %d×%d, dst %d, x %d",
			a.Rows, a.Cols, len(dst), len(x)))
	}
	if p := a.Plan(); p != nil {
		p.MulVec(a.Val, dst, x)
		return
	}
	a.mulVecRows(dst, x, 0, a.Rows)
}

// mulVecRows computes dst[lo:hi] = (A x)[lo:hi] with the canonical per-row
// summation order: four strided accumulators over groups of four entries,
// remainder into the first, combined as (s0+s1)+(s2+s3). The independent
// accumulators hide the ~4-cycle add latency that a single left-to-right
// chain pays per entry. Every matvec kernel in this package — serial,
// row-blocked parallel, cache-blocked plan — sums rows in exactly this
// order, which is what makes all the paths bit-identical.
func (a *CSR) mulVecRows(dst, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		klo, khi := a.RowPtr[i], a.RowPtr[i+1]
		var s0, s1, s2, s3 float64
		k := klo
		for ; k+4 <= khi; k += 4 {
			s0 += a.Val[k] * x[a.ColIdx[k]]
			s1 += a.Val[k+1] * x[a.ColIdx[k+1]]
			s2 += a.Val[k+2] * x[a.ColIdx[k+2]]
			s3 += a.Val[k+3] * x[a.ColIdx[k+3]]
		}
		for ; k < khi; k++ {
			s0 += a.Val[k] * x[a.ColIdx[k]]
		}
		dst[i] = (s0 + s1) + (s2 + s3)
	}
}

// ParallelMinNNZ is the matrix size (stored entries) below which the
// row-blocked parallel matvec falls back to the serial loop: smaller systems
// lose more to goroutine scheduling than they gain from the extra cores.
const ParallelMinNNZ = 16384

// MulVecWorkers computes dst = A x, splitting the rows into contiguous
// blocks processed by up to `workers` goroutines (clamped to GOMAXPROCS).
// Every row is summed by the same kernel in the same order as MulVec, and no
// row is touched by two workers, so the result is bit-identical to the serial
// path for every worker count. workers <= 1 or fewer than ParallelMinNNZ
// stored entries fall back to the serial loop.
func (a *CSR) MulVecWorkers(dst, x []float64, workers int) {
	if len(dst) != a.Rows || len(x) != a.Cols {
		panic(fmt.Sprintf("sparse: MulVecWorkers dimension mismatch: A is %d×%d, dst %d, x %d",
			a.Rows, a.Cols, len(dst), len(x)))
	}
	if p := a.Plan(); p != nil {
		p.MulVecWorkers(a.Val, dst, x, workers)
		return
	}
	workers = ClampWorkers(workers, a.Rows)
	if workers <= 1 || a.NNZ() < ParallelMinNNZ {
		a.mulVecRows(dst, x, 0, a.Rows)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		lo := a.Rows * w / workers
		hi := a.Rows * (w + 1) / workers
		go func(lo, hi int) {
			defer wg.Done()
			a.mulVecRows(dst, x, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// ClampWorkers bounds a requested worker count to [1, min(GOMAXPROCS, n)]
// where n is the number of independent work items.
func ClampWorkers(workers, n int) int {
	if max := runtime.GOMAXPROCS(0); workers > max {
		workers = max
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// At returns the entry at (i, j), zero when not stored.
func (a *CSR) At(i, j int) float64 {
	if i < 0 || i >= a.Rows || j < 0 || j >= a.Cols {
		panic("sparse: At out of bounds")
	}
	lo, hi := a.RowPtr[i], a.RowPtr[i+1]
	row := a.ColIdx[lo:hi]
	k := sort.SearchInts(row, j)
	if k < len(row) && row[k] == j {
		return a.Val[lo+k]
	}
	return 0
}

// Find returns the value-slice index of entry (i, j) and whether it is stored.
// The index can be used to update Val in place during pattern-stable
// reassembly.
func (a *CSR) Find(i, j int) (int, bool) {
	if i < 0 || i >= a.Rows || j < 0 || j >= a.Cols {
		return 0, false
	}
	lo, hi := a.RowPtr[i], a.RowPtr[i+1]
	row := a.ColIdx[lo:hi]
	k := sort.SearchInts(row, j)
	if k < len(row) && row[k] == j {
		return lo + k, true
	}
	return 0, false
}

// Diag returns a copy of the main diagonal.
func (a *CSR) Diag() []float64 {
	n := a.Rows
	if a.Cols < n {
		n = a.Cols
	}
	d := make([]float64, n)
	a.DiagInto(d)
	return d
}

// DiagInto writes the main diagonal into dst (length min(Rows, Cols)),
// storing zero for absent entries. It is a single linear scan over the
// pattern, so repeated extraction (e.g. preconditioner refreshes) costs
// O(nnz) with no per-entry searches and no allocation.
func (a *CSR) DiagInto(dst []float64) {
	n := a.Rows
	if a.Cols < n {
		n = a.Cols
	}
	if len(dst) != n {
		panic("sparse: DiagInto length mismatch")
	}
	for i := 0; i < n; i++ {
		dst[i] = 0
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if c := a.ColIdx[k]; c >= i {
				if c == i {
					dst[i] = a.Val[k]
				}
				break
			}
		}
	}
}

// Zero sets every stored value to zero, keeping the pattern.
func (a *CSR) Zero() {
	for i := range a.Val {
		a.Val[i] = 0
	}
}

// Scale multiplies every stored value by s.
func (a *CSR) Scale(s float64) {
	for i := range a.Val {
		a.Val[i] *= s
	}
}

// Clone returns a deep copy.
func (a *CSR) Clone() *CSR {
	c := &CSR{Rows: a.Rows, Cols: a.Cols,
		RowPtr: append([]int(nil), a.RowPtr...),
		ColIdx: append([]int(nil), a.ColIdx...),
		Val:    append([]float64(nil), a.Val...)}
	return c
}

// Transpose returns Aᵀ as a new CSR matrix.
func (a *CSR) Transpose() *CSR {
	t := &CSR{Rows: a.Cols, Cols: a.Rows,
		RowPtr: make([]int, a.Cols+1),
		ColIdx: make([]int, a.NNZ()),
		Val:    make([]float64, a.NNZ()),
	}
	for _, c := range a.ColIdx {
		t.RowPtr[c+1]++
	}
	for i := 0; i < t.Rows; i++ {
		t.RowPtr[i+1] += t.RowPtr[i]
	}
	next := append([]int(nil), t.RowPtr...)
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			c := a.ColIdx[k]
			p := next[c]
			t.ColIdx[p] = i
			t.Val[p] = a.Val[k]
			next[c]++
		}
	}
	return t
}

// IsSymmetric reports whether |A - Aᵀ| entries all stay below tol relative to
// the largest magnitude entry.
func (a *CSR) IsSymmetric(tol float64) bool {
	if a.Rows != a.Cols {
		return false
	}
	maxAbs := 0.0
	for _, v := range a.Val {
		if m := math.Abs(v); m > maxAbs {
			maxAbs = m
		}
	}
	if maxAbs == 0 {
		return true
	}
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.ColIdx[k]
			if math.Abs(a.Val[k]-a.At(j, i)) > tol*maxAbs {
				return false
			}
		}
	}
	return true
}

// AddScaledSamePattern computes a.Val += s*b.Val, requiring a and b to share
// an identical sparsity pattern (it panics otherwise). Used to combine
// operators that were assembled on a merged pattern.
func (a *CSR) AddScaledSamePattern(s float64, b *CSR) {
	if a.Rows != b.Rows || a.Cols != b.Cols || len(a.Val) != len(b.Val) {
		panic("sparse: AddScaledSamePattern shape mismatch")
	}
	for i := range a.Val {
		a.Val[i] += s * b.Val[i]
	}
}

// AddToDiag adds d[i] to entry (i,i). Every diagonal entry must be present in
// the pattern; assemblies in this module always stamp the full diagonal. The
// scan is linear over the pattern (no per-entry binary searches).
func (a *CSR) AddToDiag(d []float64) {
	if len(d) != a.Rows {
		panic("sparse: AddToDiag length mismatch")
	}
	for i, v := range d {
		if v == 0 {
			continue
		}
		found := false
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if c := a.ColIdx[k]; c >= i {
				if c == i {
					a.Val[k] += v
					found = true
				}
				break
			}
		}
		if !found {
			panic(fmt.Sprintf("sparse: AddToDiag: diagonal entry %d not in pattern", i))
		}
	}
}

// ToDense converts to a dense matrix (intended for tests and small systems).
func (a *CSR) ToDense() *Dense {
	d := NewDense(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			d.Set(i, a.ColIdx[k], a.Val[k])
		}
	}
	return d
}

// Identity returns the n×n identity in CSR form.
func Identity(n int) *CSR {
	m := &CSR{Rows: n, Cols: n,
		RowPtr: make([]int, n+1),
		ColIdx: make([]int, n),
		Val:    make([]float64, n)}
	for i := 0; i < n; i++ {
		m.RowPtr[i+1] = i + 1
		m.ColIdx[i] = i
		m.Val[i] = 1
	}
	return m
}

// DiagCSR returns a diagonal CSR matrix with diagonal d.
func DiagCSR(d []float64) *CSR {
	n := len(d)
	m := &CSR{Rows: n, Cols: n,
		RowPtr: make([]int, n+1),
		ColIdx: make([]int, n),
		Val:    append([]float64(nil), d...)}
	for i := 0; i < n; i++ {
		m.RowPtr[i+1] = i + 1
		m.ColIdx[i] = i
	}
	return m
}

// Dot returns the Euclidean inner product of x and y.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("sparse: Dot length mismatch")
	}
	s := 0.0
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 { return math.Sqrt(Dot(x, x)) }

// NormInf returns the maximum-magnitude entry of x.
func NormInf(x []float64) float64 {
	m := 0.0
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Axpy computes y += a*x in place.
func Axpy(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic("sparse: Axpy length mismatch")
	}
	for i := range x {
		y[i] += a * x[i]
	}
}
