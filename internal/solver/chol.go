package solver

import (
	"errors"
	"fmt"
	"math"

	"etherm/internal/sparse"
)

// ErrCholesky reports that the threshold-Cholesky preconditioner cannot be
// built for a matrix (a non-positive pivot, or a matrix too large for int32
// indexing).
var ErrCholesky = errors.New("solver: incomplete Cholesky unavailable")

// ndLeafSize is the partition size below which nested dissection stops and
// keeps the natural order.
const ndLeafSize = 48

// CholPrec is the dual-threshold incomplete Cholesky factorization
// P A Pᵀ ≈ L Lᵀ (ICT) used as a CG preconditioner. P is a fill-reducing
// nested-dissection permutation computed from the pattern once at
// construction. Per factor column, only the lfil largest magnitudes above a
// drop threshold are kept: at 2–4× fill this cuts the thermal CG
// iterations of a chip run 1.6–2.5× below MIC0's, but each iteration costs
// more and MIC0 wins on wall time (DESIGN.md §5b), so the simulator no
// longer runs it. Refresh refactorizes numerically in place
// (allocation-free) for new values on the same pattern.
//
// Its remaining callers time it for the benchmark: the per-layer kernel
// probe of bench/etbench (solver.precond_build, _refresh and _apply) and
// the root BenchmarkSolverReuse and BenchmarkAblationPreconditioner. It
// leaves the tree with the next change to the benchmark, which moves those
// probes onto the factor the simulator runs.
//
// The factor is stored column-major with the diagonal entry first in each
// column, so the forward solve is a scatter loop and the backward solve a
// gather loop, both streaming sequentially over the factor.
type CholPrec struct {
	n int

	dropTol float64 // drop l_ij with |l_ij| ≤ dropTol·l_jj
	lfil    int     // max kept off-diagonal entries per column

	perm  []int32 // perm[k]: original index of the k-th eliminated DOF
	iperm []int32 // inverse permutation

	colPtr []int32 // L column pointers; rows ascending, diagonal first
	rowIdx []int32
	val    []float64
	inv    []float64 // 1 / diag(L)

	// Scatter map from source-matrix entries to permuted lower-triangle
	// columns: entries [srcPtr[j], srcPtr[j+1]) belong to permuted column j,
	// srcPos indexes a.Val and srcRow is the permuted destination row.
	srcPtr []int32
	srcPos []int32
	srcRow []int32
	srcNNZ int

	// Numeric-refactorization workspace (link lists of the left-looking
	// update) and permuted solve scratch.
	w         []float64
	head, nxt []int32
	ptr       []int32
	pr        []float64

	// Scratch of the dual-threshold selection: the touched-row set of the
	// current column and the candidate heap.
	marker  []int32
	touch   []int32
	candRow []int32
	candVal []float64
	keepRow []int32
	keepVal []float64
}

// newCholBase computes the pattern-only ingredients of the factorization:
// the fill-reducing ordering and the scatter map from source entries to
// permuted lower-triangle columns.
func newCholBase(a *sparse.CSR) (*CholPrec, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, errors.New("solver: Cholesky needs a square matrix")
	}
	if a.NNZ() > 1<<31-1 {
		return nil, fmt.Errorf("%w: matrix too large for int32 indexing", ErrCholesky)
	}
	c := &CholPrec{n: n, srcNNZ: a.NNZ()}
	c.perm = fillReducingOrder(a)
	c.iperm = make([]int32, n)
	for k, v := range c.perm {
		c.iperm[v] = int32(k)
	}
	// Scatter map: each source entry lands in the permuted lower triangle
	// (entries with pi < pj are the mirror of a lower entry and are skipped;
	// symmetric matrices carry both).
	c.srcPtr = make([]int32, n+1)
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			pi, pj := c.iperm[i], c.iperm[a.ColIdx[k]]
			if pi >= pj {
				c.srcPtr[pj+1]++
			}
		}
	}
	for j := 0; j < n; j++ {
		c.srcPtr[j+1] += c.srcPtr[j]
	}
	c.srcPos = make([]int32, c.srcPtr[n])
	c.srcRow = make([]int32, c.srcPtr[n])
	srcNext := append([]int32(nil), c.srcPtr[:n]...)
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			pi, pj := c.iperm[i], c.iperm[a.ColIdx[k]]
			if pi >= pj {
				c.srcPos[srcNext[pj]] = int32(k)
				c.srcRow[srcNext[pj]] = pi
				srcNext[pj]++
			}
		}
	}
	c.inv = make([]float64, n)
	c.w = make([]float64, n)
	c.head = make([]int32, n)
	c.nxt = make([]int32, n)
	c.ptr = make([]int32, n)
	c.pr = make([]float64, n)
	return c, nil
}

// Default ICT parameters: ictDropTol drops l_ij with magnitude below this
// multiple of the pivot l_jj; ictLFil caps the kept off-diagonal entries per
// column. The defaults were tuned on the chip benchmark meshes — see
// DESIGN.md §solver kernels for the sweep.
const (
	ictDropTol = 3e-4
	ictLFil    = 16
)

// NewICT builds the dual-threshold incomplete Cholesky preconditioner:
// per factor column, off-diagonal entries with |l_ij| ≤ dropTol·l_jj are
// dropped and at most lfil of the largest survivors are kept. dropTol/lfil
// of zero select the tuned defaults. The pattern is recomputed numerically
// at every Refresh (the factorization is pattern-free), so Refresh tracks
// value changes exactly like the level-0 factors do — without allocating.
func NewICT(a *sparse.CSR, dropTol float64, lfil int) (*CholPrec, error) {
	c, err := newCholBase(a)
	if err != nil {
		return nil, err
	}
	if dropTol <= 0 {
		dropTol = ictDropTol
	}
	if lfil <= 0 {
		lfil = ictLFil
	}
	c.dropTol = dropTol
	c.lfil = lfil
	n := c.n
	budget := n + n*lfil
	c.colPtr = make([]int32, n+1)
	c.rowIdx = make([]int32, budget)
	c.val = make([]float64, budget)
	c.marker = make([]int32, n)
	for i := range c.marker {
		c.marker[i] = -1
	}
	c.touch = make([]int32, n)
	c.candRow = make([]int32, n)
	c.candVal = make([]float64, n)
	c.keepRow = make([]int32, lfil)
	c.keepVal = make([]float64, lfil)
	if err := c.Refresh(a); err != nil {
		return nil, err
	}
	return c, nil
}

// NNZ returns the number of stored entries of the factor (fill included).
func (c *CholPrec) NNZ() int { return int(c.colPtr[c.n]) }

// weakerKeep orders dropped-entry candidates: entry 1 is weaker than entry 2
// if its magnitude is smaller, with row index breaking ties so the selection
// is deterministic.
func weakerKeep(v1 float64, r1 int32, v2 float64, r2 int32) bool {
	a1, a2 := math.Abs(v1), math.Abs(v2)
	if a1 != a2 {
		return a1 < a2
	}
	return r1 > r2
}

func (c *CholPrec) keepSiftDown(size int) {
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		weakest := i
		if l < size && weakerKeep(c.keepVal[l], c.keepRow[l], c.keepVal[weakest], c.keepRow[weakest]) {
			weakest = l
		}
		if r < size && weakerKeep(c.keepVal[r], c.keepRow[r], c.keepVal[weakest], c.keepRow[weakest]) {
			weakest = r
		}
		if weakest == i {
			return
		}
		c.keepVal[i], c.keepVal[weakest] = c.keepVal[weakest], c.keepVal[i]
		c.keepRow[i], c.keepRow[weakest] = c.keepRow[weakest], c.keepRow[i]
		i = weakest
	}
}

func (c *CholPrec) keepSiftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !weakerKeep(c.keepVal[i], c.keepRow[i], c.keepVal[p], c.keepRow[p]) {
			return
		}
		c.keepVal[i], c.keepVal[p] = c.keepVal[p], c.keepVal[i]
		c.keepRow[i], c.keepRow[p] = c.keepRow[p], c.keepRow[i]
		i = p
	}
}

// Refresh refactorizes numerically for the current values of a (same
// pattern), allocating nothing. It runs the left-looking sparse column
// Cholesky driven by link lists of pending column updates with
// dual-threshold dropping: the pattern of each column is whatever survives
// the drop tolerance and the lfil cap, recomputed from the current values.
// Later columns only consume entries that survived in earlier columns; the
// per-column scatter set is tracked dynamically (marker + touch list).
func (c *CholPrec) Refresh(a *sparse.CSR) error {
	if a.Rows != c.n || a.Cols != c.n || a.NNZ() != c.srcNNZ {
		return errors.New("solver: Cholesky refresh pattern mismatch")
	}
	n := c.n
	// marker must be cleared too: stamps are column indices, so a stamp left
	// by the previous refresh would alias the same column this time around,
	// silently dropping the entry and accumulating onto a stale workspace.
	for i := 0; i < n; i++ {
		c.head[i] = -1
		c.marker[i] = -1
	}
	pos := int32(0)
	for j := 0; j < n; j++ {
		j32 := int32(j)
		nt := 0
		for s := c.srcPtr[j]; s < c.srcPtr[j+1]; s++ {
			r := c.srcRow[s]
			if c.marker[r] != j32 {
				c.marker[r] = j32
				c.touch[nt] = r
				nt++
				c.w[r] = 0
			}
			c.w[r] += a.Val[c.srcPos[s]]
		}
		if c.marker[j] != j32 {
			return fmt.Errorf("%w: empty diagonal at permuted row %d", ErrCholesky, j)
		}
		ajj := math.Abs(c.w[j])
		for k := c.head[j]; k != -1; {
			kNext := c.nxt[k]
			p := c.ptr[k]
			ljk := c.val[p]
			for q := p; q < c.colPtr[k+1]; q++ {
				r := c.rowIdx[q]
				if c.marker[r] != j32 {
					c.marker[r] = j32
					c.touch[nt] = r
					nt++
					c.w[r] = 0
				}
				c.w[r] -= c.val[q] * ljk
			}
			if p+1 < c.colPtr[k+1] {
				r := c.rowIdx[p+1]
				c.ptr[k] = p + 1
				c.nxt[k] = c.head[r]
				c.head[r] = k
			}
			k = kNext
		}
		d := c.w[j]
		if d <= 0 || d <= micPivotFloor*ajj || math.IsNaN(d) {
			return fmt.Errorf("%w: non-positive pivot at permuted row %d", ErrCholesky, j)
		}
		// Dual-threshold selection: candidates must exceed the drop
		// tolerance (|w| > dropTol·d ⇔ |l_ij| > dropTol·l_jj), then the
		// lfil largest magnitudes are kept via a weakest-at-root heap.
		thresh := c.dropTol * d
		nc := 0
		for t := 0; t < nt; t++ {
			r := c.touch[t]
			if r == j32 {
				continue
			}
			v := c.w[r]
			if v > thresh || v < -thresh {
				c.candRow[nc] = r
				c.candVal[nc] = v
				nc++
			}
		}
		kk := 0
		if nc <= c.lfil {
			kk = nc
			copy(c.keepRow[:kk], c.candRow[:kk])
			copy(c.keepVal[:kk], c.candVal[:kk])
		} else {
			for i := 0; i < nc; i++ {
				r, v := c.candRow[i], c.candVal[i]
				if kk < c.lfil {
					c.keepRow[kk] = r
					c.keepVal[kk] = v
					kk++
					c.keepSiftUp(kk - 1)
				} else if weakerKeep(c.keepVal[0], c.keepRow[0], v, r) {
					c.keepVal[0] = v
					c.keepRow[0] = r
					c.keepSiftDown(kk)
				}
			}
		}
		// The link-list machinery needs each column's rows ascending.
		for i := 1; i < kk; i++ {
			r, v := c.keepRow[i], c.keepVal[i]
			m := i - 1
			for m >= 0 && c.keepRow[m] > r {
				c.keepRow[m+1] = c.keepRow[m]
				c.keepVal[m+1] = c.keepVal[m]
				m--
			}
			c.keepRow[m+1] = r
			c.keepVal[m+1] = v
		}
		ljj := math.Sqrt(d)
		inv := 1 / ljj
		c.inv[j] = inv
		dpos := pos
		c.colPtr[j] = pos
		c.rowIdx[pos] = j32
		c.val[pos] = ljj
		pos++
		for i := 0; i < kk; i++ {
			c.rowIdx[pos] = c.keepRow[i]
			c.val[pos] = c.keepVal[i] * inv
			pos++
		}
		c.colPtr[j+1] = pos
		if dpos+1 < pos {
			r := c.rowIdx[dpos+1]
			c.ptr[j] = dpos + 1
			c.nxt[j] = c.head[r]
			c.head[r] = j32
		}
	}
	return nil
}

// Apply solves P A Pᵀ ≈ L Lᵀ: dst = Pᵀ (L Lᵀ)⁻¹ P r.
//
// The forward solve scatters independent updates per column and the backward
// solve gathers with four accumulators: factor columns average an order of
// magnitude more entries than the rows of the level-0 factors, which is what
// lets these loops hide the gather latency.
func (c *CholPrec) Apply(dst, r []float64) {
	n := c.n
	x := c.pr
	val, rowIdx := c.val, c.rowIdx
	for k := 0; k < n; k++ {
		x[k] = r[c.perm[k]]
	}
	// Forward scatter solve L y = x.
	for j := 0; j < n; j++ {
		yj := x[j] * c.inv[j]
		x[j] = yj
		for q := c.colPtr[j] + 1; q < c.colPtr[j+1]; q++ {
			x[rowIdx[q]] -= val[q] * yj
		}
	}
	// Backward gather solve Lᵀ z = y.
	for j := n - 1; j >= 0; j-- {
		lo, hi := c.colPtr[j]+1, c.colPtr[j+1]
		var s0, s1, s2, s3 float64
		q := lo
		for ; q+4 <= hi; q += 4 {
			s0 += val[q] * x[rowIdx[q]]
			s1 += val[q+1] * x[rowIdx[q+1]]
			s2 += val[q+2] * x[rowIdx[q+2]]
			s3 += val[q+3] * x[rowIdx[q+3]]
		}
		for ; q < hi; q++ {
			s0 += val[q] * x[rowIdx[q]]
		}
		x[j] = (x[j] - ((s0 + s1) + (s2 + s3))) * c.inv[j]
	}
	for k := 0; k < n; k++ {
		dst[c.perm[k]] = x[k]
	}
}

// fillReducingOrder computes a nested-dissection ordering of the adjacency
// graph of a: partitions are split by BFS level sets from a pseudo-
// peripheral node, the middle level becomes the separator (eliminated last),
// and partitions at or below ndLeafSize keep their natural order. The
// construction is deterministic: ties always resolve to the lowest index.
func fillReducingOrder(a *sparse.CSR) []int32 {
	n := a.Rows
	s := &ndState{
		a:     a,
		level: make([]int32, n),
		queue: make([]int32, 0, n),
		order: make([]int32, 0, n),
	}
	all := make([]int32, n)
	for i := range all {
		all[i] = int32(i)
	}
	s.dissect(all)
	return s.order
}

type ndState struct {
	a     *sparse.CSR
	level []int32
	queue []int32
	order []int32
}

// bfs runs a breadth-first search from start over the nodes whose level is
// currently cleared to -1, writing levels and appending visits to s.queue
// (which it resets). It returns the number of visited nodes and the maximum
// level.
func (s *ndState) bfs(start int32) (visited int, maxLev int32) {
	s.queue = s.queue[:0]
	s.queue = append(s.queue, start)
	s.level[start] = 0
	for head := 0; head < len(s.queue); head++ {
		u := s.queue[head]
		lu := s.level[u]
		if lu > maxLev {
			maxLev = lu
		}
		for k := s.a.RowPtr[u]; k < s.a.RowPtr[u+1]; k++ {
			v := int32(s.a.ColIdx[k])
			if v != u && s.level[v] == -1 {
				s.level[v] = lu + 1
				s.queue = append(s.queue, v)
			}
		}
	}
	return len(s.queue), maxLev
}

func (s *ndState) dissect(nodes []int32) {
	if len(nodes) <= ndLeafSize {
		s.order = append(s.order, nodes...)
		return
	}
	for _, v := range nodes {
		s.level[v] = -1
	}
	visited, _ := s.bfs(nodes[0])
	if visited < len(nodes) {
		// Disconnected partition: recurse on the reached component and the
		// remainder independently (no separator needed).
		comp := append([]int32(nil), s.queue...)
		rest := make([]int32, 0, len(nodes)-visited)
		for _, v := range nodes {
			if s.level[v] == -1 {
				rest = append(rest, v)
			}
		}
		s.dissect(comp)
		s.dissect(rest)
		return
	}
	// Pseudo-peripheral restart: BFS again from the deepest node of the
	// first sweep (lowest index among the deepest).
	far := s.queue[len(s.queue)-1]
	for _, v := range nodes {
		s.level[v] = -1
	}
	_, maxLev := s.bfs(far)
	if maxLev < 2 {
		// Too shallow to split by levels; the partition is (nearly) a
		// clique and natural order is as good as any.
		s.order = append(s.order, nodes...)
		return
	}
	// Split at the level whose prefix is closest to half the nodes. The BFS
	// queue visits levels in order, so prefix counts come from a single scan.
	half := len(nodes) / 2
	cut := int32(1)
	prefix := 0
	for _, v := range s.queue {
		if s.level[v] < int32(cut) {
			prefix++
		}
	}
	bestDiff := abs(prefix - half)
	count := prefix
	for lev := cut + 1; lev < maxLev; lev++ {
		for _, v := range s.queue {
			if s.level[v] == lev-1 {
				count++
			}
		}
		if d := abs(count - half); d < bestDiff {
			bestDiff = d
			cut = lev
			prefix = count
		}
	}
	left := make([]int32, 0, prefix)
	sep := make([]int32, 0, len(nodes)/8)
	right := make([]int32, 0, len(nodes)-prefix)
	for _, v := range s.queue {
		switch {
		case s.level[v] < cut:
			left = append(left, v)
		case s.level[v] == cut:
			sep = append(sep, v)
		default:
			right = append(right, v)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		s.order = append(s.order, nodes...)
		return
	}
	s.dissect(left)
	s.dissect(right)
	s.order = append(s.order, sep...)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
