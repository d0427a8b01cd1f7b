package sparse

import "sync"

// planBlockNNZ is the target number of stored entries per row block of a
// Plan. 2048 entries keep a block's values (16 KiB) plus its int32 column
// indices (8 KiB) inside L1 together with the gathered stretch of x, which
// is what makes the blocked kernels faster than the plain CSR loop on the
// solver's L2-resident operators.
const planBlockNNZ = 2048

// Plan is the cache-blocked kernel layout of a CSR matrix: the same pattern
// re-encoded with int32 row pointers and column indices and partitioned into
// contiguous row blocks of roughly planBlockNNZ stored entries. The values
// are shared with the owning CSR (pattern-stable reassembly writes them in
// place and the plan sees the update for free).
//
// Every kernel on the plan walks rows in ascending order and sums each row
// left to right — the identical floating-point operation order as the
// reference CSR kernels — so blocked, parallel and scalar paths are
// bit-identical for every worker count.
type Plan struct {
	rows, nnz int // pattern stamp; the plan is stale if the CSR changed shape

	rowPtr []int32
	colIdx []int32
	blocks []int32 // row indices of block boundaries; blocks[0]=0, blocks[nb]=rows
}

// Optimize builds (or returns) the blocked kernel plan of a. The plan is
// rebuilt only if the matrix shape changed since the last call; the intended
// use is one call at assembly time, after which pattern-stable SetValues
// reassembly keeps it valid. Matrices too large for int32 indexing are left
// without a plan (nil is returned) and keep using the reference kernels.
func (a *CSR) Optimize() *Plan {
	if a.plan != nil && a.plan.rows == a.Rows && a.plan.nnz == a.NNZ() {
		return a.plan
	}
	a.plan = nil
	if a.Cols > 1<<31-1 || a.NNZ() > 1<<31-1 {
		return nil
	}
	p := &Plan{
		rows:   a.Rows,
		nnz:    a.NNZ(),
		rowPtr: make([]int32, a.Rows+1),
		colIdx: make([]int32, a.NNZ()),
	}
	for i := 0; i <= a.Rows; i++ {
		p.rowPtr[i] = int32(a.RowPtr[i])
	}
	for k, c := range a.ColIdx {
		p.colIdx[k] = int32(c)
	}
	p.blocks = append(p.blocks, 0)
	for i := 0; i < a.Rows; {
		start := a.RowPtr[i]
		j := i
		for j < a.Rows && a.RowPtr[j+1]-start <= planBlockNNZ {
			j++
		}
		if j == i {
			j = i + 1 // a single row larger than the budget gets its own block
		}
		p.blocks = append(p.blocks, int32(j))
		i = j
	}
	a.plan = p
	return p
}

// Plan returns the current kernel plan, or nil when none was built or the
// matrix shape changed since Optimize.
func (a *CSR) Plan() *Plan {
	if a.plan != nil && (a.plan.rows != a.Rows || a.plan.nnz != a.NNZ()) {
		return nil
	}
	return a.plan
}

// NumBlocks returns the number of row blocks of the plan.
func (p *Plan) NumBlocks() int { return len(p.blocks) - 1 }

// mulVecBlockRange computes dst[i] = Σ val[k] x[col[k]] for the rows of
// blocks [b0, b1) in the canonical four-accumulator order of CSR.mulVecRows.
func (p *Plan) mulVecBlockRange(val, dst, x []float64, b0, b1 int) {
	for b := b0; b < b1; b++ {
		lo, hi := int(p.blocks[b]), int(p.blocks[b+1])
		for i := lo; i < hi; i++ {
			klo, khi := p.rowPtr[i], p.rowPtr[i+1]
			var s0, s1, s2, s3 float64
			k := klo
			for ; k+4 <= khi; k += 4 {
				s0 += val[k] * x[p.colIdx[k]]
				s1 += val[k+1] * x[p.colIdx[k+1]]
				s2 += val[k+2] * x[p.colIdx[k+2]]
				s3 += val[k+3] * x[p.colIdx[k+3]]
			}
			for ; k < khi; k++ {
				s0 += val[k] * x[p.colIdx[k]]
			}
			dst[i] = (s0 + s1) + (s2 + s3)
		}
	}
}

// MulVec computes dst = A x on the blocked layout; bit-identical to
// CSR.MulVec.
func (p *Plan) MulVec(val []float64, dst, x []float64) {
	p.mulVecBlockRange(val, dst, x, 0, p.NumBlocks())
}

// MulVecDot computes dst = A x and returns xᵀ dst in one pass, summing rows
// in the canonical order and the dot in ascending row order — bit-identical
// to a matvec followed by Dot.
func (p *Plan) MulVecDot(val []float64, dst, x []float64) float64 {
	dot := 0.0
	for b := 0; b < p.NumBlocks(); b++ {
		lo, hi := int(p.blocks[b]), int(p.blocks[b+1])
		for i := lo; i < hi; i++ {
			klo, khi := p.rowPtr[i], p.rowPtr[i+1]
			var s0, s1, s2, s3 float64
			k := klo
			for ; k+4 <= khi; k += 4 {
				s0 += val[k] * x[p.colIdx[k]]
				s1 += val[k+1] * x[p.colIdx[k+1]]
				s2 += val[k+2] * x[p.colIdx[k+2]]
				s3 += val[k+3] * x[p.colIdx[k+3]]
			}
			for ; k < khi; k++ {
				s0 += val[k] * x[p.colIdx[k]]
			}
			s := (s0 + s1) + (s2 + s3)
			dst[i] = s
			dot += x[i] * s
		}
	}
	return dot
}

// MulVecWorkers computes dst = A x, distributing contiguous runs of row
// blocks over up to `workers` goroutines. Row results are computed by the
// same kernel in the same order as the serial path, so the result is
// bit-identical for every worker count.
func (p *Plan) MulVecWorkers(val []float64, dst, x []float64, workers int) {
	nb := p.NumBlocks()
	workers = ClampWorkers(workers, nb)
	if workers <= 1 || p.nnz < ParallelMinNNZ {
		p.mulVecBlockRange(val, dst, x, 0, nb)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		b0 := nb * w / workers
		b1 := nb * (w + 1) / workers
		go func(b0, b1 int) {
			defer wg.Done()
			p.mulVecBlockRange(val, dst, x, b0, b1)
		}(b0, b1)
	}
	wg.Wait()
}
