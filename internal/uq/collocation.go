package uq

import (
	"fmt"
	"math"
)

// CollocationResult holds the statistics computed from a (sparse) tensor
// collocation study.
type CollocationResult struct {
	Mean, Variance []float64 // per output
	Evaluations    int
}

// StdDev returns the standard deviation of output j (negative variances from
// sparse-grid cancellation are clamped at zero).
func (r *CollocationResult) StdDev(j int) float64 {
	if r.Variance[j] < 0 {
		return 0
	}
	return math.Sqrt(r.Variance[j])
}

// TensorCollocation computes E[f] and Var[f] with a full tensor-product
// Gauss–Hermite rule of n points per dimension over normal laws (any other
// law is an error). Cost n^d evaluations — use for small d or as a dense
// reference for the Smolyak grid.
func TensorCollocation(factory ModelFactory, dists []Dist, n int) (*CollocationResult, error) {
	d := len(dists)
	if d == 0 {
		return nil, fmt.Errorf("uq: no dimensions")
	}
	total := 1
	for j := 0; j < d; j++ {
		total *= n
		if total > 2_000_000 {
			return nil, fmt.Errorf("uq: tensor grid of %d^%d points is too large; use SmolyakDesign", n, d)
		}
	}
	m, err := factory()
	if err != nil {
		return nil, err
	}
	nodes := make([][]float64, d)
	weights := make([][]float64, d)
	for j := 0; j < d; j++ {
		r, params, err := RuleFor(dists[j], n)
		if err != nil {
			return nil, err
		}
		nodes[j] = params
		weights[j] = r.Weights
	}
	nOut := m.NumOutputs()
	mean := make([]float64, nOut)
	second := make([]float64, nOut)
	params := make([]float64, d)
	out := make([]float64, nOut)
	idx := make([]int, d)
	evals := 0
	for {
		w := 1.0
		for j := 0; j < d; j++ {
			params[j] = nodes[j][idx[j]]
			w *= weights[j][idx[j]]
		}
		if err := safeEval(m, params, out); err != nil {
			return nil, fmt.Errorf("uq: collocation evaluation failed: %w", err)
		}
		evals++
		for k, v := range out {
			mean[k] += w * v
			second[k] += w * v * v
		}
		// Advance the mixed-radix counter.
		j := 0
		for ; j < d; j++ {
			idx[j]++
			if idx[j] < n {
				break
			}
			idx[j] = 0
		}
		if j == d {
			break
		}
	}
	res := &CollocationResult{Mean: mean, Variance: make([]float64, nOut), Evaluations: evals}
	for k := range second {
		res.Variance[k] = second[k] - mean[k]*mean[k]
	}
	return res, nil
}
