package uq

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
)

// Design is the explicit node set of a sparse-grid collocation rule: the
// distinct evaluation points of the Smolyak combination technique with
// their aggregated (possibly negative) quadrature weights. Enumeration and
// evaluation are separate steps, so the same model evaluations can feed
// both the quadrature moments and a regression fit (PCE surrogate
// construction), and points shared between tensor terms — or between the
// designs of two adjacent levels — are evaluated once.
type Design struct {
	Points  [][]float64 // distinct nodes in parameter space, first-seen order
	Weights []float64   // combined combination-technique weight per node
}

// pointKey is the exact-bits identity of a node: two nodes merge only when
// every coordinate is the same float64.
func pointKey(p []float64) string {
	b := make([]byte, 8*len(p))
	for i, v := range p {
		binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(v))
	}
	return string(b)
}

// SmolyakDesign enumerates the Smolyak sparse grid of the given level
// (level ≥ 0; level 0 is the single-point rule) over the given normal laws
// (any other law is an error) with the combination technique over
// non-nested Gauss–Hermite rules:
//
//	A(q,d) = Σ_{q−d+1 ≤ |i| ≤ q} (−1)^{q−|i|} C(d−1, q−|i|) ⊗_j U^{i_j}
//
// with q = d + level and the 1D rule U^i using i points. It returns the
// distinct nodes with summed weights; Eval and Moments then integrate a
// model on them. The cost grows polynomially in d — for d = 12, level 2
// needs a few hundred evaluations versus 1000 for the paper's Monte Carlo
// study. Enumeration order is deterministic, so the design — and
// everything fitted on it — is reproducible bit for bit.
func SmolyakDesign(dists []Dist, level int) (*Design, error) {
	d := len(dists)
	if d == 0 {
		return nil, fmt.Errorf("uq: no dimensions")
	}
	if level < 0 {
		return nil, fmt.Errorf("uq: negative Smolyak level %d", level)
	}
	q := d + level

	type ruleKey struct{ j, n int }
	rules := map[ruleKey]struct {
		params  []float64
		weights []float64
	}{}
	getRule := func(j, n int) ([]float64, []float64, error) {
		k := ruleKey{j, n}
		if r, ok := rules[k]; ok {
			return r.params, r.weights, nil
		}
		r, params, err := RuleFor(dists[j], n)
		if err != nil {
			return nil, nil, err
		}
		rules[k] = struct {
			params  []float64
			weights []float64
		}{params, r.Weights}
		return params, r.Weights, nil
	}

	des := &Design{}
	seen := map[string]int{}

	multi := make([]int, d)
	var walk func(j, remMin, remMax int) error
	addTensor := func(coeff float64) error {
		idx := make([]int, d)
		for {
			w := coeff
			params := make([]float64, d)
			for j := 0; j < d; j++ {
				p, ws, err := getRule(j, multi[j])
				if err != nil {
					return err
				}
				params[j] = p[idx[j]]
				w *= ws[idx[j]]
			}
			if at, ok := seen[pointKey(params)]; ok {
				des.Weights[at] += w
			} else {
				seen[pointKey(params)] = len(des.Points)
				des.Points = append(des.Points, params)
				des.Weights = append(des.Weights, w)
			}
			j := 0
			for ; j < d; j++ {
				idx[j]++
				if idx[j] < multi[j] {
					break
				}
				idx[j] = 0
			}
			if j == d {
				return nil
			}
		}
	}
	walk = func(j, remMin, remMax int) error {
		if j == d-1 {
			lo := remMin
			if lo < 1 {
				lo = 1
			}
			for v := lo; v <= remMax; v++ {
				multi[j] = v
				total := 0
				for _, x := range multi {
					total += x
				}
				diff := q - total
				coeff := float64(sign(diff)) * binom(d-1, diff)
				if coeff != 0 {
					if err := addTensor(coeff); err != nil {
						return err
					}
				}
			}
			return nil
		}
		for v := 1; v <= remMax-(d-1-j); v++ {
			multi[j] = v
			if err := walk(j+1, remMin-v, remMax-v); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(0, q-d+1, q); err != nil {
		return nil, err
	}
	return des, nil
}

// Eval runs the model at every design point (serially, panic-isolated) and
// returns the per-point output vectors. ctx cancellation is checked between
// evaluations, so a long FEM-backed build can be abandoned cleanly.
func (des *Design) Eval(ctx context.Context, factory ModelFactory) ([][]float64, error) {
	m, err := factory()
	if err != nil {
		return nil, err
	}
	nOut := m.NumOutputs()
	outputs := make([][]float64, len(des.Points))
	for i, p := range des.Points {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out := make([]float64, nOut)
		if err := safeEval(m, p, out); err != nil {
			return nil, fmt.Errorf("uq: design evaluation %d failed: %w", i, err)
		}
		outputs[i] = out
	}
	return outputs, nil
}

// Moments integrates the given per-point outputs against the design
// weights, yielding the sparse-grid mean and variance of every output.
func (des *Design) Moments(outputs [][]float64) (*CollocationResult, error) {
	if len(outputs) != len(des.Points) {
		return nil, fmt.Errorf("uq: %d output rows for a %d-point design", len(outputs), len(des.Points))
	}
	if len(des.Points) == 0 {
		return nil, fmt.Errorf("uq: empty design")
	}
	nOut := len(outputs[0])
	mean := make([]float64, nOut)
	second := make([]float64, nOut)
	for i, out := range outputs {
		w := des.Weights[i]
		for k, v := range out {
			mean[k] += w * v
			second[k] += w * v * v
		}
	}
	res := &CollocationResult{Mean: mean, Variance: make([]float64, nOut), Evaluations: len(des.Points)}
	for k := range second {
		res.Variance[k] = second[k] - mean[k]*mean[k]
	}
	return res, nil
}

// Bound returns the largest coordinate magnitude over all design points:
// the per-axis extent of the trained region in germ space when the
// distributions are standard normal.
func (des *Design) Bound() float64 {
	b := 0.0
	for _, p := range des.Points {
		for _, v := range p {
			if a := math.Abs(v); a > b {
				b = a
			}
		}
	}
	return b
}

func sign(k int) int {
	if k%2 == 0 {
		return 1
	}
	return -1
}

func binom(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	r := 1.0
	for i := 1; i <= k; i++ {
		r = r * float64(n-k+i) / float64(i)
	}
	return r
}
