package uq

import (
	"context"
	"fmt"
	"math"
	"testing"
)

// TestSmolyakDesignMatchesCollocation checks the explicit design against
// the recursive reference evaluator: same moments, and never more model
// evaluations (node dedup across tensor terms can only shrink the count).
func TestSmolyakDesignMatchesCollocation(t *testing.T) {
	dists := []Dist{Normal{1, 0.5}, Normal{-2, 0.25}, Normal{0, 1}}
	model := &polyModel{c: []float64{1, 2, 3}, q: 1.5}
	for level := 1; level <= 3; level++ {
		ref, err := smolyakCollocation(SingleFactory(model), dists, level)
		if err != nil {
			t.Fatal(err)
		}
		des, err := SmolyakDesign(dists, level)
		if err != nil {
			t.Fatal(err)
		}
		outs, err := des.Eval(context.Background(), SingleFactory(model))
		if err != nil {
			t.Fatal(err)
		}
		mom, err := des.Moments(outs)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(mom.Mean[0]-ref.Mean[0]) > 1e-9 {
			t.Errorf("level %d: design mean %g vs collocation %g", level, mom.Mean[0], ref.Mean[0])
		}
		if math.Abs(mom.Variance[0]-ref.Variance[0]) > 1e-9*(1+ref.Variance[0]) {
			t.Errorf("level %d: design var %g vs collocation %g", level, mom.Variance[0], ref.Variance[0])
		}
		if len(des.Points) > ref.Evaluations {
			t.Errorf("level %d: design has %d distinct nodes, collocation evaluated %d",
				level, len(des.Points), ref.Evaluations)
		}
		if mom.Evaluations != len(des.Points) {
			t.Errorf("level %d: moments report %d evals, design has %d", level, mom.Evaluations, len(des.Points))
		}
	}
}

// TestSmolyakDesignWeightsNormalized: quadrature weights of a Smolyak rule
// sum to one (the constant function integrates exactly).
func TestSmolyakDesignWeightsNormalized(t *testing.T) {
	dists := []Dist{Normal{0, 1}, Normal{0, 1}}
	for level := 1; level <= 4; level++ {
		des, err := SmolyakDesign(dists, level)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, w := range des.Weights {
			sum += w
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("level %d: weights sum to %g, want 1", level, sum)
		}
		if des.Bound() <= 0 {
			t.Errorf("level %d: nonpositive germ bound %g", level, des.Bound())
		}
	}
}

// TestSmolyakDesignCancellation: a canceled context aborts the evaluation.
func TestSmolyakDesignCancellation(t *testing.T) {
	dists := []Dist{Normal{0, 1}, Normal{0, 1}}
	des, err := SmolyakDesign(dists, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := des.Eval(ctx, SingleFactory(&polyModel{c: []float64{1, 1}})); err == nil {
		t.Fatal("evaluation survived a canceled context")
	}
}

// smolyakCollocation is the recursive reference evaluator for
// SmolyakDesign: it integrates the model over the same combination
// technique in one fused pass, evaluating every tensor term's nodes
// without merging the nodes that terms share.
func smolyakCollocation(factory ModelFactory, dists []Dist, level int) (*CollocationResult, error) {
	d := len(dists)
	if d == 0 {
		return nil, fmt.Errorf("uq: no dimensions")
	}
	if level < 0 {
		return nil, fmt.Errorf("uq: negative Smolyak level %d", level)
	}
	m, err := factory()
	if err != nil {
		return nil, err
	}
	nOut := m.NumOutputs()
	q := d + level

	// Cache 1D rules per (dimension, points).
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

	mean := make([]float64, nOut)
	second := make([]float64, nOut)
	evals := 0

	// Enumerate multi-indices i ≥ 1 with q−d+1 ≤ |i| ≤ q.
	multi := make([]int, d)
	var walk func(j, remMin, remMax int) error
	var evalTensor func(coeff float64) error

	evalTensor = func(coeff float64) error {
		idx := make([]int, d)
		params := make([]float64, d)
		out := make([]float64, nOut)
		for {
			w := coeff
			for j := 0; j < d; j++ {
				p, ws, err := getRule(j, multi[j])
				if err != nil {
					return err
				}
				params[j] = p[idx[j]]
				w *= ws[idx[j]]
			}
			if err := safeEval(m, params, out); err != nil {
				return fmt.Errorf("uq: Smolyak evaluation failed: %w", err)
			}
			evals++
			for k, v := range out {
				mean[k] += w * v
				second[k] += w * v * v
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
					if err := evalTensor(coeff); err != nil {
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

	res := &CollocationResult{Mean: mean, Variance: make([]float64, nOut), Evaluations: evals}
	for k := range second {
		res.Variance[k] = second[k] - mean[k]*mean[k]
	}
	return res, nil
}
