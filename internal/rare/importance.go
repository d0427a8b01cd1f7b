package rare

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"

	"etherm/internal/pool"
)

// ISConfig parameterizes mean-shift importance sampling: draws come from
// N(Shift, I) instead of N(0, I), and each sample is reweighted by the
// density ratio φ(z)/φ_shift(z) = exp(−z·s + |s|²/2). A shift toward the
// failure domain turns a 1e-6 event into an O(1) one at the cost of
// weight variance — effective when the designer knows the failure
// direction (for bond wires: long, thin, hot).
type ISConfig struct {
	// Threshold is the failure level: PF = P(g ≥ Threshold).
	Threshold float64
	// Shift is the germ-space mean shift (length = dimension).
	Shift []float64
	// N is the sample count.
	N int
	// Seed keys the per-index sample streams.
	Seed uint64
	// Workers caps concurrent limit-state evaluations (default 1).
	Workers int
}

// ISResult is the outcome of an importance-sampling run.
type ISResult struct {
	// PF estimates P(g ≥ Threshold) as the weighted failure fraction.
	PF float64 `json:"p_fail"`
	// SE is the standard error of the weighted mean.
	SE float64 `json:"se"`
	// N is the number of evaluations.
	N int `json:"n"`
	// ESS is Kish's effective sample size Σw² heuristic — a small value
	// relative to N flags a poorly chosen shift.
	ESS float64 `json:"ess"`
}

// CoV returns SE/PF (infinite when no weighted failure was seen).
func (r *ISResult) CoV() float64 {
	if r.PF == 0 {
		return math.Inf(1)
	}
	return r.SE / r.PF
}

// RunImportance estimates PF by mean-shift importance sampling. Sample i
// is a pure function of (Seed, i), and the weighted fold runs in index
// order — bit-identical for any Workers value.
func RunImportance(ctx context.Context, lsf LimitStateFactory, cfg ISConfig) (*ISResult, error) {
	dim := len(cfg.Shift)
	if dim < 1 {
		return nil, fmt.Errorf("rare: importance sampling needs a shift vector")
	}
	if cfg.N < 2 {
		return nil, fmt.Errorf("rare: importance sampling needs N ≥ 2, got %d", cfg.N)
	}
	shift2 := 0.0
	for _, s := range cfg.Shift {
		shift2 += s * s
	}

	lss, err := limitStates(lsf, cfg.Workers, cfg.N)
	if err != nil {
		return nil, err
	}

	// Each sample's weighted failure indicator, folded in index order.
	mean, m2, sumW, sumW2 := 0.0, 0.0, 0.0, 0.0
	err = pool.Run(ctx, lss, 0, cfg.N,
		func(ls LimitState, i int, v *float64) error {
			rng := rand.New(rand.NewPCG(cfg.Seed, chainKey(cfg.Seed, -1, i)))
			z := make([]float64, dim)
			dot := 0.0
			for j := range z {
				z[j] = cfg.Shift[j] + norm01(rng)
				dot += z[j] * cfg.Shift[j]
			}
			g, err := ls(z)
			if err != nil {
				return fmt.Errorf("rare: limit state at sample %d: %w", i, err)
			}
			*v = 0
			if g >= cfg.Threshold {
				*v = math.Exp(-dot + shift2/2)
			}
			return nil
		},
		func(i int, v *float64) bool {
			d := *v - mean
			mean += d / float64(i+1)
			m2 += d * (*v - mean)
			sumW += *v
			sumW2 += *v * *v
			return true
		})
	if err != nil {
		return nil, err
	}
	n := float64(cfg.N)
	res := &ISResult{PF: mean, SE: math.Sqrt(m2 / (n - 1) / n), N: cfg.N}
	if sumW2 > 0 {
		res.ESS = sumW * sumW / sumW2
	}
	return res, nil
}
