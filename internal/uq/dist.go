// Package uq implements the uncertainty-quantification machinery of the
// paper and its natural extensions: the normal input law, every Monte
// Carlo and quasi-Monte Carlo sampler (pseudo-random, Latin hypercube,
// Halton, Sobol' plain or Owen-scrambled, and randomized QMC with its
// replicate estimator), Gauss–Hermite quadrature, tensor/Smolyak
// stochastic collocation, non-intrusive polynomial chaos and Sobol'
// sensitivity indices, plus a deterministic parallel sampling driver: the
// streaming campaign (RunCampaign: constant-memory online accumulators,
// adaptive stopping, resumable checkpoints) and its sharded form
// (RunShard, MergeShards).
//
// The paper quantifies the wire-temperature variability with plain Monte
// Carlo (section IV-C, M = 1000) and notes that "the application of other
// methods is straightforward"; the additional methods here are those other
// methods.
package uq

import "math"

// Dist is a univariate distribution for an uncertain input parameter.
type Dist interface {
	// Quantile maps u ∈ (0,1) to the distribution's u-quantile (inverse CDF).
	Quantile(u float64) float64
	// CDF evaluates the cumulative distribution at x.
	CDF(x float64) float64
}

// Normal is the N(Mu, Sigma²) distribution; the paper's elongation law is
// Normal{Mu: 0.17, Sigma: 0.048}.
type Normal struct {
	Mu, Sigma float64
}

// Quantile implements Dist using the exact inverse error function.
func (n Normal) Quantile(u float64) float64 {
	if u <= 0 || u >= 1 {
		return math.NaN()
	}
	return n.Mu + n.Sigma*math.Sqrt2*math.Erfinv(2*u-1)
}

// CDF implements Dist.
func (n Normal) CDF(x float64) float64 {
	return 0.5 * math.Erfc(-(x-n.Mu)/(n.Sigma*math.Sqrt2))
}
