// Package uq implements the uncertainty-quantification machinery of the
// paper and its natural extensions: probability distributions, every Monte
// Carlo and quasi-Monte Carlo sampler (pseudo-random, Latin hypercube,
// Halton, Sobol' plain or Owen-scrambled, and randomized QMC with its
// replicate estimator), Gauss quadrature, tensor/Smolyak stochastic
// collocation, non-intrusive polynomial chaos and Sobol' sensitivity
// indices, plus a deterministic parallel sampling driver with two modes:
// the streaming campaign (RunCampaign: constant-memory online accumulators,
// adaptive stopping, resumable checkpoints) and the stored ensemble
// (RunEnsemble, a campaign with StoreSamples for exact quantiles and
// surrogate fitting).
//
// The paper quantifies the wire-temperature variability with plain Monte
// Carlo (section IV-C, M = 1000) and notes that "the application of other
// methods is straightforward"; the additional methods here are those other
// methods.
package uq

import (
	"fmt"
	"math"
)

// Dist is a univariate distribution for an uncertain input parameter.
type Dist interface {
	// Quantile maps u ∈ (0,1) to the distribution's u-quantile (inverse CDF).
	Quantile(u float64) float64
	// PDF evaluates the density at x.
	PDF(x float64) float64
	// CDF evaluates the cumulative distribution at x.
	CDF(x float64) float64
	// Mean returns the expectation.
	Mean() float64
	// StdDev returns the standard deviation.
	StdDev() float64
	// String describes the distribution.
	String() string
}

// Normal is the N(Mu, Sigma²) distribution; the paper's elongation law is
// Normal{Mu: 0.17, Sigma: 0.048}.
type Normal struct {
	Mu, Sigma float64
}

// Quantile implements Dist using the exact inverse error function.
func (n Normal) Quantile(u float64) float64 {
	if u <= 0 || u >= 1 {
		if u == 0.5 {
			return n.Mu
		}
		return math.NaN()
	}
	return n.Mu + n.Sigma*math.Sqrt2*math.Erfinv(2*u-1)
}

// PDF implements Dist.
func (n Normal) PDF(x float64) float64 {
	z := (x - n.Mu) / n.Sigma
	return math.Exp(-0.5*z*z) / (n.Sigma * math.Sqrt(2*math.Pi))
}

// CDF implements Dist.
func (n Normal) CDF(x float64) float64 {
	return 0.5 * math.Erfc(-(x-n.Mu)/(n.Sigma*math.Sqrt2))
}

// Mean implements Dist.
func (n Normal) Mean() float64 { return n.Mu }

// StdDev implements Dist.
func (n Normal) StdDev() float64 { return n.Sigma }

func (n Normal) String() string { return fmt.Sprintf("N(%g, %g²)", n.Mu, n.Sigma) }

// TruncatedNormal restricts a normal to [Lo, Hi] by quantile rescaling. The
// elongation δ = (L−d)/L physically lives in [0, 1); truncation keeps
// extreme Monte Carlo draws physical.
type TruncatedNormal struct {
	Mu, Sigma float64
	Lo, Hi    float64
}

func (t TruncatedNormal) base() Normal { return Normal{Mu: t.Mu, Sigma: t.Sigma} }

// Quantile implements Dist.
func (t TruncatedNormal) Quantile(u float64) float64 {
	b := t.base()
	clo, chi := b.CDF(t.Lo), b.CDF(t.Hi)
	return b.Quantile(clo + u*(chi-clo))
}

// PDF implements Dist.
func (t TruncatedNormal) PDF(x float64) float64 {
	if x < t.Lo || x > t.Hi {
		return 0
	}
	b := t.base()
	return b.PDF(x) / (b.CDF(t.Hi) - b.CDF(t.Lo))
}

// CDF implements Dist.
func (t TruncatedNormal) CDF(x float64) float64 {
	if x <= t.Lo {
		return 0
	}
	if x >= t.Hi {
		return 1
	}
	b := t.base()
	clo, chi := b.CDF(t.Lo), b.CDF(t.Hi)
	return (b.CDF(x) - clo) / (chi - clo)
}

// Mean implements Dist (standard truncated-normal formula).
func (t TruncatedNormal) Mean() float64 {
	a := (t.Lo - t.Mu) / t.Sigma
	b := (t.Hi - t.Mu) / t.Sigma
	std := Normal{0, 1}
	z := std.CDF(b) - std.CDF(a)
	return t.Mu + t.Sigma*(std.PDF(a)-std.PDF(b))/z
}

// StdDev implements Dist.
func (t TruncatedNormal) StdDev() float64 {
	a := (t.Lo - t.Mu) / t.Sigma
	b := (t.Hi - t.Mu) / t.Sigma
	std := Normal{0, 1}
	z := std.CDF(b) - std.CDF(a)
	pa, pb := std.PDF(a), std.PDF(b)
	term := 1.0
	// Guard the ±∞ limits of the standard formula.
	if !math.IsInf(a, 0) {
		term += a * pa / z
	}
	if !math.IsInf(b, 0) {
		term -= b * pb / z
	}
	m := (pa - pb) / z
	v := t.Sigma * t.Sigma * (term - m*m)
	return math.Sqrt(v)
}

func (t TruncatedNormal) String() string {
	return fmt.Sprintf("N(%g, %g²)|[%g,%g]", t.Mu, t.Sigma, t.Lo, t.Hi)
}

// Uniform is the continuous uniform distribution on [Lo, Hi].
type Uniform struct {
	Lo, Hi float64
}

// Quantile implements Dist.
func (u Uniform) Quantile(p float64) float64 { return u.Lo + p*(u.Hi-u.Lo) }

// PDF implements Dist.
func (u Uniform) PDF(x float64) float64 {
	if x < u.Lo || x > u.Hi {
		return 0
	}
	return 1 / (u.Hi - u.Lo)
}

// CDF implements Dist.
func (u Uniform) CDF(x float64) float64 {
	switch {
	case x <= u.Lo:
		return 0
	case x >= u.Hi:
		return 1
	default:
		return (x - u.Lo) / (u.Hi - u.Lo)
	}
}

// Mean implements Dist.
func (u Uniform) Mean() float64 { return 0.5 * (u.Lo + u.Hi) }

// StdDev implements Dist.
func (u Uniform) StdDev() float64 { return (u.Hi - u.Lo) / math.Sqrt(12) }

func (u Uniform) String() string { return fmt.Sprintf("U[%g, %g]", u.Lo, u.Hi) }

// LogNormal is exp(N(MuLog, SigmaLog²)) — a common alternative elongation
// model guaranteeing positivity.
type LogNormal struct {
	MuLog, SigmaLog float64
}

// Quantile implements Dist.
func (l LogNormal) Quantile(u float64) float64 {
	return math.Exp(Normal{l.MuLog, l.SigmaLog}.Quantile(u))
}

// PDF implements Dist.
func (l LogNormal) PDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := (math.Log(x) - l.MuLog) / l.SigmaLog
	return math.Exp(-0.5*z*z) / (x * l.SigmaLog * math.Sqrt(2*math.Pi))
}

// CDF implements Dist.
func (l LogNormal) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return Normal{l.MuLog, l.SigmaLog}.CDF(math.Log(x))
}

// Mean implements Dist.
func (l LogNormal) Mean() float64 { return math.Exp(l.MuLog + 0.5*l.SigmaLog*l.SigmaLog) }

// StdDev implements Dist.
func (l LogNormal) StdDev() float64 {
	s2 := l.SigmaLog * l.SigmaLog
	return l.Mean() * math.Sqrt(math.Exp(s2)-1)
}

func (l LogNormal) String() string { return fmt.Sprintf("LogN(%g, %g²)", l.MuLog, l.SigmaLog) }
