// Package stats provides the small-sample statistics used by the measurement
// pipeline and the Monte Carlo post-processing: descriptive moments,
// streaming (Welford) accumulation, histograms, normal fits, quantiles and
// simple goodness-of-fit measures.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs (NaN for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance (NaN for fewer than two
// samples).
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the unbiased sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// PopVariance returns the population (biased, 1/n) variance.
func PopVariance(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n)
}

// MinMax returns the extrema of xs.
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// Quantile returns the p-quantile (0 ≤ p ≤ 1) of xs using linear
// interpolation between order statistics.
func Quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 || p < 0 || p > 1 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return QuantileSorted(s, p)
}

// Histogram is a fixed-width binning of scalar samples.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	N      int
}

// NewHistogram bins xs into nbins equal bins over [lo, hi]; samples outside
// the range are clamped into the edge bins.
func NewHistogram(xs []float64, lo, hi float64, nbins int) (*Histogram, error) {
	if nbins < 1 {
		return nil, fmt.Errorf("stats: need ≥1 bins, got %d", nbins)
	}
	if !(hi > lo) {
		return nil, fmt.Errorf("stats: invalid histogram range [%g, %g]", lo, hi)
	}
	h := &Histogram{Lo: lo, Hi: hi, Counts: make([]int, nbins)}
	for _, x := range xs {
		b := int(float64(nbins) * (x - lo) / (hi - lo))
		if b < 0 {
			b = 0
		}
		if b >= nbins {
			b = nbins - 1
		}
		h.Counts[b]++
		h.N++
	}
	return h, nil
}

// BinWidth returns the width of each bin.
func (h *Histogram) BinWidth() float64 { return (h.Hi - h.Lo) / float64(len(h.Counts)) }

// BinCenter returns the midpoint of bin b.
func (h *Histogram) BinCenter(b int) float64 {
	return h.Lo + (float64(b)+0.5)*h.BinWidth()
}

// Density returns the PDF estimate of bin b (counts normalized so the
// histogram integrates to one), the quantity plotted in the paper's Fig. 5.
func (h *Histogram) Density(b int) float64 {
	if h.N == 0 {
		return 0
	}
	return float64(h.Counts[b]) / (float64(h.N) * h.BinWidth())
}

// NormalFit holds a fitted normal distribution.
type NormalFit struct {
	Mu, Sigma float64
	N         int
}

// FitNormal returns the maximum-likelihood normal fit (µ = sample mean,
// σ = population standard deviation) as used by the paper to identify
// N(0.17, 0.048) from 12 elongation samples.
func FitNormal(xs []float64) (NormalFit, error) {
	if len(xs) < 2 {
		return NormalFit{}, fmt.Errorf("stats: need ≥2 samples to fit a normal, got %d", len(xs))
	}
	mu := Mean(xs)
	sigma := math.Sqrt(PopVariance(xs))
	if sigma == 0 {
		return NormalFit{}, fmt.Errorf("stats: degenerate sample (zero variance)")
	}
	return NormalFit{Mu: mu, Sigma: sigma, N: len(xs)}, nil
}

// PDF evaluates the fitted normal density at x.
func (f NormalFit) PDF(x float64) float64 {
	z := (x - f.Mu) / f.Sigma
	return math.Exp(-0.5*z*z) / (f.Sigma * math.Sqrt(2*math.Pi))
}

// CDF evaluates the fitted normal cumulative distribution at x.
func (f NormalFit) CDF(x float64) float64 {
	return 0.5 * math.Erfc(-(x-f.Mu)/(f.Sigma*math.Sqrt2))
}

// KSDistance returns the Kolmogorov–Smirnov statistic between the empirical
// distribution of xs and the fitted normal — a simple goodness-of-fit
// number for reports.
func (f NormalFit) KSDistance(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d := 0.0
	n := float64(len(s))
	for i, x := range s {
		c := f.CDF(x)
		lo := float64(i) / n
		hi := float64(i+1) / n
		if v := math.Abs(c - lo); v > d {
			d = v
		}
		if v := math.Abs(c - hi); v > d {
			d = v
		}
	}
	return d
}

// MCError returns the paper's Monte Carlo error estimate (eq. 6):
// error_MC = σ_MC / √M.
func MCError(sigma float64, m int) float64 {
	if m <= 0 {
		return math.NaN()
	}
	return sigma / math.Sqrt(float64(m))
}
