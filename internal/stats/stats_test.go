package stats

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestMoments(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Errorf("mean %g", Mean(xs))
	}
	if math.Abs(PopVariance(xs)-4) > 1e-12 {
		t.Errorf("population variance %g, want 4", PopVariance(xs))
	}
	if math.Abs(Variance(xs)-32.0/7) > 1e-12 {
		t.Errorf("sample variance %g", Variance(xs))
	}
	lo, hi := MinMax(xs)
	if lo != 2 || hi != 9 {
		t.Error("minmax wrong")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if Quantile(xs, 0) != 1 || Quantile(xs, 1) != 5 || Quantile(xs, 0.5) != 3 {
		t.Error("quantiles wrong")
	}
	if math.Abs(Quantile(xs, 0.25)-2) > 1e-12 {
		t.Errorf("q25 = %g", Quantile(xs, 0.25))
	}
}

func TestHistogramDensityIntegratesToOne(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 6))
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = r.Float64()*0.4 - 0.0
	}
	h, err := NewHistogram(xs, 0, 0.4, 8)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for b := range h.Counts {
		sum += h.Density(b) * h.BinWidth()
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("∫density = %g", sum)
	}
	if h.N != 500 {
		t.Error("count wrong")
	}
}

func TestHistogramClampsOutliers(t *testing.T) {
	h, err := NewHistogram([]float64{-10, 10}, 0, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if h.Counts[0] != 1 || h.Counts[3] != 1 {
		t.Errorf("outliers not clamped: %v", h.Counts)
	}
}

func TestFitNormalPaperLike(t *testing.T) {
	// 12 samples from the paper's law — the fit must recover µ, σ within
	// small-sample scatter, and the PDF must integrate to one.
	r := rand.New(rand.NewPCG(7, 8))
	xs := make([]float64, 12)
	for i := range xs {
		xs[i] = 0.17 + 0.048*r.NormFloat64()
	}
	fit, err := FitNormal(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Mu-0.17) > 0.05 || fit.Sigma < 0.01 || fit.Sigma > 0.12 {
		t.Errorf("fit (%g, %g) far from truth", fit.Mu, fit.Sigma)
	}
	sum := 0.0
	for x := -0.3; x < 0.7; x += 1e-4 {
		sum += fit.PDF(x) * 1e-4
	}
	if math.Abs(sum-1) > 1e-3 {
		t.Errorf("∫pdf = %g", sum)
	}
	if d := fit.KSDistance(xs); d <= 0 || d > 0.5 {
		t.Errorf("KS distance %g implausible", d)
	}
}

func TestFitNormalRejectsDegenerate(t *testing.T) {
	if _, err := FitNormal([]float64{1}); err == nil {
		t.Error("single sample accepted")
	}
	if _, err := FitNormal([]float64{2, 2, 2}); err == nil {
		t.Error("zero-variance sample accepted")
	}
}

func TestMCErrorEq6(t *testing.T) {
	// The paper: σ_MC = 4.65 K, M = 1000 → error_MC = 0.147 K.
	if got := MCError(4.65, 1000); math.Abs(got-0.147) > 1e-3 {
		t.Errorf("error_MC = %g, want 0.147 (paper)", got)
	}
}
