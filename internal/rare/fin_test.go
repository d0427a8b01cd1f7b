package rare

import (
	"testing"

	"etherm/internal/analytic"
	"etherm/internal/material"
	"etherm/internal/uq"
)

// The paper's elongation law (Table 2): δ ~ N(0.17, 0.048²).
const (
	lawMu    = 0.17
	lawSigma = 0.048
)

func finWire(delta float64) analytic.FinWire {
	return analytic.FinWire{
		Length:   1e-3 * (1 + delta),
		Diameter: 25e-6,
		Mat:      material.Copper(),
		Current:  0.5,
		TEndA:    300, TEndB: 300,
		TInf: 300,
	}
}

func finTemp(delta float64) float64 {
	tmax, _ := finWire(delta).MaxTemperature(300)
	return tmax
}

// finTempU is the Fig. 7 quantity as a function of a unit-cube germ: the
// end-time peak temperature of a wire whose elongation follows the law.
func finTempU(u float64) float64 {
	delta := lawMu + lawSigma*uq.Normal{Mu: 0, Sigma: 1}.Quantile(clamp01(u))
	if delta < 0 {
		delta = 0
	} else if delta > 0.9 {
		delta = 0.9
	}
	return finTemp(delta)
}

func clamp01(u float64) float64 {
	if u < 1e-15 {
		return 1e-15
	}
	if u > 1-1e-15 {
		return 1 - 1e-15
	}
	return u
}

// TestSobolBeatsMCOnFig7Quantity compares estimator variance on the paper's
// Fig. 7 quantity (expected peak wire temperature under the elongation law)
// at equal sample count: across K independent replications, the scrambled
// Sobol' estimator must have materially lower variance than Monte Carlo.
func TestSobolBeatsMCOnFig7Quantity(t *testing.T) {
	const (
		k = 24  // replications per method
		n = 256 // samples per estimate
	)
	varOf := func(estimates []float64) float64 {
		mean := 0.0
		for _, e := range estimates {
			mean += e
		}
		mean /= float64(len(estimates))
		v := 0.0
		for _, e := range estimates {
			v += (e - mean) * (e - mean)
		}
		return v / float64(len(estimates)-1)
	}
	estimate := func(s uq.Sampler) float64 {
		u := make([]float64, 1)
		sum := 0.0
		for i := 0; i < n; i++ {
			s.Sample(i, u)
			sum += finTempU(u[0])
		}
		return sum / n
	}
	mc := make([]float64, k)
	qmc := make([]float64, k)
	for r := 0; r < k; r++ {
		mc[r] = estimate(uq.PseudoRandom{D: 1, Seed: uint64(1000 + r)})
		s, err := uq.NewScrambledSobol(1, uint64(2000+r))
		if err != nil {
			t.Fatal(err)
		}
		qmc[r] = estimate(s)
	}
	vMC, vQMC := varOf(mc), varOf(qmc)
	if vQMC*10 > vMC {
		t.Fatalf("scrambled Sobol' variance %.3g not ≥10x below MC variance %.3g at n=%d", vQMC, vMC, n)
	}
	t.Logf("variance at n=%d: MC %.3g, scrambled Sobol' %.3g (×%.0f reduction)", n, vMC, vQMC, vMC/vQMC)
}
