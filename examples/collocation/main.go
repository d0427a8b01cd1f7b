// collocation: "the application of other methods is straightforward" —
// compare Monte Carlo, Latin hypercube, Sobol' QMC, Smolyak stochastic
// collocation and polynomial chaos on a fast surrogate of the wire-heating
// problem (the analytic lumped package model), showing the accuracy/cost
// trade-off that motivates going beyond plain MC.
//
// Run with: go run ./examples/collocation
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"etherm/internal/analytic"
	"etherm/internal/material"
	"etherm/internal/uq"
)

// lumpedModel: uncertain elongations of 6 wire pairs → steady hottest
// temperature of a lumped package (fast enough for dense reference runs).
type lumpedModel struct{ dim int }

func (m *lumpedModel) Dim() int        { return m.dim }
func (m *lumpedModel) NumOutputs() int { return 1 }

func (m *lumpedModel) Eval(params, out []float64) error {
	// Each pair carries V_pair over two wires of sampled elongation.
	const (
		vPair = 114e-3
		dirD  = 1.29e-3
		diam  = 25.4e-6
	)
	cu := material.Copper()
	area := math.Pi * diam * diam / 4
	power := func(T float64) float64 {
		p := 0.0
		for j := 0; j < m.dim; j += 2 {
			l1 := dirD / (1 - clamp01(params[j]))
			l2 := dirD / (1 - clamp01(params[j+1]))
			r := (l1 + l2) / (cu.ElecCond(T) * area)
			p += vPair * vPair / r
		}
		return p
	}
	pkg := analytic.LumpedPackage{C: 0.030, R: 500, TInf: 300, Power: power}
	out[0] = pkg.SteadyState()
	return nil
}

func clamp01(d float64) float64 {
	if d < 0 {
		return 0
	}
	if d > 0.9 {
		return 0.9
	}
	return d
}

func main() {
	const dim = 12
	model := &lumpedModel{dim: dim}
	factory := uq.SingleFactory(model)
	dists := make([]uq.Dist, dim)
	for j := range dists {
		dists[j] = uq.Normal{Mu: 0.17, Sigma: 0.048}
	}

	// run is an m-sample campaign; its moments are the estimates.
	run := func(s uq.Sampler, m int) (mean, std float64, n int) {
		c, err := uq.RunCampaign(context.Background(), factory, dists, s, uq.CampaignOptions{MaxSamples: m})
		if err != nil {
			log.Fatal(err)
		}
		return c.MeanAll()[0], c.StdAll()[0], c.Succeeded()
	}

	// Dense reference: big Sobol' QMC run.
	sob, err := uq.NewSobol(dim)
	if err != nil {
		log.Fatal(err)
	}
	refMean, refStd, refN := run(sob, 1<<15)
	fmt.Printf("reference (Sobol' M=%d): E[T] = %.4f K, sigma = %.4f K\n\n", refN, refMean, refStd)

	fmt.Printf("%-24s %8s %12s %12s\n", "method", "evals", "|dE| (K)", "|dsigma| (K)")
	report := func(name string, evals int, mean, std float64) {
		fmt.Printf("%-24s %8d %12.2e %12.2e\n", name, evals, math.Abs(mean-refMean), math.Abs(std-refStd))
	}

	for _, m := range []int{64, 256, 1024} {
		mean, std, _ := run(uq.PseudoRandom{D: dim, Seed: 7}, m)
		report(fmt.Sprintf("monte-carlo M=%d", m), m, mean, std)
	}
	for _, m := range []int{64, 256} {
		lhs, err := uq.NewLatinHypercube(dim, m, 7)
		if err != nil {
			log.Fatal(err)
		}
		mean, std, _ := run(lhs, m)
		report(fmt.Sprintf("latin-hypercube M=%d", m), m, mean, std)
	}
	for _, m := range []int{64, 256} {
		mean, std, _ := run(sob, m)
		report(fmt.Sprintf("sobol-qmc M=%d", m), m, mean, std)
	}
	for _, lvl := range []int{1, 2} {
		des, err := uq.SmolyakDesign(dists, lvl)
		if err != nil {
			log.Fatal(err)
		}
		outs, err := des.Eval(context.Background(), factory)
		if err != nil {
			log.Fatal(err)
		}
		sc, err := des.Moments(outs)
		if err != nil {
			log.Fatal(err)
		}
		report(fmt.Sprintf("smolyak level %d", lvl), sc.Evaluations, sc.Mean[0], sc.StdDev(0))
	}

	// Polynomial chaos: fit on the first 512 Sobol' points, read statistics
	// and Sobol' sensitivity indices from the coefficients.
	params, outputs := make([][]float64, 512), make([][]float64, 512)
	for i := range params {
		params[i], outputs[i] = make([]float64, dim), make([]float64, 1)
		sob.Sample(i, params[i])
		uq.TransformPoint(dists, params[i], params[i])
		if err := model.Eval(params[i], outputs[i]); err != nil {
			log.Fatal(err)
		}
	}
	pce, err := uq.FitPCE(dists, params, outputs, 2)
	if err != nil {
		log.Fatal(err)
	}
	report("pce order 2 (512 train)", 512, pce.Mean(0), pce.StdDev(0))

	fmt.Println("\nPCE total Sobol' indices per wire (all wires contribute equally by symmetry):")
	for j := 0; j < dim; j++ {
		fmt.Printf("  wire %2d: %.4f\n", j+1, pce.TotalSobol(0, j))
	}
}
