package study

import (
	"context"
	"math"
	"testing"

	"etherm/internal/chipmodel"
	"etherm/internal/core"
	"etherm/internal/degrade"
	"etherm/internal/uq"
)

// Table II and Fig. 7 anchors on the benchmark's coarse chip (HMax 0.7 mm,
// 3,640 DOF, core.FastOptions, 51 time points). The values and bounds are
// those the benchmark pins in its transient-coarse and mc-campaign checks
// (bench/etbench/transient.go and campaign.go), copied, not re-recorded, so
// a solver change that would fail those checks fails tier-1 first.
const (
	// anchorTMax is the hottest-wire end temperature of the nominal run.
	// The calibration fitted it: the date16-calibrated drive was scaled to
	// reach T_max ≈ 501.5 K (README, "A note on calibration").
	anchorTMax    = 501.5
	anchorTMaxTol = 0.05
	// anchorEMax and anchorSigma are E_max and σ_MC at the end time of a
	// two-sample Monte Carlo campaign (uq.PseudoRandom seeded 2016,
	// ρ = DefaultRho). The calibration did not fit them.
	anchorEMax  = 501.88264960006893
	anchorSigma = 4.243952095743094
	anchorTol   = 1e-6
)

// TestBenchChipAnchors runs the nominal FastOptions transient and the
// benchmark's check campaign on one and on two workers: the campaigns
// must agree bit for bit and every number must sit within its pin.
func TestBenchChipAnchors(t *testing.T) {
	if testing.Short() {
		t.Skip("chip-scale transients are seconds-scale")
	}
	newSim := func() *core.Simulator {
		spec := chipmodel.DATE16Calibrated()
		spec.HMax = 0.7e-3
		lay, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		sim, err := core.NewSimulator(lay.Problem, core.FastOptions())
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}

	res, err := newSim().Run()
	if err != nil {
		t.Fatal(err)
	}
	if tMax := res.MaxWireTempAt(len(res.Times) - 1); math.Abs(tMax-anchorTMax) > anchorTMaxTol {
		t.Errorf("nominal T_max %.6f K, want %g ± %g K", tMax, anchorTMax, anchorTMaxTol)
	}

	sim := newSim()
	nWires := len(sim.Wires())
	dists := GermDists(nWires, DefaultRho)
	opt := sim.Options()
	times := make([]float64, opt.NumSteps+1)
	for i := range times {
		times[i] = float64(i) * opt.EndTime / float64(opt.NumSteps)
	}
	var got [2][2]float64
	for i, workers := range []int{1, 2} {
		camp, err := uq.RunCampaign(context.Background(), ParamFactory(sim, Params{Rho: DefaultRho}), dists,
			uq.PseudoRandom{D: len(dists), Seed: 2016},
			uq.CampaignOptions{MaxSamples: 2, Workers: workers, Threshold: degrade.DefaultCriticalTemp})
		if err != nil {
			t.Fatalf("%d worker(s): %v", workers, err)
		}
		f7, err := BuildFig7FromCampaign(times, camp, nWires, degrade.DefaultCriticalTemp)
		if err != nil {
			t.Fatal(err)
		}
		got[i] = [2]float64{f7.EMax[len(f7.EMax)-1], f7.SigmaMC}
	}
	if got[0] != got[1] {
		t.Errorf("E_max, σ_MC = %v on 1 worker but %v on 2", got[0], got[1])
	}
	if e, s := got[1][0], got[1][1]; math.Abs(e-anchorEMax) > anchorTol || math.Abs(s-anchorSigma) > anchorTol {
		t.Errorf("E_max %.17g K (%+.2g from the pin), σ_MC %.17g K (%+.2g), want within %g K of %v and %v",
			e, e-anchorEMax, s, s-anchorSigma, anchorTol, anchorEMax, anchorSigma)
	}
}
