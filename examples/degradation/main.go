// degradation: turn a Monte Carlo campaign into reliability numbers —
// failure probability against the 523 K threshold, crossing times of the 6σ
// band and Arrhenius damage over the mission profile, for the DATE16 chip.
//
// Run with: go run ./examples/degradation
package main

import (
	"fmt"
	"log"
	"math"

	"etherm/internal/chipmodel"
	"etherm/internal/core"
	"etherm/internal/degrade"
	"etherm/internal/study"
)

func main() {
	const samples = 12
	// The campaign counts, per output, the samples at or above T_crit.
	fig7, lay, camp, err := study.RunPaperStudy(chipmodel.DATE16Calibrated(), core.FastOptions(),
		samples, 99, 0, study.DefaultRho)
	if err != nil {
		log.Fatal(err)
	}
	last := len(fig7.Times) - 1

	fmt.Printf("ensemble: M = %d, E_max(50 s) = %.2f K, sigma = %.2f K\n\n",
		camp.Succeeded(), fig7.EMax[last], fig7.SigmaMC)

	// 1. Exceedance probability of the hottest wire at the end time: the
	//    normal approximation at three thresholds, the empirical fraction
	//    of samples at T_crit.
	for _, tcrit := range []float64{510.0, degrade.DefaultCriticalTemp, 535} {
		pNorm := degrade.ExceedanceProbability(fig7.HotSeries()[last], fig7.SigmaMC, tcrit)
		if tcrit != degrade.DefaultCriticalTemp {
			fmt.Printf("P(T_hot(50 s) >= %3.0f K): normal approx %.3g\n", tcrit, pNorm)
			continue
		}
		col := last*len(lay.Wires) + fig7.HotWire
		pEmp := float64(camp.Stats.ExceedOut[col]) / float64(camp.Succeeded())
		fmt.Printf("P(T_hot(50 s) >= %3.0f K): normal approx %.3g, empirical %.3g\n", tcrit, pNorm, pEmp)
	}

	// 2. Crossing-time diagnostics of the 6-sigma band.
	if !math.IsNaN(fig7.Cross6Sig) {
		fmt.Printf("\n6-sigma band crosses %0.f K at t = %.1f s — matches the paper's design-validity warning\n",
			fig7.TCritical, fig7.Cross6Sig)
	} else {
		fmt.Printf("\n6-sigma band never crosses %.0f K within the horizon\n", fig7.TCritical)
	}

	// 3. Arrhenius damage of the mold over a mission at the mean trajectory,
	//    extrapolated from the 50 s transient plus steady-state hold.
	ar := degrade.MoldEpoxy()
	dmg50, err := ar.Damage(fig7.Times, fig7.HotSeries())
	if err != nil {
		log.Fatal(err)
	}
	tSteady := fig7.HotSeries()[last]
	fmt.Printf("\nArrhenius mold damage over the 50 s transient: %.3g (failure at 1)\n", dmg50)
	fmt.Printf("steady hold at %.1f K: time to failure %.3g h\n", tSteady, ar.TimeToFailure(tSteady)/3600)
	fmt.Printf("a +%.1f K (one sigma) hotter unit fails %.2fx sooner\n",
		fig7.SigmaMC, ar.AccelerationFactor(tSteady, tSteady+fig7.SigmaMC))
}
