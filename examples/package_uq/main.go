// package_uq: the paper's headline experiment in miniature — a Monte Carlo
// study (small M so it finishes in about a minute) over the uncertain wire
// elongations of the DATE16 chip, reporting E_max(t) with the 6σ band
// against the 523 K mold-degradation threshold.
//
// Run with: go run ./examples/package_uq
package main

import (
	"fmt"
	"log"

	"etherm/internal/chipmodel"
	"etherm/internal/core"
	"etherm/internal/study"
)

func main() {
	const samples = 16 // the paper uses 1000; examples/scenarios/date16_paper.json runs it
	spec := chipmodel.DATE16Calibrated()
	fig7, lay, camp, err := study.RunPaperStudy(spec, core.FastOptions(), samples, 2016, 0, study.DefaultRho)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("chip: %d pads, %d wires, mean L = %.3g mm, V_pair = %.0f mV\n",
		len(lay.Pads), len(lay.Wires), lay.MeanLength()*1e3, lay.PairVoltage()*1e3)
	fmt.Printf("Monte Carlo: M = %d (%s sampling)\n\n", camp.Succeeded(), camp.SamplerName)

	fmt.Println("  t (s)   E[T_hot] (K)   6*sigma (K)")
	for i := 0; i < len(fig7.Times); i += 10 {
		fmt.Printf("  %5.0f   %12.2f   %11.2f\n",
			fig7.Times[i], fig7.HotSeries()[i], 6*fig7.SigmaHot[i])
	}
	last := len(fig7.Times) - 1
	fmt.Printf("\nE_max(50 s) = %.2f K, sigma_MC = %.2f K, error_MC = %.3f K (eq. 6)\n",
		fig7.EMax[last], fig7.SigmaMC, fig7.ErrorMC)
	fmt.Printf("hottest wire: %d (%s side — shortest wires)\n", fig7.HotWire, lay.Wires[fig7.HotWire].Side)
	if fig7.Cross6Sig == fig7.Cross6Sig { // not NaN
		fmt.Printf("6-sigma band crosses T_crit = %.0f K at t = %.1f s — the variability matters for design validity\n",
			fig7.TCritical, fig7.Cross6Sig)
	} else {
		fmt.Printf("6-sigma band stays below T_crit = %.0f K over the horizon\n", fig7.TCritical)
	}
}
