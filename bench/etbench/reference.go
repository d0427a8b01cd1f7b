package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sync"

	"etherm/internal/rare"
	"etherm/internal/stats"
	"etherm/internal/uq"
)

// The uq-cheap failure threshold and its reference probability. tCritCheap
// puts P(T ≥ T_crit) of the lumped model near 1e-6. refPFail comes from a
// long randomized-QMC run,
//
//	etbench reference -samples 268435456 -seed 2016
//
// which printed {"cov":0.04974879011884781,"p_fail":9.052455425262451e-7,
// "samples":268435456,"t_crit_k":515.8}. The uq-cheap check requires the
// mean subset-simulation estimate to lie within a factor of two of it.
const (
	tCritCheap = 515.8 // K
	refPFail   = 9.052455425262451e-7
)

// runReference estimates P(T ≥ tCritCheap) for the lumped model by RQMC
// with 8 scrambled replicates on two goroutines and prints the estimate.
func runReference(args []string) int {
	fs := flag.NewFlagSet("reference", flag.ContinueOnError)
	samples := fs.Int("samples", 1<<24, "RQMC points (a multiple of 16)")
	seed := fs.Uint64("seed", defaultSeed, "RQMC scramble seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	const reps, workers = 8, 2
	q, err := rare.NewRQMC(lumpedWires, reps, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "etbench:", err)
		return 1
	}
	dists := lumpedDists()
	counters := make([][]stats.ExceedCounter, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		counters[w] = make([]stats.ExceedCounter, reps)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			u := make([]float64, lumpedWires)
			p := make([]float64, lumpedWires)
			out := make([]float64, 1)
			var m lumpedModel
			for i := w; i < *samples; i += workers {
				q.Sample(i, u)
				uq.TransformPoint(dists, u, p)
				_ = m.Eval(p, out) // never fails
				counters[w][q.Replicate(i)].Observe(out[0] >= tCritCheap)
			}
		}(w)
	}
	wg.Wait()
	merged := make([]stats.ExceedCounter, reps)
	for _, cs := range counters {
		for r := range merged {
			merged[r].Merge(cs[r])
		}
	}
	est, err := rare.EstimateReplicates(merged)
	if err != nil {
		fmt.Fprintln(os.Stderr, "etbench:", err)
		return 1
	}
	out, _ := json.Marshal(map[string]any{
		"t_crit_k": tCritCheap, "samples": est.N, "p_fail": est.P, "cov": est.CoV(),
	})
	fmt.Println(string(out))
	return 0
}
