package main

import (
	"math/rand/v2"
	"sort"
)

// Seeds named in bench/README.md: defaultSeed pins the reference values of
// the output checks, acceptanceSeed is the second seed every check must
// also pass on.
const (
	defaultSeed    = 2016
	acceptanceSeed = 607
)

// Sizes of the generated input streams. Workloads index them modulo their
// length, so a run longer than the streams repeats inputs instead of
// failing.
const (
	numCampaignSeeds = 1024
	numSubsetSeeds   = 8192
	numJobs          = 8190 // a multiple of mcJobEvery
	numQueries       = 256
	mcJobEvery       = 10 // one served-mix job in ten is a Monte Carlo job
)

// inputs holds every random input the harness hands the program, all drawn
// from the run's --seed. The transient workloads take none: the Table II
// run has no random input.
type inputs struct {
	CampaignSeeds []uint64    // sampler seeds of successive campaigns
	SubsetSeeds   []uint64    // seeds of successive subset-simulation runs
	Jobs          []jobDraw   // served-mix client A's job sequence
	Queries       []queryDraw // served-mix client B's query pool
}

// jobDraw is one served-mix job: a transient of one geometry/drive variant,
// or a Monte Carlo job whose sampler seed is one of two per-run seeds (so
// the results of all its jobs can be checked against two direct runs).
type jobDraw struct {
	Variant int
	MC      bool
	MCSeed  uint64
}

// queryDraw is one surrogate query: three quantile levels and a what-if
// elongation given as a fraction of the surrogate's trained δ interval.
type queryDraw struct {
	Quantiles [3]float64
	DeltaFrac float64
}

// genInputs draws a run's inputs from its seed.
func genInputs(seed uint64) *inputs {
	rng := rand.New(rand.NewPCG(seed, 0x6574_6265_6e63_68)) // "etbench"
	in := &inputs{
		CampaignSeeds: make([]uint64, numCampaignSeeds),
		SubsetSeeds:   make([]uint64, numSubsetSeeds),
		Jobs:          make([]jobDraw, numJobs),
		Queries:       make([]queryDraw, numQueries),
	}
	for i := range in.CampaignSeeds {
		in.CampaignSeeds[i] = rng.Uint64()
	}
	for i := range in.SubsetSeeds {
		in.SubsetSeeds[i] = rng.Uint64()
	}
	// Every block of mcJobEvery jobs holds exactly one Monte Carlo job, at
	// a random position: any window of jobs keeps the one-in-ten share, so
	// the job latency tail does not swing with a binomial job count.
	mcSeeds := [2]uint64{rng.Uint64(), rng.Uint64()}
	for b := 0; b < numJobs; b += mcJobEvery {
		mcAt := b + rng.IntN(mcJobEvery)
		for i := b; i < b+mcJobEvery; i++ {
			if i == mcAt {
				in.Jobs[i] = jobDraw{MC: true, MCSeed: mcSeeds[rng.IntN(2)]}
			} else {
				in.Jobs[i] = jobDraw{Variant: rng.IntN(len(jobVariants))}
			}
		}
	}
	for i := range in.Queries {
		q := &in.Queries[i]
		for k := range q.Quantiles {
			q.Quantiles[k] = 0.01 + 0.98*rng.Float64()
		}
		sort.Float64s(q.Quantiles[:])
		q.DeltaFrac = 0.05 + 0.9*rng.Float64()
	}
	return in
}
