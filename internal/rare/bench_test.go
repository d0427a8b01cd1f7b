package rare

import (
	"context"
	"math"
	"testing"

	"etherm/internal/stats"
	"etherm/internal/uq"
)

// BenchmarkRareSolves measures the real currency of rare-event estimation:
// model solves needed to answer P(T_max ≥ T_crit) ≈ 1e-4 at CoV ≤ 0.3 on
// the analytic fallback fin model under the paper's elongation law. The
// per-variant "solves" metric is deterministic (fixed seeds) and wired
// into the bench-regression gate; ns/op tracks the wall cost of the same
// work. Subset simulation's advantage grows with 1/P — at 1e-6 the MC
// column would not fit in a benchmark at all.
func BenchmarkRareSolves(b *testing.B) {
	const (
		pTarget   = 1e-4
		targetCoV = 0.3
	)
	deltaStar := lawMu + lawSigma*uq.Normal{Mu: 0, Sigma: 1}.Quantile(1-pTarget)
	tcrit := finTemp(deltaStar)

	b.Run("monte-carlo", func(b *testing.B) {
		var solves int
		for i := 0; i < b.N; i++ {
			var c stats.ExceedCounter
			s := uq.PseudoRandom{D: 1, Seed: 4242}
			u := make([]float64, 1)
			for n := 0; ; n++ {
				s.Sample(n, u)
				c.Observe(finTempU(u[0]) >= tcrit)
				if c.Count >= 3 && n%1024 == 0 {
					p := c.Prob()
					if math.Sqrt((1-p)/(p*float64(c.N))) <= targetCoV {
						break
					}
				}
				if n >= 1<<21 {
					b.Fatal("monte carlo did not reach the target CoV in 2M solves")
				}
			}
			solves = c.N
		}
		b.ReportMetric(float64(solves), "solves")
	})

	b.Run("rqmc-sobol", func(b *testing.B) {
		const reps = 8
		var solves int
		for i := 0; i < b.N; i++ {
			q, err := uq.NewRQMC(1, reps, 4242)
			if err != nil {
				b.Fatal(err)
			}
			counters := make([]stats.ExceedCounter, reps)
			u := make([]float64, 1)
			n := 0
			for chunk := 0; ; chunk++ {
				for k := 0; k < reps*1024; k++ {
					q.Sample(n, u)
					counters[q.Replicate(n)].Observe(finTempU(u[0]) >= tcrit)
					n++
				}
				est, err := uq.EstimateReplicates(counters)
				if err != nil {
					b.Fatal(err)
				}
				if est.P > 0 && est.CoV() <= targetCoV {
					break
				}
				if n >= 1<<21 {
					b.Fatal("RQMC did not reach the target CoV in 2M solves")
				}
			}
			solves = n
		}
		b.ReportMetric(float64(solves), "solves")
	})

	b.Run("subset", func(b *testing.B) {
		var solves int
		var cov float64
		lsf := MaxOutputFactory(uq.SingleFactory(finUQModel{}), []uq.Dist{uq.Normal{Mu: 0, Sigma: 1}})
		for i := 0; i < b.N; i++ {
			res, err := RunSubset(context.Background(), lsf, SubsetConfig{
				Threshold: tcrit,
				Dim:       1,
				N:         2000,
				Seed:      4242,
			})
			if err != nil {
				b.Fatal(err)
			}
			if !res.Converged || res.CoV > targetCoV {
				b.Fatalf("subset run missed the target: converged=%v CoV=%.2f", res.Converged, res.CoV)
			}
			solves, cov = res.Evals, res.CoV
		}
		b.ReportMetric(float64(solves), "solves")
		b.ReportMetric(cov, "cov")
	})
}
