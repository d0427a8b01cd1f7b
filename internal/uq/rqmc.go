package uq

import (
	"fmt"
	"math"

	"etherm/internal/stats"
)

// RQMC interleaves R independently Owen-scrambled Sobol' sequences
// round-robin: global index i maps to point i/R of replicate i%R. Each
// replicate is an unbiased QMC estimator, so the spread across replicate
// means gives a CLT-valid standard error — the error bar plain QMC cannot
// provide. The round-robin order keeps every stream prefix
// replicate-balanced (any first N global samples contain ⌈N/R⌉ or ⌊N/R⌋
// points of each replicate), so streaming stops, checkpoints and
// block-aligned fleet shards all remain statistically sound.
type RQMC struct {
	reps []*Sobol
}

// DefaultReplicates is the replicate count serving layers use when the
// caller does not pick one: enough for a stable CLT error bar without
// diluting each replicate's QMC accuracy.
const DefaultReplicates = 8

// NewRQMC returns a d-dimensional randomized-QMC sampler with r
// independently scrambled replicates. Replicate seeds derive from (seed,
// replicate) so the whole family is reproducible from one integer.
func NewRQMC(d, r int, seed uint64) (*RQMC, error) {
	if r < 2 {
		return nil, fmt.Errorf("uq: RQMC needs at least 2 replicates for an error bar, got %d", r)
	}
	q := &RQMC{reps: make([]*Sobol, r)}
	for rep := range q.reps {
		s, err := NewScrambledSobol(d, mix64(seed^mix64(uint64(rep)+0xa0761d6478bd642f)))
		if err != nil {
			return nil, err
		}
		q.reps[rep] = s
	}
	return q, nil
}

// Dim implements Sampler.
func (q *RQMC) Dim() int { return q.reps[0].d }

// Name implements Sampler.
func (q *RQMC) Name() string { return "rqmc-sobol" }

// Replicates returns R.
func (q *RQMC) Replicates() int { return len(q.reps) }

// Replicate returns which scramble replicate global index i belongs to.
func (q *RQMC) Replicate(i int) int { return i % len(q.reps) }

// Sample implements Sampler.
func (q *RQMC) Sample(i int, dst []float64) {
	r := len(q.reps)
	q.reps[i%r].Sample(i/r, dst)
}

// ReplicateEstimate aggregates per-replicate exceedance counters into a
// probability estimate with a CLT standard error over replicate means.
type ReplicateEstimate struct {
	P  float64 // pooled probability estimate
	SE float64 // standard error of the mean over replicate estimates
	N  int     // total samples across replicates
}

// EstimateReplicates computes the RQMC estimate from per-replicate
// counters: counters[r] must hold the samples of replicate r only (use
// RQMC.Replicate to route observations). It needs ≥ 2 non-empty
// replicates for a finite SE.
func EstimateReplicates(counters []stats.ExceedCounter) (*ReplicateEstimate, error) {
	if len(counters) < 2 {
		return nil, fmt.Errorf("uq: RQMC estimate needs ≥ 2 replicate counters, got %d", len(counters))
	}
	var total stats.ExceedCounter
	mean, m2 := 0.0, 0.0
	for i, c := range counters {
		if c.N == 0 {
			return nil, fmt.Errorf("uq: empty RQMC replicate (unbalanced stream)")
		}
		total.Merge(c)
		p := c.Prob()
		d := p - mean
		mean += d / float64(i+1)
		m2 += d * (p - mean)
	}
	r := float64(len(counters))
	return &ReplicateEstimate{
		P:  total.Prob(),
		SE: math.Sqrt(m2 / (r - 1) / r),
		N:  total.N,
	}, nil
}

// CoV returns the coefficient of variation SE/P (infinite when no
// exceedance was seen).
func (e *ReplicateEstimate) CoV() float64 {
	if e.P == 0 {
		return math.Inf(1)
	}
	return e.SE / e.P
}
