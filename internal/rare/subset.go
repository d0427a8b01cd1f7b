// Package rare estimates small failure probabilities — P(T_max ≥ T_crit)
// down to 1e-8 — orders of magnitude cheaper than plain Monte Carlo. It
// follows the companion paper "Determination of Bond Wire Failure
// Probabilities in Microelectronic Packages" (arXiv:1609.06187): bond-wire
// failure probabilities of industrial interest sit at 1e-6..1e-8, where
// direct MC needs ~1e8 FEM solves per answered probability.
//
// The estimators change the sampling *distribution*, not the sampler:
// subset simulation (subset.go) walks a chain of conditional levels toward
// the failure domain, importance sampling (importance.go) shifts the germ
// mean toward it. Both emit stats.ExceedCounter-backed estimates with CoV
// diagnostics. The unit-cube samplers, Owen-scrambled Sobol' and
// randomized QMC with its replicate estimator included, live in
// internal/uq.
package rare

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"etherm/internal/pool"
	"etherm/internal/stats"
	"etherm/internal/uq"
)

// LimitState evaluates the scalar limit-state function g(z) on the
// standard-normal germ space; failure is the event g(z) ≥ threshold. One
// LimitState instance is used by one goroutine at a time.
type LimitState func(z []float64) (float64, error)

// LimitStateFactory builds independent LimitState instances for parallel
// workers, mirroring uq.ModelFactory.
type LimitStateFactory func() (LimitState, error)

// MaxOutputFactory adapts the campaign seam — a uq.ModelFactory plus the
// germ distributions — into a limit state: the germ z maps through each
// distribution's quantile at Φ(z) to physical parameters, and g is the
// maximum over the model outputs (for the paper's studies, the end-time
// peak wire temperature in kelvin).
func MaxOutputFactory(factory uq.ModelFactory, dists []uq.Dist) LimitStateFactory {
	return func() (LimitState, error) {
		m, err := factory()
		if err != nil {
			return nil, err
		}
		if m.Dim() != len(dists) {
			return nil, fmt.Errorf("rare: model dimension %d does not match %d distributions", m.Dim(), len(dists))
		}
		std := uq.Normal{Mu: 0, Sigma: 1}
		u := make([]float64, len(dists))
		p := make([]float64, len(dists))
		out := make([]float64, m.NumOutputs())
		return func(z []float64) (float64, error) {
			for j := range z {
				u[j] = std.CDF(z[j])
			}
			uq.TransformPoint(dists, u, p)
			if err := m.Eval(p, out); err != nil {
				return 0, err
			}
			g := math.Inf(-1)
			for _, v := range out {
				if v > g {
					g = v
				}
			}
			return g, nil
		}, nil
	}
}

// Defaults applied by SubsetConfig normalization, exported so serving
// layers can report effective values without re-deriving them.
const (
	// DefaultLevelSamples is the per-level sample count N.
	DefaultLevelSamples = 2000
	// DefaultP0 is the conditional probability per level.
	DefaultP0 = 0.1
	// DefaultMaxLevels bounds the level count — enough for
	// PF = P0^12 = 1e-12 before the final conditional factor.
	DefaultMaxLevels = 12
)

// SubsetConfig parameterizes a subset-simulation run (Au & Beck 2001,
// modified Metropolis variant).
type SubsetConfig struct {
	// Threshold is the failure level: PF = P(g ≥ Threshold).
	Threshold float64
	// Dim is the germ dimensionality.
	Dim int
	// N is the number of samples per level. It must be divisible by the
	// seed count round(P0·N) so chains have equal integer length.
	N int
	// P0 is the conditional probability per level (default 0.1).
	P0 float64
	// MaxLevels bounds the level count (default 12 — enough for
	// PF = P0^12 = 1e-12 before the final conditional factor).
	MaxLevels int
	// Seed keys every random decision. Two runs with equal config are
	// bit-identical, for any Workers value.
	Seed uint64
	// Step is the component proposal standard deviation (default 1).
	Step float64
	// Workers caps concurrent limit-state evaluations (default 1).
	Workers int
	// OnLevel, when set, receives each completed level's statistics —
	// the telemetry hook behind SSE per-level progress.
	OnLevel func(SubsetLevel)
}

func (c *SubsetConfig) normalize() error {
	if c.Dim < 1 {
		return fmt.Errorf("rare: subset simulation needs a positive dimension, got %d", c.Dim)
	}
	if c.P0 == 0 {
		c.P0 = DefaultP0
	}
	if c.P0 <= 0 || c.P0 >= 0.5 {
		return fmt.Errorf("rare: conditional probability p0 = %g outside (0, 0.5)", c.P0)
	}
	if c.N == 0 {
		c.N = DefaultLevelSamples
	}
	seeds := int(math.Round(c.P0 * float64(c.N)))
	if seeds < 2 {
		return fmt.Errorf("rare: level size %d gives %d seed chains; need ≥ 2 (raise N or p0)", c.N, seeds)
	}
	if c.N%seeds != 0 {
		return fmt.Errorf("rare: level size %d not divisible by %d seed chains (pick N a multiple of 1/p0)", c.N, seeds)
	}
	if c.MaxLevels == 0 {
		c.MaxLevels = DefaultMaxLevels
	}
	if c.MaxLevels < 1 {
		return fmt.Errorf("rare: max levels %d < 1", c.MaxLevels)
	}
	if c.Step == 0 {
		c.Step = 1
	}
	if c.Step < 0 {
		return fmt.Errorf("rare: negative MCMC step %g", c.Step)
	}
	return nil
}

// SubsetLevel is the per-level telemetry of a subset-simulation run.
type SubsetLevel struct {
	// Level is 0 for the unconditional Monte Carlo stage.
	Level int `json:"level"`
	// Threshold is the intermediate failure level t_ℓ this stage reached:
	// the conditional (1−p0)-quantile of g, capped at the target.
	Threshold float64 `json:"threshold"`
	// Accept is the chain move acceptance rate (1 for the iid level 0).
	Accept float64 `json:"accept"`
	// CondProb is P(g ≥ Threshold | previous level) estimated here.
	CondProb float64 `json:"cond_prob"`
	// Exceed counts threshold exceedances among the level's N samples —
	// ExceedCounter-compatible with the stats pipeline.
	Exceed stats.ExceedCounter `json:"exceed"`
	// Gamma is the chain-correlation variance inflation factor γ_ℓ
	// (0 for the iid level).
	Gamma float64 `json:"gamma"`
	// Evals is the number of fresh limit-state evaluations this level.
	Evals int `json:"evals"`
}

// SubsetResult is the outcome of a subset-simulation run.
type SubsetResult struct {
	// PF estimates P(g ≥ Threshold) as Π_ℓ CondProb_ℓ.
	PF float64 `json:"p_fail"`
	// CoV is the estimator coefficient of variation δ, from the Au–Beck
	// per-level δ_ℓ² = (1−p_ℓ)/(p_ℓ N)·(1+γ_ℓ) summed over levels.
	CoV float64 `json:"cov"`
	// Levels holds per-level telemetry in order.
	Levels []SubsetLevel `json:"levels"`
	// Evals is the total number of limit-state evaluations.
	Evals int `json:"evals"`
	// Converged reports whether the target threshold was reached within
	// MaxLevels (when false, PF is an upper-bound estimate).
	Converged bool `json:"converged"`
}

// mix64 is the splitmix64 finalizer — a cheap, high-quality 64-bit mixer
// that derives every chain and sample key. Deterministic by construction:
// every random-looking decision of the estimators is a pure function of
// (seed, structural index).
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// chainKey derives the deterministic RNG key of chain c at level ℓ. All
// chain randomness flows from it, so the estimate does not depend on how
// chains are scheduled across goroutines.
func chainKey(seed uint64, level, chain int) uint64 {
	return mix64(seed ^ mix64(uint64(level)*0x2545f4914f6cdd1d+uint64(chain)+0x9e3779b97f4a7c15))
}

// norm01 draws a standard normal via the inverse CDF of a uniform —
// slower than a ziggurat but a pure function of the PCG stream, which the
// bit-identity guarantees rest on.
func norm01(rng *rand.Rand) float64 {
	u := rng.Float64()
	if u < 1e-15 {
		u = 1e-15
	} else if u > 1-1e-15 {
		u = 1 - 1e-15
	}
	return uq.Normal{Mu: 0, Sigma: 1}.Quantile(u)
}

// subsetState is one germ point with its limit-state value.
type subsetState struct {
	z []float64
	g float64
}

// RunSubset estimates PF = P(g ≥ cfg.Threshold) by subset simulation:
// an iid Monte Carlo level followed by conditional levels whose samples
// come from modified-Metropolis chains started at the previous level's
// top-p0 seeds. Intermediate thresholds adapt to the conditional
// (1−p0)-quantile, so each level captures a factor of p0 and PF down to
// 1e-8 costs ~MaxLevels·N evaluations instead of 1/PF.
//
// Determinism: every sample is a pure function of (Seed, level, chain,
// step), levels fold chains in chain order, and seeds are selected by a
// total order (g descending, index ascending) — reruns and any Workers
// setting are bit-identical.
func RunSubset(ctx context.Context, lsf LimitStateFactory, cfg SubsetConfig) (*SubsetResult, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	res := &SubsetResult{}
	nSeeds := int(math.Round(cfg.P0 * float64(cfg.N)))
	chainLen := cfg.N / nSeeds
	lss, err := limitStates(lsf, cfg.Workers, cfg.N) // one set for every level
	if err != nil {
		return nil, err
	}

	// Level 0: N iid standard-normal points, one per-index PCG stream. Each
	// point is freshly allocated, so the fold keeps it.
	cur := make([]subsetState, cfg.N)
	err = pool.Run(ctx, lss, 0, cfg.N,
		func(ls LimitState, i int, st *subsetState) (err error) {
			rng := rand.New(rand.NewPCG(cfg.Seed, chainKey(cfg.Seed, 0, i)))
			st.z = make([]float64, cfg.Dim)
			for j := range st.z {
				st.z[j] = norm01(rng)
			}
			if st.g, err = ls(st.z); err != nil {
				return fmt.Errorf("rare: limit state at sample %d: %w", i, err)
			}
			return nil
		},
		func(i int, st *subsetState) bool {
			cur[i] = *st
			return true
		})
	if err != nil {
		return nil, err
	}
	res.Evals += cfg.N

	pf := 1.0
	var cov2 float64
	// Telemetry of the stage that *produced* the current samples: level 0
	// is iid (acceptance 1), conditional levels inherit their generating
	// chains' acceptance and evaluation count.
	genAccept, genEvals := 1.0, cfg.N
	for level := 0; ; level++ {
		// Order by g descending (index ascending on ties) to find the
		// conditional quantile and the next level's seeds.
		order := make([]int, len(cur))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool { return cur[order[a]].g > cur[order[b]].g })
		t := cur[order[nSeeds-1]].g // conditional (1−p0)-quantile
		reached := t >= cfg.Threshold
		final := reached || level == cfg.MaxLevels-1
		if final {
			t = cfg.Threshold // count against the real target
		}

		lv := SubsetLevel{Level: level, Threshold: t, Accept: genAccept, Evals: genEvals}
		for i := range cur {
			lv.Exceed.Observe(cur[i].g >= t)
		}
		lv.CondProb = lv.Exceed.Prob()
		lv.Gamma = chainGamma(cur, t, level, chainLen)
		pf *= lv.CondProb
		cov2 += levelCoV2(lv, cfg.N)
		res.Levels = append(res.Levels, lv)
		if cfg.OnLevel != nil {
			cfg.OnLevel(lv)
		}
		if final {
			res.Converged = reached
			break
		}

		// Conditional level: one modified-Metropolis chain per seed,
		// folded in chain order.
		seeds := make([]subsetState, nSeeds)
		for k := 0; k < nSeeds; k++ {
			seeds[k] = cur[order[k]]
		}
		next, accepted, proposed, evals, err := runChains(ctx, lss, cfg, seeds, level+1, chainLen, t)
		if err != nil {
			return nil, err
		}
		res.Evals += evals
		cur = next
		genAccept, genEvals = 1, evals
		if proposed > 0 {
			genAccept = float64(accepted) / float64(proposed)
		}
	}

	res.PF = pf
	res.CoV = math.Sqrt(cov2)
	return res, nil
}

func boolTo(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// levelCoV2 is the Au–Beck per-level squared CoV contribution
// δ_ℓ² = (1−p)/(p·N)·(1+γ).
func levelCoV2(lv SubsetLevel, n int) float64 {
	p := lv.CondProb
	if p <= 0 {
		return math.Inf(1)
	}
	return (1 - p) / (p * float64(n)) * (1 + lv.Gamma)
}

// chainGamma estimates the variance inflation γ_ℓ from the lag
// autocovariance of the exceedance indicator along each chain (Au & Beck
// 2001, eq. 25–29). Level 0 is iid, so γ = 0 there.
func chainGamma(cur []subsetState, t float64, level, chainLen int) float64 {
	if level == 0 || chainLen < 2 {
		return 0
	}
	n := len(cur)
	nc := n / chainLen
	var p float64
	for i := range cur {
		p += boolTo(cur[i].g >= t)
	}
	p /= float64(n)
	r0 := p * (1 - p)
	if r0 <= 0 {
		return 0
	}
	gamma := 0.0
	for lag := 1; lag < chainLen; lag++ {
		var sum float64
		cnt := 0
		for c := 0; c < nc; c++ {
			base := c * chainLen
			for k := 0; k+lag < chainLen; k++ {
				sum += boolTo(cur[base+k].g >= t) * boolTo(cur[base+k+lag].g >= t)
				cnt++
			}
		}
		ri := sum/float64(cnt) - p*p
		gamma += 2 * (1 - float64(lag)/float64(chainLen)) * (ri / r0)
	}
	if gamma < 0 {
		gamma = 0
	}
	return gamma
}

// runChains advances one modified-Metropolis chain per seed at the given
// level, each chainLen samples long (the seed is sample 0), in one pool run
// over whole chains. Samples land in a slice indexed by (chain, step), so
// scheduling cannot affect the estimate.
func runChains(ctx context.Context, lss []LimitState, cfg SubsetConfig, seeds []subsetState, level, chainLen int, t float64) (out []subsetState, accepted, proposed, evals int, err error) {
	out = make([]subsetState, len(seeds)*chainLen)
	err = pool.Run(ctx, lss, 0, len(seeds),
		func(ls LimitState, c int, st *oneChainStats) (err error) {
			*st, err = runOneChain(ctx, ls, cfg, seeds[c], level, c, chainLen, t, out[c*chainLen:(c+1)*chainLen])
			return err
		},
		func(_ int, st *oneChainStats) bool {
			accepted += st.accepted
			proposed += st.proposed
			evals += st.evals
			return true
		})
	if err != nil {
		return nil, 0, 0, 0, err
	}
	return out, accepted, proposed, evals, nil
}

type oneChainStats struct{ accepted, proposed, evals int }

// runOneChain runs the modified Metropolis walk of one chain: per
// component, propose z'_j = z_j + Step·ξ and pre-accept with probability
// min(1, φ(z'_j)/φ(z_j)); when any component moved, evaluate g and accept
// the move iff g ≥ t (otherwise the chain repeats its current state).
// Proposals with no moved component reuse the cached g — no evaluation.
func runOneChain(ctx context.Context, ls LimitState, cfg SubsetConfig, seed subsetState, level, chain, chainLen int, t float64, dst []subsetState) (oneChainStats, error) {
	var st oneChainStats
	rng := rand.New(rand.NewPCG(cfg.Seed, chainKey(cfg.Seed, level, chain)))
	cur := subsetState{z: append([]float64(nil), seed.z...), g: seed.g}
	dst[0] = subsetState{z: append([]float64(nil), cur.z...), g: cur.g}
	cand := make([]float64, len(cur.z))
	for k := 1; k < chainLen; k++ {
		if err := ctx.Err(); err != nil {
			return st, err
		}
		moved := false
		for j := range cur.z {
			xi := cur.z[j] + cfg.Step*norm01(rng)
			// Component acceptance ratio for a standard-normal target:
			// φ(ξ)/φ(z) = exp((z² − ξ²)/2).
			if rng.Float64() < math.Exp((cur.z[j]*cur.z[j]-xi*xi)/2) {
				cand[j] = xi
				moved = true
			} else {
				cand[j] = cur.z[j]
			}
		}
		st.proposed++
		if moved {
			g, err := ls(cand)
			if err != nil {
				return st, fmt.Errorf("rare: limit state at level %d chain %d: %w", level, chain, err)
			}
			st.evals++
			if g >= t {
				copy(cur.z, cand)
				cur.g = g
				st.accepted++
			}
		}
		dst[k] = subsetState{z: append([]float64(nil), cur.z...), g: cur.g}
	}
	return st, nil
}

// limitStates builds one limit state per worker (at least one, at most n)
// through pool.Build, before any evaluation: a factory cloning a shared
// simulator must not race with worker 0 mutating it.
func limitStates(lsf LimitStateFactory, workers, n int) ([]LimitState, error) {
	lss, err := pool.Build(max(1, min(workers, n)), func(int) (LimitState, error) { return lsf() })
	if err != nil {
		return nil, fmt.Errorf("rare: limit-state factory: %w", err)
	}
	return lss, nil
}

// NewRQMC forwards to uq.NewRQMC. The benchmark's reference run
// (bench/etbench/reference.go) is its only caller; it leaves with the next
// change to the benchmark.
func NewRQMC(d, r int, seed uint64) (*uq.RQMC, error) { return uq.NewRQMC(d, r, seed) }

// EstimateReplicates forwards to uq.EstimateReplicates. The benchmark's
// reference run is its only caller; it leaves with the next change to the
// benchmark.
func EstimateReplicates(counters []stats.ExceedCounter) (*uq.ReplicateEstimate, error) {
	return uq.EstimateReplicates(counters)
}
