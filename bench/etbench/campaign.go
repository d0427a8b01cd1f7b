package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"etherm/internal/core"
	"etherm/internal/degrade"
	"etherm/internal/rare"
	"etherm/internal/stats"
	"etherm/internal/study"
	"etherm/internal/uq"
)

// evalTimer wraps a model factory so every evaluation is timed from outside
// the campaign driver. Each model it hands out belongs to one worker and
// keeps its own totals, so timing needs no lock. With a tracer, every
// evaluation is also a "uq.eval" span under parent.
type evalTimer struct {
	inner  uq.ModelFactory
	keep   int // keep every keep-th duration for percentiles
	tr     *tracer
	parent int64

	mu     sync.Mutex
	models []*timedModel
}

type timedModel struct {
	uq.Model
	e      *evalTimer
	worker int
	n      int
	busy   time.Duration
	kept   []float64 // ms
}

func (e *evalTimer) factory() uq.ModelFactory {
	return func() (uq.Model, error) {
		m, err := e.inner()
		if err != nil {
			return nil, err
		}
		e.mu.Lock()
		defer e.mu.Unlock()
		tm := &timedModel{Model: m, e: e, worker: len(e.models)}
		e.models = append(e.models, tm)
		return tm, nil
	}
}

func (m *timedModel) Eval(params, out []float64) error {
	var s open
	if m.e.tr != nil {
		s = m.e.tr.begin("uq.eval", fmt.Sprintf("%d/w%d/%d", m.e.parent, m.worker, m.n), m.e.parent)
	}
	t0 := time.Now()
	err := m.Model.Eval(params, out)
	d := time.Since(t0)
	s.end(nil)
	m.busy += d
	if m.n%m.e.keep == 0 {
		m.kept = append(m.kept, ms(d))
	}
	m.n++
	return err
}

// totals returns the summed evaluation time and the kept durations; call
// it after the campaign returned.
func (e *evalTimer) totals() (busy time.Duration, kept []float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, m := range e.models {
		busy += m.busy
		kept = append(kept, m.kept...)
	}
	return busy, kept
}

// busyShare is Σ busy / (workers × Σ wall) over the spans with this name,
// from their busy_ns and wall_ns counters.
func busyShare(tr *tracer, name string) float64 {
	busy, wall := tr.counter(name, "busy_ns"), tr.counter(name, "wall_ns")
	var b, w float64
	for i := range busy {
		b += busy[i]
		w += wall[i]
	}
	return b / (maxWorkers * w)
}

// foldOverhead is the median over the spans with this name of
// wall − busy/workers: campaign time not covered by model evaluations.
func foldOverhead(tr *tracer, name string) float64 {
	busy, wall := tr.counter(name, "busy_ns"), tr.counter(name, "wall_ns")
	over := make([]float64, len(busy))
	for i := range busy {
		over[i] = (wall[i] - busy[i]/maxWorkers) / 1e9
	}
	return median(over)
}

// Monte Carlo campaign of the paper's Fig. 7 on the coarse chip.
const (
	mcSamples      = 4 // samples per measured campaign
	mcCheckSamples = 2 // samples of the pinned worker-count check
	// Fig. 7 statistics of the check campaign (PseudoRandom sampler seeded
	// with defaultSeed, M = mcCheckSamples, ρ = study.DefaultRho).
	mcCheckEMax  = 501.88264960006893
	mcCheckSigma = 4.243952095743094
	// Every campaign's E_max lies between the hottest-wire end temperatures
	// with every wire at the elongation law's clamps: the end temperature
	// falls as wires lengthen, so δ = 0.9 gives the floor and δ = 0 the
	// ceiling (339.775 K and 526.759 K on the coarse chip), here with a
	// 0.01 K margin (TestMCEnvelope recomputes them). A band around the
	// nominal 501.5 K instead fails at random: a 4-sample mean leaves
	// [495, 510] K in about one campaign in 400.
	mcEMaxFloor   = 339.765
	mcEMaxCeiling = 526.769
)

// mcCampaign runs uq.RunCampaign over study.ParamFactory with the Table II
// transient per sample: latency is one sample's evaluation, throughput is
// samples per second of campaign wall time.
type mcCampaign struct {
	in     *inputs
	sim    *core.Simulator
	dists  []uq.Dist
	times  []float64
	nWires int

	campaigns int
	outcomes  []string // failed plausibility checks of measured campaigns
	cgIters   atomic.Int64
}

func (w *mcCampaign) factory() uq.ModelFactory {
	return study.ParamFactory(w.sim, study.Params{Rho: study.DefaultRho})
}

// setup times what a campaign needs before its first sample: the chip, the
// simulator and one worker model per worker.
func (w *mcCampaign) setup(cfg config, tr *tracer) ([]float64, error) {
	spec := coarseSpec()
	times, err := repeatSetup(cfg, func(i int) error {
		s := tr.begin("uq.campaign_setup", fmt.Sprintf("setup-%d", i), 0)
		lay, err := spec.chip.Build()
		if err != nil {
			return err
		}
		sim, err := core.NewSimulator(lay.Problem, spec.opt)
		if err != nil {
			return err
		}
		w.sim = sim
		f := w.factory()
		for k := 0; k < maxWorkers; k++ {
			if _, err := f(); err != nil {
				return err
			}
		}
		s.end(nil)
		return nil
	})
	if err != nil {
		return nil, err
	}
	w.nWires = len(w.sim.Wires())
	w.dists = study.GermDists(w.nWires, study.DefaultRho)
	opt := w.sim.Options()
	w.times = make([]float64, opt.NumSteps+1)
	for i := range w.times {
		w.times[i] = float64(i) * opt.EndTime / float64(opt.NumSteps)
	}
	_, _, err = w.campaign(defaultSeed, 2, maxWorkers, w.factory()) // warm-up
	return times, err
}

// campaign runs one campaign and reduces it to the Fig. 7 statistics.
func (w *mcCampaign) campaign(seed uint64, samples, workers int, f uq.ModelFactory) (*study.Fig7, *uq.CampaignResult, error) {
	camp, err := uq.RunCampaign(context.Background(), f, w.dists, uq.PseudoRandom{D: len(w.dists), Seed: seed},
		uq.CampaignOptions{MaxSamples: samples, Workers: workers, Threshold: degrade.DefaultCriticalTemp})
	if err != nil {
		return nil, nil, err
	}
	f7, err := study.BuildFig7FromCampaign(w.times, camp, w.nWires, degrade.DefaultCriticalTemp)
	return f7, camp, err
}

func (w *mcCampaign) measure(tr *tracer, window time.Duration, minOps int) (phase, error) {
	if tr != nil {
		// Safe here: no server owns the process-wide observer.
		core.SetSolveObserver(func(_, _ string, iters int) { w.cgIters.Add(int64(iters)) })
		defer core.SetSolveObserver(nil)
	}
	var ph phase
	start := time.Now()
	for k := 0; time.Since(start) < window || len(ph.lat) < minOps; k++ {
		seed := w.in.CampaignSeeds[w.campaigns%numCampaignSeeds]
		w.campaigns++
		cs := tr.begin("uq.campaign", fmt.Sprintf("campaign-%d", k), 0)
		et := &evalTimer{inner: w.factory(), keep: 1, tr: tr, parent: cs.id}
		t0 := time.Now()
		f7, camp, err := w.campaign(seed, mcSamples, maxWorkers, et.factory())
		wall := time.Since(t0)
		busy, kept := et.totals()
		cs.end(map[string]float64{"samples": mcSamples, "busy_ns": float64(busy), "wall_ns": float64(wall)})
		ph.attempted += mcSamples
		if err != nil {
			ph.failed += mcSamples
			w.outcomes = append(w.outcomes, fmt.Sprintf("campaign seed %d: %v", seed, err))
			continue
		}
		ph.failed += camp.Failures
		ph.lat = append(ph.lat, kept...)
		ph.blocks = append(ph.blocks, block{camp.Succeeded(), wall})
		if e := f7.EMax[len(f7.EMax)-1]; !(e >= mcEMaxFloor && e <= mcEMaxCeiling) || !(f7.SigmaMC > 0) {
			w.outcomes = append(w.outcomes, fmt.Sprintf("campaign seed %d: E_max %.3f K outside [%g, %g] K or σ_MC %.3f K not positive",
				seed, e, mcEMaxFloor, mcEMaxCeiling, f7.SigmaMC))
		}
	}
	return ph, nil
}

// check reruns a small campaign at the default seed on one and on two
// workers: both must match each other bit for bit and the pinned values.
func (w *mcCampaign) check() []string {
	fails := w.outcomes
	var got [2][2]float64
	for i, workers := range []int{1, maxWorkers} {
		f7, _, err := w.campaign(defaultSeed, mcCheckSamples, workers, w.factory())
		if err != nil {
			return append(fails, fmt.Sprintf("check campaign on %d worker(s): %v", workers, err))
		}
		got[i] = [2]float64{f7.EMax[len(f7.EMax)-1], f7.SigmaMC}
	}
	if got[0] != got[1] {
		fails = append(fails, fmt.Sprintf("check campaign differs across workers: E_max, σ_MC = %v (1 worker) vs %v (2 workers)", got[0], got[1]))
	}
	if math.Abs(got[1][0]-mcCheckEMax) > 1e-6 || math.Abs(got[1][1]-mcCheckSigma) > 1e-6 {
		fails = append(fails, fmt.Sprintf("check campaign: E_max %v K, σ_MC %v K, pinned %v K, %v K",
			got[1][0], got[1][1], mcCheckEMax, mcCheckSigma))
	}
	return fails
}

func (w *mcCampaign) layers(tr *tracer, traced phase) (map[string]float64, error) {
	samples := 0.0
	for _, n := range tr.counter("uq.campaign", "samples") {
		samples += n
	}
	return map[string]float64{
		"uq.eval_p50_us":     median(tr.durations("uq.eval", time.Microsecond)),
		"uq.busy_share":      busyShare(tr, "uq.campaign"),
		"uq.fold_overhead_s": foldOverhead(tr, "uq.campaign"),
		"uq.cg_iters":        float64(w.cgIters.Load()) / samples,
	}, nil
}

func (w *mcCampaign) close() {}

// The cheap-model workload: the campaign driver and the rare-event engine
// over the lumped package model.
const (
	cheapCampaignSamples = 1 << 16 // samples per campaign
	subsetLevelSamples   = 2000    // subset simulation N per level
	subsetTargetCoV      = 0.3
)

var cheapQuantiles = []float64{0.5, 0.99}

// uqCheap splits its measured phase in two halves: streaming campaigns
// (throughput is campaign samples per second) and subset-simulation runs at
// P_fail ≈ 1e-6 (latency is one run).
type uqCheap struct {
	in        *inputs
	dists     []uq.Dist
	campaigns int
	subsets   int
	pf        []float64 // every subset estimate
	fails     []string
}

func (w *uqCheap) campaignOptions(samples, workers int) uq.CampaignOptions {
	return uq.CampaignOptions{MaxSamples: samples, Workers: workers, Threshold: tCritCheap, Quantiles: cheapQuantiles}
}

// setup times what a campaign and a subset run build before their first
// sample: the germ distributions, a model probe, the streaming accumulators
// and a limit state evaluated once at the nominal germ. Starting the worker
// pool is left to the measured phase: it is a cross-core wake-up whose cost
// depends on where the scheduler places the two threads (5 or 10 µs per
// process here), and every campaign pays it inside its throughput block.
func (w *uqCheap) setup(cfg config, tr *tracer) ([]float64, error) {
	nominal := make([]float64, lumpedWires)
	// No spans here: there are 10^5 or more set-ups of a few microseconds.
	times, err := repeatSetup(cfg, func(int) error {
		w.dists = lumpedDists()
		f := uq.SingleFactory(lumpedModel{})
		m, err := f()
		if err != nil {
			return err
		}
		if _, err := stats.NewStreamStats(m.NumOutputs(), tCritCheap, cheapQuantiles); err != nil {
			return err
		}
		ls, err := rare.MaxOutputFactory(f, w.dists)()
		if err != nil {
			return err
		}
		_, err = ls(nominal)
		return err
	})
	if err != nil {
		return nil, err
	}
	// Warm-up: one short campaign and one subset run.
	if _, err := uq.RunCampaign(context.Background(), uq.SingleFactory(lumpedModel{}), w.dists,
		uq.PseudoRandom{D: lumpedWires, Seed: defaultSeed}, w.campaignOptions(cheapCampaignSamples, maxWorkers)); err != nil {
		return nil, err
	}
	_, _, err = w.subset(defaultSeed, nil, 0)
	return times, err
}

// subset runs one subset simulation. When tracing it records per-level
// spans and returns the time spent in limit-state evaluations.
func (w *uqCheap) subset(seed uint64, tr *tracer, parent int64) (*rare.SubsetResult, time.Duration, error) {
	lsf := rare.MaxOutputFactory(uq.SingleFactory(lumpedModel{}), w.dists)
	cfg := rare.SubsetConfig{Threshold: tCritCheap, Dim: lumpedWires, N: subsetLevelSamples, Seed: seed, Workers: maxWorkers}
	var busy atomic.Int64
	if tr != nil {
		inner := lsf
		lsf = func() (rare.LimitState, error) {
			ls, err := inner()
			if err != nil {
				return nil, err
			}
			return func(z []float64) (float64, error) {
				t0 := time.Now()
				g, err := ls(z)
				busy.Add(int64(time.Since(t0)))
				return g, err
			}, nil
		}
		last := time.Now()
		cfg.OnLevel = func(lv rare.SubsetLevel) {
			now := time.Now()
			tr.record("rare.level", fmt.Sprintf("%d/level-%d", parent, lv.Level), 0, parent, last, now,
				map[string]float64{"accept": lv.Accept, "cond_prob": lv.CondProb, "evals": float64(lv.Evals)})
			last = now
		}
	}
	res, err := rare.RunSubset(context.Background(), lsf, cfg)
	return res, time.Duration(busy.Load()), err
}

func (w *uqCheap) measure(tr *tracer, window time.Duration, minOps int) (phase, error) {
	var ph phase
	start := time.Now()
	for time.Since(start) < window/2 || len(ph.blocks) == 0 {
		seed := w.in.CampaignSeeds[w.campaigns%numCampaignSeeds]
		w.campaigns++
		cs := tr.begin("uq.campaign", fmt.Sprintf("campaign-%d", w.campaigns), 0)
		f := uq.SingleFactory(lumpedModel{})
		var et *evalTimer
		if tr != nil {
			et = &evalTimer{inner: f, keep: 64}
			f = et.factory()
		}
		t0 := time.Now()
		camp, err := uq.RunCampaign(context.Background(), f, w.dists, uq.PseudoRandom{D: lumpedWires, Seed: seed},
			w.campaignOptions(cheapCampaignSamples, maxWorkers))
		wall := time.Since(t0)
		ph.attempted += cheapCampaignSamples
		if err != nil {
			return ph, fmt.Errorf("campaign seed %d: %w", seed, err)
		}
		ph.failed += camp.Failures
		ph.blocks = append(ph.blocks, block{camp.Succeeded(), wall})
		if et != nil {
			busy, kept := et.totals()
			cs.end(map[string]float64{"busy_ns": float64(busy), "wall_ns": float64(wall), "eval_p50_ns": 1e6 * median(kept)})
		}
	}
	start = time.Now()
	for time.Since(start) < window/2 || len(ph.lat) < minOps {
		seed := w.in.SubsetSeeds[w.subsets%numSubsetSeeds]
		w.subsets++
		ss := tr.begin("rare.subset", fmt.Sprintf("subset-%d", w.subsets), 0)
		t0 := time.Now()
		res, busy, err := w.subset(seed, tr, ss.id)
		d := time.Since(t0)
		ph.attempted++
		if err != nil {
			ph.failed++
			w.fails = append(w.fails, fmt.Sprintf("subset seed %d: %v", seed, err))
			continue
		}
		ph.lat = append(ph.lat, ms(d))
		w.pf = append(w.pf, res.PF)
		if !res.Converged {
			w.fails = append(w.fails, fmt.Sprintf("subset seed %d did not reach T_crit in %d levels", seed, len(res.Levels)))
		}
		accept := 0.0
		for _, lv := range res.Levels[1:] {
			accept += lv.Accept / float64(len(res.Levels)-1)
		}
		ss.end(map[string]float64{
			"levels": float64(len(res.Levels)), "accept": accept, "cov": res.CoV,
			"evals": float64(res.Evals), "busy_ns": float64(busy), "wall_ns": float64(d),
		})
	}
	return ph, nil
}

// check requires a campaign to fold bit-identically on one and two
// workers, and the mean subset estimate to lie within a factor of two of
// the RQMC reference.
func (w *uqCheap) check() []string {
	fails := w.fails
	var means [2]float64
	var sketch [2][]float64
	for i, workers := range []int{1, maxWorkers} {
		camp, err := uq.RunCampaign(context.Background(), uq.SingleFactory(lumpedModel{}), w.dists,
			uq.PseudoRandom{D: lumpedWires, Seed: defaultSeed}, w.campaignOptions(cheapCampaignSamples, workers))
		if err != nil {
			return append(fails, fmt.Sprintf("check campaign on %d worker(s): %v", workers, err))
		}
		means[i] = camp.MeanAll()[0]
		for _, p := range cheapQuantiles {
			q, _ := camp.Stats.Quantile(p, 0)
			sketch[i] = append(sketch[i], q)
		}
	}
	if math.Float64bits(means[0]) != math.Float64bits(means[1]) || fmt.Sprint(sketch[0]) != fmt.Sprint(sketch[1]) {
		fails = append(fails, fmt.Sprintf("check campaign differs across workers: mean %v vs %v, quantiles %v vs %v",
			means[0], means[1], sketch[0], sketch[1]))
	}
	if len(w.pf) > 0 {
		mean := 0.0
		for _, p := range w.pf {
			mean += p / float64(len(w.pf))
		}
		if mean < refPFail/2 || mean > 2*refPFail {
			fails = append(fails, fmt.Sprintf("mean subset P_fail %.3g over %d runs is not within a factor 2 of the reference %.3g",
				mean, len(w.pf), refPFail))
		}
	}
	return fails
}

func (w *uqCheap) layers(tr *tracer, traced phase) (map[string]float64, error) {
	sub := func(key string) float64 { return median(tr.counter("rare.subset", key)) }
	evals, cov := tr.counter("rare.subset", "evals"), tr.counter("rare.subset", "cov")
	toCoV := make([]float64, len(evals))
	for i := range evals {
		// Au–Beck CoV falls as 1/√N: evaluations a run would need for
		// subsetTargetCoV.
		toCoV[i] = evals[i] * (cov[i] / subsetTargetCoV) * (cov[i] / subsetTargetCoV)
	}
	return map[string]float64{
		"uq.eval_p50_us":     median(tr.counter("uq.campaign", "eval_p50_ns")) / 1e3,
		"uq.busy_share":      busyShare(tr, "uq.campaign"),
		"uq.fold_overhead_s": foldOverhead(tr, "uq.campaign"),
		"rare.levels":        sub("levels"),
		"rare.accept_rate":   sub("accept"),
		"rare.cov":           sub("cov"),
		"rare.busy_share":    busyShare(tr, "rare.subset"),
		"rare.solves_to_cov": median(toCoV),
	}, nil
}

func (w *uqCheap) close() {}
