package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"sync/atomic"

	"etherm/api"
	"etherm/internal/core"
	"etherm/internal/degrade"
	"etherm/internal/rare"
	"etherm/internal/study"
	"etherm/internal/uq"
)

// evaluate runs one scenario end to end: instantiate the problem from the
// assembly cache, run the deterministic or UQ study, and summarize. The
// caller sets the result's Index.
func (e *Engine) evaluate(ctx context.Context, i int, s Scenario, sampleWorkers int) (*ScenarioResult, error) {
	s = s.WithSimDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	spec, err := Materialize(s.Chip)
	if err != nil {
		return nil, err
	}
	if s.UQ.Sharded() && e.Sharder != nil {
		// The fleet path, right after the checks cacheHits makes: workers
		// derive the sampler and model themselves, and the delegate
		// returns the result its merge built. A chip that fails to mesh
		// fails through the fleet job's failure reports.
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		return e.Sharder.RunSharded(ctx, s)
	}
	inst, err := e.cache.Instantiate(spec, s.Chip.ActivePairs)
	if err != nil {
		return nil, err
	}
	method := s.UQ.EffectiveMethod()
	opt := coreOptions(s.Sim, method != MethodNone || s.UQ.Rare())
	sim, err := inst.Simulator(opt)
	if err != nil {
		return nil, err
	}

	res := &ScenarioResult{
		Name: s.Name, Description: s.Description,
		Method:    method,
		GridNodes: inst.Problem.Grid.NumNodes(),
		NumWires:  len(inst.Problem.Wires),
	}
	tCrit := criticalK(s)

	if s.UQ.Rare() {
		if err := e.evaluateRare(ctx, i, s, sim, res, tCrit, sampleWorkers); err != nil {
			return nil, err
		}
		return res, nil
	}

	times := study.Times(opt)
	nTimes := len(times)
	nWires := len(inst.Problem.Wires)

	var f7 *study.Fig7
	switch method {
	case MethodNone:
		r, err := sim.Run()
		if err != nil {
			return nil, err
		}
		if len(r.Times) != nTimes {
			return nil, fmt.Errorf("scenario: run recorded %d time points, expected %d", len(r.Times), nTimes)
		}
		flat := make([]float64, nTimes*nWires)
		for t := 0; t < nTimes; t++ {
			copy(flat[t*nWires:], r.WireTemp[t])
		}
		f7, err = study.BuildFig7FromMoments(times, flat, make([]float64, nTimes*nWires), nWires, tCrit, 0)
		if err != nil {
			return nil, err
		}
		last := nTimes - 1
		res.PTotalEndW = r.FieldPower[last] + r.WirePowerTotal[last]

	case MethodSmolyak:
		factory, dists := studyInputs(sim, s.UQ)
		des, err := uq.SmolyakDesign(dists, s.UQ.Level)
		if err != nil {
			return nil, err
		}
		outs, err := des.Eval(ctx, factory)
		if err != nil {
			return nil, err
		}
		col, err := des.Moments(outs)
		if err != nil {
			return nil, err
		}
		stds := make([]float64, len(col.Mean))
		for j := range stds {
			stds[j] = col.StdDev(j)
		}
		f7, err = study.BuildFig7FromMoments(times, col.Mean, stds, nWires, tCrit, 0)
		if err != nil {
			return nil, err
		}
		res.Evaluations = col.Evaluations

	default: // sampling methods
		camp, err := e.runCampaign(ctx, i, s, sim, sampleWorkers)
		if err != nil {
			return nil, err
		}
		return sampledResult(s, inst, camp)
	}

	fillFromFig7(res, inst, f7, tCrit)
	return res, nil
}

// evaluateRare runs the failure_probability campaign mode: instead of
// moment statistics over the temperature field, estimate
// P(T_max ≥ T_crit) directly with the subset-simulation or
// importance-sampling driver of internal/rare, over the same germ space
// and elongation law the moment studies sample. The hottest-wire series
// and Fig.-7 summary stay empty — a rare-event run spends its evaluations
// in the failure region, not on the mean trajectory.
func (e *Engine) evaluateRare(ctx context.Context, i int, s Scenario, sim *core.Simulator, res *ScenarioResult, tCrit float64, sampleWorkers int) error {
	factory, dists := studyInputs(sim, s.UQ)
	lsf := rare.MaxOutputFactory(factory, dists)
	res.Method = ModeFailureProbability
	res.RareEstimator = s.UQ.EffectiveEstimator()
	res.TCritK = tCrit
	res.OK = true

	switch res.RareEstimator {
	case EstimatorImportance:
		shift := make([]float64, len(dists))
		for j := range shift {
			shift[j] = s.UQ.ISShift
		}
		n := s.UQ.LevelSamples
		if n == 0 {
			n = rare.DefaultLevelSamples
		}
		r, err := rare.RunImportance(ctx, lsf, rare.ISConfig{
			Threshold: tCrit, Shift: shift, N: n,
			Seed: s.UQ.Seed, Workers: sampleWorkers,
		})
		if err != nil {
			return err
		}
		res.Samples = r.N
		res.PFail = &r.PF
		if cov := r.CoV(); !math.IsInf(cov, 0) {
			res.PFailCoV = cov
		}
		res.RareConverged = true
		res.ExceedProb = r.PF

	default: // EstimatorSubset
		maxLevels := s.UQ.MaxLevels
		if maxLevels == 0 {
			maxLevels = rare.DefaultMaxLevels
		}
		r, err := rare.RunSubset(ctx, lsf, rare.SubsetConfig{
			Threshold: tCrit, Dim: len(dists),
			N: s.UQ.LevelSamples, P0: s.UQ.P0, MaxLevels: maxLevels,
			Seed: s.UQ.Seed, Step: s.UQ.MCMCStep, Workers: sampleWorkers,
			OnLevel: func(lv rare.SubsetLevel) {
				e.emit(Event{
					Index: i, Scenario: s.Name, Phase: PhaseLevel,
					Done: lv.Level + 1, Total: maxLevels,
					Level: &RareLevel{
						Level: lv.Level, ThresholdK: lv.Threshold,
						Accept: lv.Accept, CondProb: lv.CondProb, Evals: lv.Evals,
					},
				})
			},
		})
		if err != nil {
			return err
		}
		res.Samples = r.Evals
		res.PFail = &r.PF
		if !math.IsInf(r.CoV, 0) && !math.IsNaN(r.CoV) {
			res.PFailCoV = r.CoV
		}
		res.RareConverged = r.Converged
		res.ExceedProb = r.PF
		res.RareLevels = make([]RareLevel, len(r.Levels))
		for j, lv := range r.Levels {
			res.RareLevels[j] = RareLevel{
				Level: lv.Level, ThresholdK: lv.Threshold,
				Accept: lv.Accept, CondProb: lv.CondProb, Evals: lv.Evals,
			}
		}
	}
	return nil
}

// runCampaign runs a sampling scenario's campaign in this process with
// per-sample progress events: a sharded one shard by shard, any other in
// one fold that resumes from its checkpoint file when there is one.
func (e *Engine) runCampaign(ctx context.Context, i int, s Scenario, sim *core.Simulator, workers int) (*uq.CampaignResult, error) {
	factory, dists := studyInputs(sim, s.UQ)
	sampler, err := newSampler(s.UQ, len(dists))
	if err != nil {
		return nil, err
	}
	var done atomic.Int64
	copt, sopt := campaignOptions(s, workers, func(_ int, sampleErr error) {
		e.emit(Event{
			Index: i, Scenario: s.Name, Phase: PhaseSample,
			Done: int(done.Add(1)), Total: s.UQ.Budget(), Err: sampleErr,
		})
	})
	if s.UQ.Sharded() {
		plan, err := ShardPlan(s)
		if err != nil {
			return nil, err
		}
		return uq.RunShardedCampaign(ctx, factory, dists, sampler, plan, sopt)
	}
	if s.UQ.Checkpoint != "" {
		if copt.Resume, err = uq.LoadCheckpointIfExists(s.UQ.Checkpoint); err != nil {
			return nil, err
		}
	}
	return uq.RunCampaign(ctx, factory, dists, sampler, copt)
}

// campaignOptions maps the uq block of a sampling scenario onto the uq
// campaign options, single-fold and per shard: the budget, adaptive
// targets and threshold, the campaign tag that guards checkpoints and
// merges against configuration drift, and auto-resume whenever a
// checkpoint path is set (sharded campaigns read "<path>.shard-N" files).
// The local sharded path and RunShard, the fleet worker, both take their
// shard options here, so their shard state is byte-identical.
func campaignOptions(s Scenario, workers int, onSample func(int, error)) (uq.CampaignOptions, uq.ShardOptions) {
	tag, tCrit := campaignTag(s), criticalK(s)
	return uq.CampaignOptions{
			MaxSamples: s.UQ.Budget(), Workers: workers,
			TargetSE: s.UQ.TargetSE, TargetCI: s.UQ.TargetCI, Threshold: tCrit,
			CheckpointPath: s.UQ.Checkpoint, CheckpointEvery: s.UQ.CheckpointEvery,
			Tag: tag, OnSample: onSample,
		}, uq.ShardOptions{
			Workers: workers, Threshold: tCrit, Tag: tag,
			CheckpointPath: s.UQ.Checkpoint, CheckpointEvery: s.UQ.CheckpointEvery,
			Resume: s.UQ.Checkpoint != "", OnSample: onSample,
		}
}

// applyCampaign records streaming-campaign accounting on a result.
func applyCampaign(res *ScenarioResult, camp *uq.CampaignResult, shards int) {
	res.Streamed = true
	res.StopReason = camp.StopReason
	res.RequestedSamples = camp.Requested
	res.Shards = shards
	// Zero-sample campaigns (every sample failed, or a zero-sample plan)
	// leave the streaming statistics at their NaN/−Inf identities, which
	// encoding/json refuses to marshal — map them to absent fields.
	res.FailProbEmp = finiteOrNil(camp.Stats.FailProb())
	if m := camp.Stats.Ext.GlobalMax(); !math.IsNaN(m) && !math.IsInf(m, 0) {
		res.TObsMaxK = m
	}
}

// sampledResult turns the campaign of a sampling scenario into its
// ScenarioResult: Fig. 7 from the accumulators, the streaming accounting
// and the hottest-wire summary. The engine builds a local run's result
// here and FinalizeShards a fleet merge's; the caller owns Index and
// ElapsedS.
func sampledResult(s Scenario, inst *Instance, camp *uq.CampaignResult) (*ScenarioResult, error) {
	tCrit := criticalK(s)
	f7, err := study.BuildFig7FromCampaign(study.Times(coreOptions(s.Sim, true)), camp, len(inst.Problem.Wires), tCrit)
	if err != nil {
		return nil, err
	}
	res := &ScenarioResult{
		Name: s.Name, Description: s.Description,
		Method:    s.UQ.EffectiveMethod(),
		CacheHit:  inst.CacheHit,
		GridNodes: inst.Problem.Grid.NumNodes(),
		NumWires:  len(inst.Problem.Wires),
		Samples:   camp.Succeeded(), Failures: camp.Failures, ErrorMCK: f7.ErrorMC,
	}
	if s.UQ.Streaming() {
		applyCampaign(res, camp, s.UQ.Shards)
	}
	fillFromFig7(res, inst, f7, tCrit)
	return res, nil
}

// fillFromFig7 fills the hottest-wire summary, failure diagnostics and
// plotting series shared by every evaluation path (deterministic,
// collocation, sampled and sharded) and marks the result successful.
func fillFromFig7(res *ScenarioResult, inst *Instance, f7 *study.Fig7, tCrit float64) {
	res.OK = true
	res.HotWire = f7.HotWire
	if f7.HotWire < len(inst.Problem.Wires) {
		res.HotWireName = inst.Problem.Wires[f7.HotWire].Name
		res.HotWireSide = inst.Wires[f7.HotWire].Side.String()
	}
	last := len(f7.Times) - 1
	res.TEndMaxK = f7.EMax[last]
	res.SigmaK = f7.SigmaMC
	res.TCritK = tCrit
	res.CrossMeanS = finiteOrNil(f7.CrossMean)
	res.Cross6SigS = finiteOrNil(f7.Cross6Sig)
	res.ExceedProb = f7.ExceedProb
	res.TimesS = f7.Times
	res.HotMeanK = f7.HotSeries()
	res.HotSigmaK = f7.SigmaHot
	if d, err := degrade.MoldEpoxy().Damage(res.TimesS, res.HotMeanK); err == nil {
		res.DamageHot = d
	}
}

// campaignTag fingerprints the physical model and study law behind a
// scenario's samples — everything that changes what an evaluation means,
// excluding the campaign-control knobs (budget, targets, checkpointing)
// that may legitimately differ between a run and its resumption. A stale
// checkpoint from a different configuration is rejected instead of
// silently absorbing mixed-model samples.
func campaignTag(s Scenario) string {
	id := struct {
		Chip      ChipSpec
		Sim       api.SimSpec
		Method    string
		Seed      uint64
		Rho       float64
		MeanDelta float64
		StdDelta  float64
		CriticalK float64
	}{
		Chip:      s.Chip,
		Sim:       s.Sim,
		Method:    s.UQ.EffectiveMethod(),
		Seed:      s.UQ.Seed,
		Rho:       studyParams(s.UQ).Rho,
		MeanDelta: s.UQ.MeanDelta,
		StdDelta:  s.UQ.StdDelta,
		CriticalK: s.UQ.CriticalK,
	}
	data, err := json.Marshal(id)
	if err != nil {
		return "scenario:" + s.Name // cannot happen for plain data; keep a stable fallback
	}
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("scenario:%016x", h.Sum64())
}

// studyParams returns the elongation law a study samples; an unset ρ is
// the calibrated study.DefaultRho.
func studyParams(u UQSpec) study.Params {
	p := study.Params{Mu: u.MeanDelta, Sigma: u.StdDelta, Rho: study.DefaultRho}
	if u.Rho != nil {
		p.Rho = *u.Rho
	}
	return p
}

// studyInputs builds the parallel model factory and germ distributions for a
// UQ study on the instantiated simulator.
func studyInputs(sim *core.Simulator, u UQSpec) (uq.ModelFactory, []uq.Dist) {
	p := studyParams(u)
	return study.ParamFactory(sim, p), study.GermDists(len(sim.Wires()), p.Rho)
}

// newSampler maps a sampling method to its unit-cube sampler of
// internal/uq over dim germs.
func newSampler(u UQSpec, dim int) (uq.Sampler, error) {
	switch method := u.EffectiveMethod(); method {
	case MethodMonteCarlo:
		return uq.PseudoRandom{D: dim, Seed: u.Seed}, nil
	case MethodLHS:
		return uq.NewLatinHypercube(dim, u.Budget(), u.Seed)
	case MethodHalton:
		return uq.NewHalton(dim, u.Seed)
	case MethodSobol:
		return uq.NewSobol(dim)
	case MethodSobolOwen:
		return uq.NewScrambledSobol(dim, u.Seed)
	case MethodRQMC:
		return uq.NewRQMC(dim, uq.DefaultReplicates, u.Seed)
	default:
		return nil, fmt.Errorf("scenario: no sampler for method %q", method)
	}
}

// finiteOrNil converts a NaN sentinel ("never crossed") into a nil pointer
// so the value JSON-encodes as absent instead of an invalid NaN literal.
func finiteOrNil(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}
