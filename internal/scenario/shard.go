// Sharded scenario execution: the pieces a worker fleet needs to run ONE
// shard of a sharded streaming scenario (RunShard) and a coordinator needs
// to fold completed shards back into a full ScenarioResult
// (FinalizeShards). The engine's local sharded path and the etworker fleet
// both go through these functions, so a distributed run is bit-identical to
// a single-process run of the same shard plan.
package scenario

import (
	"context"
	"fmt"

	"etherm/internal/config"
	"etherm/internal/degrade"
	"etherm/internal/study"
	"etherm/internal/uq"
)

// ShardDelegate runs a whole sharded streaming campaign somewhere other
// than the engine's process — typically a fleet coordinator that leases the
// scenario's shards to etworker processes and merges the posted results.
// Implementations must return the MergeShards-produced campaign result;
// the engine turns it into the ScenarioResult exactly as it would a local
// campaign. Per-sample progress events do not fire on this path (remote
// workers expose no per-sample stream) — shard-level progress is the
// delegate's to expose, e.g. on the fleet coordinator's job view.
type ShardDelegate interface {
	RunSharded(ctx context.Context, s Scenario) (*uq.CampaignResult, error)
}

// ShardPlan returns the deterministic shard plan of a sharded scenario.
// The plan depends only on the declaration (budget, shard count, block
// size), so every participant — engine, coordinator, workers — derives the
// same partition independently.
func ShardPlan(s Scenario) (*uq.ShardPlan, error) {
	if !s.UQ.Sharded() {
		return nil, fmt.Errorf("scenario %q is not sharded", s.Name)
	}
	return uq.PlanShards(s.UQ.Budget(), s.UQ.Shards, s.UQ.ShardBlock)
}

// shardInputs instantiates the model side of a sharded scenario: cached
// assembly, simulator, factory/distributions and the sampler.
func shardInputs(cache *AssemblyCache, s Scenario) (*Instance, uq.ModelFactory, []uq.Dist, uq.Sampler, error) {
	spec, err := Materialize(s.Chip)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	inst, err := cache.Instantiate(spec, s.Chip.ActivePairs)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	sim, err := inst.Simulator(config.CoreOptions(s.Sim, true))
	if err != nil {
		return nil, nil, nil, nil, err
	}
	factory, dists := studyInputs(sim, s.UQ)
	sampler, err := newSampler(s.UQ.EffectiveMethod(), len(dists), s.UQ)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return inst, factory, dists, sampler, nil
}

// criticalK resolves the failure threshold of a scenario.
func criticalK(s Scenario) float64 {
	if s.UQ.CriticalK > 0 {
		return s.UQ.CriticalK
	}
	return degrade.DefaultCriticalTemp
}

// streamOptions assembles the study.StreamOptions of a local sampling
// scenario: the budget, adaptive targets and shard plan of the uq block,
// the campaign tag that guards checkpoints and merges against
// configuration drift, and auto-resume whenever a checkpoint path is set
// (sharded campaigns read "<path>.shard-N" files).
func streamOptions(s Scenario, workers int, onSample func(int, error)) study.StreamOptions {
	return study.StreamOptions{
		Samples:         s.UQ.Budget(),
		Workers:         workers,
		TargetSE:        s.UQ.TargetSE,
		TargetCI:        s.UQ.TargetCI,
		Checkpoint:      s.UQ.Checkpoint,
		CheckpointEvery: s.UQ.CheckpointEvery,
		Resume:          s.UQ.Checkpoint != "",
		Tag:             campaignTag(s),
		TCrit:           criticalK(s),
		Shards:          s.UQ.Shards,
		ShardBlock:      s.UQ.ShardBlock,
		OnSample:        onSample,
	}
}

// RunShard evaluates one shard of a sharded streaming scenario through the
// given assembly cache. It is the worker-side entry point of the fleet: the
// returned ShardResult is self-contained (per-block accumulators plus
// fingerprint/tag identity) and safe to serialize to a coordinator.
func RunShard(ctx context.Context, cache *AssemblyCache, s Scenario, shard, workers int) (*uq.ShardResult, error) {
	s = s.WithSimDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	plan, err := ShardPlan(s)
	if err != nil {
		return nil, err
	}
	_, factory, dists, sampler, err := shardInputs(cache, s)
	if err != nil {
		return nil, err
	}
	// The shard options come from streamOptions exactly as the engine's
	// local sharded path derives them, so both produce the same shard state.
	return uq.RunShard(ctx, factory, dists, sampler, plan, shard, streamOptions(s, workers, nil).ShardOptions())
}

// FinalizeShards merges completed shard results of a sharded scenario and
// builds the full ScenarioResult a local run would have produced (the
// caller owns Index and ElapsedS). The merged campaign is returned
// alongside so services can expose the raw accumulator state.
func FinalizeShards(cache *AssemblyCache, s Scenario, results []*uq.ShardResult) (*ScenarioResult, *uq.CampaignResult, error) {
	s = s.WithSimDefaults()
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	plan, err := ShardPlan(s)
	if err != nil {
		return nil, nil, err
	}
	camp, err := uq.MergeShards(plan, results)
	if err != nil {
		return nil, nil, err
	}
	if want := campaignTag(s); camp.Tag != want {
		return nil, nil, fmt.Errorf("scenario %q: merged shards carry tag %q, expected %q (stale or foreign shard state)", s.Name, camp.Tag, want)
	}
	spec, err := Materialize(s.Chip)
	if err != nil {
		return nil, nil, err
	}
	inst, err := cache.Instantiate(spec, s.Chip.ActivePairs)
	if err != nil {
		return nil, nil, err
	}
	res := &ScenarioResult{
		Name: s.Name, Description: s.Description,
		Method:    s.UQ.EffectiveMethod(),
		CacheHit:  inst.CacheHit,
		GridNodes: inst.Problem.Grid.NumNodes(),
		NumWires:  len(inst.Problem.Wires),
	}
	tCrit := criticalK(s)
	f7, err := study.BuildFig7FromCampaign(study.Times(config.CoreOptions(s.Sim, true)), camp, len(inst.Problem.Wires), tCrit)
	if err != nil {
		return nil, nil, err
	}
	res.Samples = camp.Succeeded()
	res.Failures = camp.Failures
	res.ErrorMCK = f7.ErrorMC
	applyCampaign(res, camp, s.UQ.Shards)
	fillFromFig7(res, inst, f7, tCrit)
	return res, camp, nil
}
