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

	"etherm/internal/degrade"
	"etherm/internal/uq"
)

// ShardDelegate runs a whole sharded streaming campaign somewhere other
// than the engine's process — typically a fleet coordinator that leases the
// scenario's shards to etworker processes and merges the posted results.
// Implementations return the ScenarioResult that FinalizeShards built from
// the merge, as a copy the engine may write Index, CacheHit and ElapsedS
// into. Per-sample progress events do not fire on this path (remote
// workers expose no per-sample stream) — shard-level progress is the
// delegate's to expose, e.g. on the fleet coordinator's job view.
type ShardDelegate interface {
	RunSharded(ctx context.Context, s Scenario) (*ScenarioResult, error)
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

// criticalK resolves the failure threshold of a scenario.
func criticalK(s Scenario) float64 {
	if s.UQ.CriticalK > 0 {
		return s.UQ.CriticalK
	}
	return degrade.DefaultCriticalTemp
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
	spec, err := Materialize(s.Chip)
	if err != nil {
		return nil, err
	}
	inst, err := cache.Instantiate(spec, s.Chip.ActivePairs)
	if err != nil {
		return nil, err
	}
	sim, err := inst.Simulator(coreOptions(s.Sim, true))
	if err != nil {
		return nil, err
	}
	factory, dists := studyInputs(sim, s.UQ)
	sampler, err := newSampler(s.UQ, len(dists))
	if err != nil {
		return nil, err
	}
	_, opt := campaignOptions(s, workers, nil)
	return uq.RunShard(ctx, factory, dists, sampler, plan, shard, opt)
}

// FinalizeShards merges completed shard results of a sharded scenario and
// builds the full ScenarioResult a local run would have produced (the
// caller owns Index and ElapsedS).
func FinalizeShards(cache *AssemblyCache, s Scenario, results []*uq.ShardResult) (*ScenarioResult, error) {
	s = s.WithSimDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	plan, err := ShardPlan(s)
	if err != nil {
		return nil, err
	}
	camp, err := uq.MergeShards(plan, results)
	if err != nil {
		return nil, err
	}
	if want := campaignTag(s); camp.Tag != want {
		return nil, fmt.Errorf("scenario %q: merged shards carry tag %q, expected %q (stale or foreign shard state)", s.Name, camp.Tag, want)
	}
	spec, err := Materialize(s.Chip)
	if err != nil {
		return nil, err
	}
	inst, err := cache.Instantiate(spec, s.Chip.ActivePairs)
	if err != nil {
		return nil, err
	}
	return sampledResult(s, inst, camp)
}
