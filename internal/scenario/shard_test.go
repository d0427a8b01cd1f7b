package scenario

import (
	"context"
	"encoding/json"
	"testing"

	"etherm/internal/uq"
)

// shardedScenario returns the cheap chip-model Monte Carlo scenario used by
// the sharded-parity tests, with the given shard count.
func shardedScenario(shards int) Scenario {
	return Scenario{
		Name: "mc-sharded", Chip: ChipSpec{HMaxM: testHMax}, Sim: fastSim,
		UQ: UQSpec{Method: MethodMonteCarlo, Samples: 6, Seed: 7, Shards: shards, ShardBlock: 2},
	}
}

// resultJSON canonicalizes a scenario result for bit-for-bit comparison,
// stripping the wall-clock timing field.
func resultJSON(t *testing.T, r *ScenarioResult) string {
	t.Helper()
	cp := *r
	cp.ElapsedS = 0
	data, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestShardedScenarioInvariantAcrossK is the acceptance gate of the sharded
// campaign layer on the chip model: a K-sharded run produces the identical
// ScenarioResult for K ∈ {1, 2, 4}, at different sample-worker counts.
func TestShardedScenarioInvariantAcrossK(t *testing.T) {
	if testing.Short() {
		t.Skip("runs coupled-field ensembles")
	}
	eng := NewEngine() // shared cache keeps the mesh warm across runs
	var want string
	for i, tc := range []struct{ k, sampleWorkers int }{
		{1, 1}, {2, 2}, {4, 1}, {4, 3},
	} {
		b := &Batch{SampleWorkers: tc.sampleWorkers, Scenarios: []Scenario{shardedScenario(tc.k)}}
		res, err := eng.Run(context.Background(), b)
		if err != nil {
			t.Fatal(err)
		}
		if res.FailedCount != 0 {
			t.Fatalf("K=%d: scenario failed: %+v", tc.k, res.Failed())
		}
		sc := res.Scenarios[0]
		if !sc.Streamed || sc.Shards != tc.k || sc.StopReason != "budget" {
			t.Fatalf("K=%d: sharded accounting wrong: streamed=%v shards=%d stop=%q", tc.k, sc.Streamed, sc.Shards, sc.StopReason)
		}
		sc.Shards = 0 // the only field that legitimately differs across K
		sc.CacheHit = false
		got := resultJSON(t, sc)
		if i == 0 {
			want = got
			continue
		}
		if got != want {
			t.Errorf("K=%d workers=%d: result differs from the K=1 run:\n%s\nvs\n%s", tc.k, tc.sampleWorkers, got, want)
		}
	}
}

// TestShardedScenarioMatchesRunShardPlusFinalize verifies the worker-fleet
// decomposition: running each shard through the exported RunShard (as an
// etworker would) and folding with FinalizeShards reproduces the engine's
// local sharded result bit-for-bit.
func TestShardedScenarioMatchesRunShardPlusFinalize(t *testing.T) {
	if testing.Short() {
		t.Skip("runs coupled-field ensembles")
	}
	s := shardedScenario(2)
	eng := NewEngine()
	res, err := eng.Run(context.Background(), &Batch{Scenarios: []Scenario{s}})
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedCount != 0 {
		t.Fatalf("engine run failed: %+v", res.Failed())
	}

	cache := NewCache()
	plan, err := ShardPlan(s)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := runShardsForTest(cache, s, plan.NumShards)
	if err != nil {
		t.Fatal(err)
	}
	final, err := FinalizeShards(cache, s, shards)
	if err != nil {
		t.Fatal(err)
	}
	if n := final.Samples + final.Failures; n != s.UQ.Samples {
		t.Fatalf("merged campaign consumed %d of %d samples", n, s.UQ.Samples)
	}
	want := res.Scenarios[0]
	final.Index = want.Index
	final.CacheHit = want.CacheHit
	if resultJSON(t, final) != resultJSON(t, want) {
		t.Errorf("fleet decomposition differs from the engine result:\n%s\nvs\n%s",
			resultJSON(t, final), resultJSON(t, want))
	}
}

// runShardsForTest runs every shard of a scenario through the worker-side
// entry point.
func runShardsForTest(cache *AssemblyCache, s Scenario, n int) ([]*uq.ShardResult, error) {
	out := make([]*uq.ShardResult, n)
	for k := 0; k < n; k++ {
		r, err := RunShard(context.Background(), cache, s, k, 2)
		if err != nil {
			return nil, err
		}
		out[k] = r
	}
	return out, nil
}

func TestShardedSpecValidation(t *testing.T) {
	base := UQSpec{Method: MethodMonteCarlo, Samples: 8}
	ok := base
	ok.Shards = 2
	if err := ok.Validate(); err != nil {
		t.Errorf("valid sharded spec rejected: %v", err)
	}
	if !ok.Streaming() || !ok.Sharded() {
		t.Error("shards must imply the streaming sharded path")
	}
	adaptive := ok
	adaptive.TargetSE = 0.1
	if err := adaptive.Validate(); err == nil {
		t.Error("sharded spec with adaptive target accepted")
	}
	neg := base
	neg.Shards = -1
	if err := neg.Validate(); err == nil {
		t.Error("negative shard count accepted")
	}
	det := UQSpec{Shards: 2}
	if err := det.Validate(); err == nil {
		t.Error("sharded deterministic scenario accepted")
	}
}
