package uq

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// statsJSON canonicalizes accumulator state for bit-for-bit comparison:
// identical bits marshal to identical bytes.
func statsJSON(t *testing.T, c *CampaignResult) string {
	t.Helper()
	data, err := json.Marshal(c.Stats)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestPlanShardsPartition(t *testing.T) {
	for _, tc := range []struct{ m, k, b int }{
		{1000, 1, 64}, {1000, 2, 64}, {1000, 4, 64}, {1000, 7, 64},
		{100, 4, 8}, {5, 4, 8}, {64, 64, 1}, {17, 3, 4}, {6, 8, 2},
	} {
		plan, err := PlanShards(tc.m, tc.k, tc.b)
		if err != nil {
			t.Fatal(err)
		}
		prevEnd := 0
		for k := 0; k < plan.NumShards; k++ {
			start, end := plan.Shard(k)
			if start != prevEnd {
				t.Fatalf("plan %+v: shard %d starts at %d, previous ended at %d", *plan, k, start, prevEnd)
			}
			if start%plan.BlockSize != 0 && start != plan.MaxSamples {
				t.Fatalf("plan %+v: shard %d start %d not block-aligned", *plan, k, start)
			}
			if end < start || end > plan.MaxSamples {
				t.Fatalf("plan %+v: shard %d range [%d,%d) invalid", *plan, k, start, end)
			}
			prevEnd = end
		}
		if prevEnd != tc.m {
			t.Fatalf("plan %+v: shards cover [0,%d), want [0,%d)", *plan, prevEnd, tc.m)
		}
	}
	if _, err := PlanShards(0, 2, 8); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := PlanShards(10, 0, 8); err == nil {
		t.Error("zero shards accepted")
	}
	if _, err := PlanShards(10, 2, -1); err == nil {
		t.Error("negative block size accepted")
	}
	plan, err := PlanShards(10, 2, 0)
	if err != nil || plan.BlockSize != DefaultShardBlockSize {
		t.Errorf("default block size not applied: %+v (%v)", plan, err)
	}
}

// TestShardedCampaignInvariantAcrossK is the core guarantee of the sharded
// layer: for a fixed plan granularity, the merged result is bit-identical
// for ANY shard count and ANY per-shard worker count, including shards that
// contain isolated sample failures.
func TestShardedCampaignInvariantAcrossK(t *testing.T) {
	dists := normDists(2)
	const m, block = 600, 16
	var want string
	var wantRes *CampaignResult
	for i, tc := range []struct{ k, workers int }{
		{1, 1}, {1, 4}, {2, 3}, {4, 1}, {4, 8}, {8, 2}, {40, 1},
	} {
		plan, err := PlanShards(m, tc.k, block)
		if err != nil {
			t.Fatal(err)
		}
		camp, err := RunShardedCampaign(context.Background(), SingleFactory(&vecModel{nOut: 4}), dists,
			PseudoRandom{D: 2, Seed: 99}, plan, ShardOptions{Workers: tc.workers, Threshold: 0.5, Tag: "inv"})
		if err != nil {
			t.Fatal(err)
		}
		if camp.Evaluated != m || camp.StopReason != StopBudget {
			t.Fatalf("K=%d: accounting %d/%s", tc.k, camp.Evaluated, camp.StopReason)
		}
		got := statsJSON(t, camp)
		if i == 0 {
			want, wantRes = got, camp
			continue
		}
		if got != want {
			t.Errorf("K=%d workers=%d: merged accumulator state differs from K=1", tc.k, tc.workers)
		}
		if camp.Failures != wantRes.Failures || camp.Tag != wantRes.Tag || camp.SamplerFP != wantRes.SamplerFP {
			t.Errorf("K=%d: accounting differs from K=1", tc.k)
		}
	}

	// The merged moments must agree with the single-fold streaming campaign
	// to floating-point reshuffling accuracy, and the order-independent
	// accumulators (extrema, exceedance counts) exactly.
	single, err := RunCampaign(context.Background(), SingleFactory(&vecModel{nOut: 4}), dists,
		PseudoRandom{D: 2, Seed: 99}, CampaignOptions{MaxSamples: m, Threshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if single.Stats.Ext.GlobalMax() != wantRes.Stats.Ext.GlobalMax() {
		t.Errorf("sharded extrema %g != single-fold %g", wantRes.Stats.Ext.GlobalMax(), single.Stats.Ext.GlobalMax())
	}
	if single.Stats.ExceedAny != wantRes.Stats.ExceedAny {
		t.Errorf("sharded exceedance %+v != single-fold %+v", wantRes.Stats.ExceedAny, single.Stats.ExceedAny)
	}
	for j, mu := range single.MeanAll() {
		if d := wantRes.Stats.Moments.Mean[j] - mu; d > 1e-12 || d < -1e-12 {
			t.Errorf("output %d: sharded mean %g far from single-fold %g", j, wantRes.Stats.Moments.Mean[j], mu)
		}
	}
}

func TestShardedCampaignInvariantWithFailures(t *testing.T) {
	dists := []Dist{unitLaw{}}
	run := func(k int) (*CampaignResult, string) {
		plan, err := PlanShards(500, k, 8)
		if err != nil {
			t.Fatal(err)
		}
		camp, err := RunShardedCampaign(context.Background(), SingleFactory(&failingModel{failAbove: 0.7}), dists,
			PseudoRandom{D: 1, Seed: 3}, plan, ShardOptions{Workers: 3, Threshold: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		return camp, statsJSON(t, camp)
	}
	ref, refJSON := run(1)
	if ref.Failures == 0 {
		t.Fatal("fixture produced no failures; test is vacuous")
	}
	for _, k := range []int{2, 4} {
		camp, got := run(k)
		if got != refJSON || camp.Failures != ref.Failures || camp.Evaluated != ref.Evaluated {
			t.Errorf("K=%d: result differs from K=1 (failures %d vs %d)", k, camp.Failures, ref.Failures)
		}
	}
}

// TestShardCheckpointResume interrupts one shard mid-range and verifies the
// resumed shard reproduces the uninterrupted run bit-for-bit from its
// ".shard-N" file, while the other shard's state file stays untouched.
func TestShardCheckpointResume(t *testing.T) {
	dists := normDists(2)
	plan, err := PlanShards(256, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(t.TempDir(), "campaign.ckpt")
	opt := ShardOptions{Workers: 1, Threshold: 0.5, Tag: "resume", CheckpointPath: base, CheckpointEvery: 8, Resume: true}

	// Uninterrupted reference for shard 1.
	ref, err := RunShard(context.Background(), SingleFactory(&vecModel{nOut: 3}), dists,
		PseudoRandom{D: 2, Seed: 5}, plan, 1, ShardOptions{Workers: 1, Threshold: 0.5, Tag: "resume"})
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancel after 40 evaluations.
	ctx, cancel := context.WithCancel(context.Background())
	iopt := opt
	var n int
	iopt.OnSample = func(int, error) {
		if n++; n == 40 {
			cancel()
		}
	}
	partial, err := RunShard(ctx, SingleFactory(&vecModel{nOut: 3}), dists, PseudoRandom{D: 2, Seed: 5}, plan, 1, iopt)
	if err == nil || partial == nil || partial.Complete() {
		t.Fatalf("interrupted shard: err=%v complete=%v", err, partial != nil && partial.Complete())
	}
	if _, statErr := os.Stat(ShardCheckpointPath(base, 1)); statErr != nil {
		t.Fatalf("shard checkpoint missing: %v", statErr)
	}
	if _, statErr := os.Stat(ShardCheckpointPath(base, 0)); !os.IsNotExist(statErr) {
		t.Fatalf("shard 0 state file appeared from a shard 1 run: %v", statErr)
	}

	resumed, err := RunShard(context.Background(), SingleFactory(&vecModel{nOut: 3}), dists,
		PseudoRandom{D: 2, Seed: 5}, plan, 1, opt)
	if err != nil {
		t.Fatal(err)
	}
	refJSON, _ := json.Marshal(ref)
	gotJSON, _ := json.Marshal(resumed)
	if string(refJSON) != string(gotJSON) {
		t.Errorf("resumed shard differs from uninterrupted run:\n%s\nvs\n%s", gotJSON, refJSON)
	}
}

// TestShardCheckpointRejectsStaleState reuses PR 3's fingerprint/tag guard
// per shard: a checkpoint from a different sample stream, model tag or
// shard plan must be rejected, never silently absorbed.
func TestShardCheckpointRejectsStaleState(t *testing.T) {
	dists := normDists(2)
	plan, err := PlanShards(64, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(t.TempDir(), "c.ckpt")
	opt := ShardOptions{Workers: 1, Tag: "model-a", CheckpointPath: base, CheckpointEvery: 4, Resume: true}
	if _, err := RunShard(context.Background(), SingleFactory(&vecModel{nOut: 2}), dists,
		PseudoRandom{D: 2, Seed: 1}, plan, 0, opt); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		sampler Sampler
		opt     ShardOptions
		plan    *ShardPlan
		want    string
	}{
		{"changed seed", PseudoRandom{D: 2, Seed: 2}, opt, plan, "different"},
		{"changed tag", PseudoRandom{D: 2, Seed: 1},
			ShardOptions{Workers: 1, Tag: "model-b", CheckpointPath: base, Resume: true}, plan, "tag"},
		{"changed plan", PseudoRandom{D: 2, Seed: 1}, opt,
			&ShardPlan{MaxSamples: 64, BlockSize: 16, NumShards: 2}, "shard plan changed"},
		{"changed threshold", PseudoRandom{D: 2, Seed: 1},
			ShardOptions{Workers: 1, Tag: "model-a", Threshold: 9, CheckpointPath: base, Resume: true}, plan, "threshold"},
	}
	for _, tc := range cases {
		_, err := RunShard(context.Background(), SingleFactory(&vecModel{nOut: 2}), dists, tc.sampler, tc.plan, 0, tc.opt)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want error containing %q, got %v", tc.name, tc.want, err)
		}
	}

	// Resume off: the stale file is ignored and overwritten, not an error.
	fresh := ShardOptions{Workers: 1, Tag: "model-b", CheckpointPath: base, Resume: false}
	if _, err := RunShard(context.Background(), SingleFactory(&vecModel{nOut: 2}), dists,
		PseudoRandom{D: 2, Seed: 9}, plan, 0, fresh); err != nil {
		t.Errorf("Resume=false should ignore the stale checkpoint: %v", err)
	}
}

func TestMergeShardsValidation(t *testing.T) {
	dists := normDists(2)
	plan, err := PlanShards(96, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*ShardResult, plan.NumShards)
	for k := range results {
		r, err := RunShard(context.Background(), SingleFactory(&vecModel{nOut: 2}), dists,
			PseudoRandom{D: 2, Seed: 7}, plan, k, ShardOptions{Workers: 2, Tag: "v"})
		if err != nil {
			t.Fatal(err)
		}
		results[k] = r
	}
	if _, err := MergeShards(plan, results); err != nil {
		t.Fatalf("valid merge rejected: %v", err)
	}

	t.Run("missing shard", func(t *testing.T) {
		if _, err := MergeShards(plan, results[:2]); err == nil {
			t.Error("short result list accepted")
		}
	})
	t.Run("duplicate shard", func(t *testing.T) {
		dup := []*ShardResult{results[0], results[1], results[1]}
		if _, err := MergeShards(plan, dup); err == nil {
			t.Error("duplicate shard accepted")
		}
	})
	t.Run("incomplete shard", func(t *testing.T) {
		cp := *results[2]
		cp.Evaluated--
		if _, err := MergeShards(plan, []*ShardResult{results[0], results[1], &cp}); err == nil {
			t.Error("incomplete shard accepted")
		}
	})
	t.Run("mixed tag", func(t *testing.T) {
		cp := *results[1]
		cp.Tag = "other-model"
		if _, err := MergeShards(plan, []*ShardResult{results[0], &cp, results[2]}); err == nil {
			t.Error("mixed-tag merge accepted")
		}
	})
	t.Run("mixed stream", func(t *testing.T) {
		cp := *results[1]
		cp.SamplerFP++
		if _, err := MergeShards(plan, []*ShardResult{results[0], &cp, results[2]}); err == nil {
			t.Error("mixed-fingerprint merge accepted")
		}
	})
	t.Run("wrong geometry", func(t *testing.T) {
		cp := *results[1]
		cp.Start += plan.BlockSize
		if _, err := MergeShards(plan, []*ShardResult{results[0], &cp, results[2]}); err == nil {
			t.Error("range-mismatched shard accepted")
		}
	})
}

func TestShardResultJSONRoundTripPreservesMerge(t *testing.T) {
	// The fleet posts shard results over HTTP; (de)serialization must not
	// perturb the merged bits.
	dists := normDists(2)
	plan, err := PlanShards(128, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*ShardResult, 2)
	for k := range results {
		r, err := RunShard(context.Background(), SingleFactory(&vecModel{nOut: 3}), dists,
			PseudoRandom{D: 2, Seed: 21}, plan, k, ShardOptions{Workers: 2, Threshold: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		results[k] = r
	}
	direct, err := MergeShards(plan, results)
	if err != nil {
		t.Fatal(err)
	}
	wire := make([]*ShardResult, 2)
	for k, r := range results {
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		var rt ShardResult
		if err := json.Unmarshal(data, &rt); err != nil {
			t.Fatal(err)
		}
		wire[k] = &rt
	}
	viaWire, err := MergeShards(plan, wire)
	if err != nil {
		t.Fatal(err)
	}
	if statsJSON(t, direct) != statsJSON(t, viaWire) {
		t.Error("JSON round trip of shard results perturbed the merged state")
	}
}
