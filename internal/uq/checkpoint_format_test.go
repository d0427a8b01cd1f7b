package uq

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// Checkpoint files outlive the build that wrote them, so their JSON
// layout is a contract: a renamed tag would strand every interrupted
// campaign on disk. The two literals below were written by an earlier
// build for a 1-output model that fails above 0.8 (Monte Carlo seed 4
// over the identity law on (0,1), threshold 0.5): a single-fold campaign checkpoint
// after 8 samples with the median sketched, and shard 0 of a 24-sample,
// 2-shard plan in blocks of 4, canceled mid-block at sample 7. Each must
// load, write back byte for byte, and resume to the state of an
// uninterrupted run.
const (
	goldenCampaignCheckpoint = `{"version":1,"sampler":"monte-carlo","dim":1,"num_outputs":1,"sampler_fp":10750216241808156611,"tag":"golden","next":8,"failures":1,"stats":{"moments":{"n":7,"mean":[0.5478984312716517],"m2":[0.2354132147037857]},"extrema":{"n":7,"min":[0.19954763161648637],"max":[0.7873520003165505]},"threshold":0.5,"exceed_out":[5],"exceed_any":{"n":7,"count":5},"probs":[0.5],"sketch":[[{"p":0.5,"n":7,"q":[0.19954763161648637,0.5258162183816308,0.5928218874301694,0.6874167333086437,0.7873520003165505],"pos":[1,3,4,6,7],"des":[1,2.5,4,5.5,7]}]]}}`
	goldenShardCheckpoint    = `{"version":1,"sampler":"monte-carlo","sampler_fp":10750216241808156611,"tag":"golden","shard":0,"start":0,"end":12,"block_size":4,"num_outputs":1,"threshold":0.5,"next":7,"failures":1,"blocks":[{"moments":{"n":4,"mean":[0.6618184194364997],"m2":[0.03513945992480893]},"extrema":{"n":4,"min":[0.5258162183816308],"max":[0.7873520003165505]},"threshold":0.5,"exceed_out":[4],"exceed_any":{"n":4,"count":4}},{"moments":{"n":2,"mean":[0.39843519828078716],"m2":[0.07911252834729339]},"extrema":{"n":2,"min":[0.19954763161648637],"max":[0.597322764945088]},"threshold":0.5,"exceed_out":[1],"exceed_any":{"n":2,"count":1}}]}`
)

func goldenFactory() ModelFactory { return SingleFactory(&failingModel{failAbove: 0.8}) }

func goldenDists() []Dist { return []Dist{unitLaw{}} }

// remarshal checks that a loaded checkpoint writes back as the literal.
func remarshal(t *testing.T, v any, literal string) {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != literal {
		t.Errorf("checkpoint layout changed:\n%s\nwant\n%s", data, literal)
	}
}

func TestCampaignCheckpointFormatResumes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	if err := os.WriteFile(path, []byte(goldenCampaignCheckpoint), 0o644); err != nil {
		t.Fatal(err)
	}
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	remarshal(t, cp, goldenCampaignCheckpoint)

	opt := CampaignOptions{MaxSamples: 20, Workers: 1, Threshold: 0.5, Quantiles: []float64{0.5}, Tag: "golden"}
	s := PseudoRandom{D: 1, Seed: 4}
	whole, err := RunCampaign(context.Background(), goldenFactory(), goldenDists(), s, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Resume = cp
	resumed, err := RunCampaign(context.Background(), goldenFactory(), goldenDists(), s, opt)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Evaluated != whole.Evaluated || resumed.Failures != whole.Failures {
		t.Errorf("resumed accounting %d evaluated, %d failed; uninterrupted %d, %d",
			resumed.Evaluated, resumed.Failures, whole.Evaluated, whole.Failures)
	}
	if got, want := statsJSON(t, resumed), statsJSON(t, whole); got != want {
		t.Errorf("resumed stats differ from the uninterrupted run:\n%s\nvs\n%s", got, want)
	}
}

func TestShardCheckpointFormatResumes(t *testing.T) {
	plan, err := PlanShards(24, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(t.TempDir(), "campaign.ckpt")
	path := ShardCheckpointPath(base, 0)
	if err := os.WriteFile(path, []byte(goldenShardCheckpoint), 0o644); err != nil {
		t.Fatal(err)
	}
	cp, err := LoadShardCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	remarshal(t, cp, goldenShardCheckpoint)

	opt := ShardOptions{Workers: 1, Threshold: 0.5, Tag: "golden"}
	s := PseudoRandom{D: 1, Seed: 4}
	whole, err := RunShard(context.Background(), goldenFactory(), goldenDists(), s, plan, 0, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.CheckpointPath, opt.Resume = base, true
	resumed, err := RunShard(context.Background(), goldenFactory(), goldenDists(), s, plan, 0, opt)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(whole)
	gotJSON, _ := json.Marshal(resumed)
	if string(gotJSON) != string(wantJSON) {
		t.Errorf("resumed shard differs from the uninterrupted run:\n%s\nvs\n%s", gotJSON, wantJSON)
	}
}
