package uq

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
)

// failingModel fails on selected sample values to exercise the failure
// accounting of the campaign fold.
type failingModel struct{ failAbove float64 }

func (m *failingModel) Dim() int        { return 1 }
func (m *failingModel) NumOutputs() int { return 1 }
func (m *failingModel) Eval(p, out []float64) error {
	if p[0] > m.failAbove {
		return errors.New("synthetic divergence")
	}
	out[0] = p[0]
	return nil
}

func TestEnsemblePartialFailures(t *testing.T) {
	camp := runCampaign(t, &failingModel{failAbove: 0.5}, []Dist{unitLaw{}}, PseudoRandom{D: 1, Seed: 3}, 200, 0)
	if camp.Failures == 0 || camp.Failures == 200 {
		t.Fatalf("failures = %d, expected a partial count", camp.Failures)
	}
	if camp.Evaluated != 200 || camp.Stats.Moments.N != camp.Succeeded() {
		t.Error("accounting broken")
	}
	// Statistics exclude failed samples: all folded outputs ≤ 0.5.
	if hi := camp.Stats.Ext.Max[0]; hi > 0.5 {
		t.Fatalf("failed sample leaked into statistics: max %g", hi)
	}
}

// TestEnsembleAllFailures: a shard whose every evaluation failed is an
// error, as a campaign's is (TestCampaignAllFailuresErrors). The count
// starts at the shard's first index, so a later shard fails on its own.
func TestEnsembleAllFailures(t *testing.T) {
	plan, err := PlanShards(16, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunShard(context.Background(), SingleFactory(&failingModel{failAbove: -1}), []Dist{unitLaw{}},
		PseudoRandom{D: 1, Seed: 3}, plan, 1, ShardOptions{Workers: 1})
	if err == nil || !strings.Contains(err.Error(), "every shard 1 evaluation failed") {
		t.Errorf("fully failed shard: got %v, want an every-evaluation-failed error", err)
	}
}

func TestEnsembleDimensionChecks(t *testing.T) {
	run := func(model Model, dists []Dist, d, m int) error {
		_, err := RunCampaign(context.Background(), SingleFactory(model), dists,
			PseudoRandom{D: d, Seed: 3}, CampaignOptions{MaxSamples: m})
		return err
	}
	dists := []Dist{unitLaw{}, unitLaw{}}
	if run(&failingModel{}, dists, 2, 4) == nil {
		t.Error("model/dists dimension mismatch accepted")
	}
	if run(&failingModel{failAbove: 2}, dists[:1], 2, 4) == nil {
		t.Error("sampler/dists dimension mismatch accepted")
	}
	if run(&failingModel{failAbove: 2}, dists[:1], 1, 0) == nil {
		t.Error("zero samples accepted")
	}
}

func TestMeanStdAllMatchScalarAccessors(t *testing.T) {
	camp := runCampaign(t, &failingModel{failAbove: math.Inf(1)}, []Dist{Normal{2, 0.5}}, PseudoRandom{D: 1, Seed: 9}, 300, 0)
	means, stds := camp.MeanAll(), camp.StdAll()
	if means[0] != camp.Stats.Moments.Mean[0] {
		t.Error("MeanAll disagrees with the running mean")
	}
	if stds[0] != math.Sqrt(camp.Stats.Moments.Variance(0)) {
		t.Error("StdAll disagrees with the running variance")
	}
}

func TestHaltonShiftDeterministicAndDifferent(t *testing.T) {
	a, err := NewHalton(4, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewHalton(4, 42)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewHalton(4, 43)
	if err != nil {
		t.Fatal(err)
	}
	pa := make([]float64, 4)
	pb := make([]float64, 4)
	pc := make([]float64, 4)
	a.Sample(10, pa)
	b.Sample(10, pb)
	c.Sample(10, pc)
	for j := range pa {
		if pa[j] != pb[j] {
			t.Fatal("same seed produced different shifts")
		}
	}
	same := true
	for j := range pa {
		if pa[j] != pc[j] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical shifts")
	}
}

func TestSobolRejectsTooManyDims(t *testing.T) {
	if _, err := NewSobol(MaxSobolDim() + 1); err == nil {
		t.Error("over-dimension Sobol accepted")
	}
	if _, err := NewHalton(len(primes)+1, 0); err == nil {
		t.Error("over-dimension Halton accepted")
	}
	if _, err := NewLatinHypercube(0, 5, 1); err == nil {
		t.Error("zero-dimension LHS accepted")
	}
}

func TestPCEInsufficientSamplesRejected(t *testing.T) {
	dists := []Dist{Normal{0, 1}, Normal{0, 1}}
	params := [][]float64{{0, 0}, {1, 1}}
	outputs := [][]float64{{1}, {2}}
	if _, err := FitPCE(dists, params, outputs, 3); err == nil {
		t.Error("under-determined PCE accepted")
	}
}
