package study

import (
	"context"
	"math"
	"path/filepath"
	"testing"

	"etherm/internal/core"
	"etherm/internal/degrade"
	"etherm/internal/uq"
)

// TestStreamingMatchesStoredOnChipModel is the acceptance gate for the
// streaming campaign on the paper's chip model: the study's Fig. 7
// statistics are bit-identical at 1, 2 and 8 workers (the fold runs the
// Welford recurrence in sample order), and every run accounts for every
// sample and tracks the empirical failure probability.
func TestStreamingMatchesStoredOnChipModel(t *testing.T) {
	if testing.Short() {
		t.Skip("coupled-field ensemble is seconds-scale")
	}
	const m, seed = 4, 11
	var ref *Fig7
	for _, workers := range []int{1, 2, 8} {
		f7, _, camp, err := RunPaperStudy(coarse(), fastOpt(), m, seed, workers, DefaultRho)
		if err != nil {
			t.Fatal(err)
		}
		if camp.StopReason != uq.StopBudget || camp.Succeeded() != m {
			t.Fatalf("workers=%d: campaign accounting %+v", workers, camp)
		}
		// The streaming path adds the empirical failure probability; at the
		// calibrated operating point no wire reaches T_crit.
		if math.IsNaN(f7.FailProbEmp) {
			t.Error("streaming study did not track the empirical failure probability")
		}
		if ref == nil {
			ref = f7
			fromMoments, err := BuildFig7FromMoments(f7.Times, camp.MeanAll(), camp.StdAll(), 12,
				degrade.DefaultCriticalTemp, camp.Succeeded())
			if err != nil {
				t.Fatal(err)
			}
			if !math.IsNaN(fromMoments.FailProbEmp) {
				t.Error("moment-based study unexpectedly reports an empirical failure probability")
			}
			continue
		}
		if f7.HotWire != ref.HotWire {
			t.Fatalf("workers=%d: hottest wire %d vs %d on 1 worker", workers, f7.HotWire, ref.HotWire)
		}
		hotRef, hot := ref.HotSeries(), f7.HotSeries()
		for ti := range hot {
			if hot[ti] != hotRef[ti] {
				t.Errorf("workers=%d t=%d: mean %g vs %g on 1 worker", workers, ti, hot[ti], hotRef[ti])
			}
			if f7.SigmaHot[ti] != ref.SigmaHot[ti] {
				t.Errorf("workers=%d t=%d: σ %g vs %g on 1 worker", workers, ti, f7.SigmaHot[ti], ref.SigmaHot[ti])
			}
		}
		if last := len(f7.Times) - 1; f7.EMax[last] != ref.EMax[last] {
			t.Errorf("workers=%d: E_max %g vs %g on 1 worker", workers, f7.EMax[last], ref.EMax[last])
		}
	}
}

// TestStreamingStudyCheckpointResume interrupts a chip-model campaign at a
// checkpoint and verifies the resumed run reproduces the uninterrupted one
// bit-for-bit.
func TestStreamingStudyCheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("coupled-field ensemble is seconds-scale")
	}
	lay, err := coarse().Build()
	if err != nil {
		t.Fatal(err)
	}
	newSim := func() *core.Simulator {
		sim, err := core.NewSimulator(lay.Problem, fastOpt())
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}
	const m, seed = 4, 5
	sampler := func() uq.Sampler {
		return uq.PseudoRandom{D: GermDim(12, DefaultRho), Seed: seed}
	}
	run := func(o uq.CampaignOptions) (*Fig7, *uq.CampaignResult) {
		t.Helper()
		sim := newSim()
		o.Workers, o.Threshold = 2, degrade.DefaultCriticalTemp
		camp, err := uq.RunCampaign(context.Background(), ParamFactory(sim, Params{Rho: DefaultRho}),
			GermDists(12, DefaultRho), sampler(), o)
		if err != nil {
			t.Fatal(err)
		}
		f7, err := BuildFig7FromCampaign(Times(sim.Options()), camp, 12, degrade.DefaultCriticalTemp)
		if err != nil {
			t.Fatal(err)
		}
		return f7, camp
	}
	whole, _ := run(uq.CampaignOptions{MaxSamples: m})

	path := filepath.Join(t.TempDir(), "study.ckpt")
	// Phase 1: half the budget, checkpointing every sample.
	run(uq.CampaignOptions{MaxSamples: m / 2, CheckpointPath: path, CheckpointEvery: 1})
	// Phase 2: resume to the full budget.
	cp, err := uq.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	resumed, camp := run(uq.CampaignOptions{MaxSamples: m, CheckpointPath: path, Resume: cp})
	if camp.Evaluated != m {
		t.Fatalf("resumed campaign evaluated %d, want %d", camp.Evaluated, m)
	}
	hotW, hotR := whole.HotSeries(), resumed.HotSeries()
	for ti := range hotW {
		if hotR[ti] != hotW[ti] || resumed.SigmaHot[ti] != whole.SigmaHot[ti] {
			t.Fatalf("t=%d: resumed run differs from uninterrupted (mean %g vs %g, σ %g vs %g)",
				ti, hotR[ti], hotW[ti], resumed.SigmaHot[ti], whole.SigmaHot[ti])
		}
	}
}

func TestBuildFig7FromCampaignValidation(t *testing.T) {
	c := &uq.CampaignResult{NumOutputs: 5}
	if _, err := BuildFig7FromCampaign([]float64{0, 1}, c, 12, degrade.DefaultCriticalTemp); err == nil {
		t.Error("mismatched campaign accepted")
	}
}
