package scenario

import (
	"context"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestStreamingScenarioMatchesStored runs the same Monte Carlo scenario
// with and without the streaming flag and verifies the hottest-wire
// summaries agree bit-for-bit, while the streaming result carries the
// extra campaign accounting.
func TestStreamingScenarioMatchesStored(t *testing.T) {
	if testing.Short() {
		t.Skip("runs coupled-field ensembles")
	}
	uqStored := UQSpec{Method: MethodMonteCarlo, Samples: 4, Seed: 7}
	uqStream := UQSpec{Method: MethodMonteCarlo, Samples: 4, Seed: 7, Stream: true}
	b := &Batch{
		Name: "stream-equiv",
		Scenarios: []Scenario{
			{Name: "stored", Chip: ChipSpec{HMaxM: testHMax}, Sim: fastSim, UQ: uqStored},
			{Name: "streamed", Chip: ChipSpec{HMaxM: testHMax}, Sim: fastSim, UQ: uqStream},
		},
	}
	res, err := NewEngine().Run(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedCount != 0 {
		t.Fatalf("scenarios failed: %+v", res.Failed())
	}
	stored, streamed := res.Scenarios[0], res.Scenarios[1]
	if stored.Streamed || !streamed.Streamed {
		t.Fatalf("streamed flags wrong: %v / %v", stored.Streamed, streamed.Streamed)
	}
	if streamed.StopReason != "budget" || streamed.RequestedSamples != 4 {
		t.Errorf("campaign accounting: reason %q budget %d", streamed.StopReason, streamed.RequestedSamples)
	}
	if streamed.FailProbEmp == nil {
		t.Error("streaming scenario missing the empirical failure probability")
	}
	if streamed.TObsMaxK <= 300 {
		t.Errorf("observed maximum %g K implausible", streamed.TObsMaxK)
	}
	if stored.TEndMaxK != streamed.TEndMaxK || stored.SigmaK != streamed.SigmaK {
		t.Errorf("streaming summary differs: T_end %g vs %g, σ %g vs %g",
			streamed.TEndMaxK, stored.TEndMaxK, streamed.SigmaK, stored.SigmaK)
	}
	for i := range stored.HotMeanK {
		if stored.HotMeanK[i] != streamed.HotMeanK[i] || stored.HotSigmaK[i] != streamed.HotSigmaK[i] {
			t.Fatalf("hot series diverges at %d", i)
		}
	}
}

// TestStreamingScenarioCheckpointResume interrupts a scenario campaign via
// its sample budget and verifies a second run with the same checkpoint file
// resumes instead of recomputing.
func TestStreamingScenarioCheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs coupled-field ensembles")
	}
	ckpt := filepath.Join(t.TempDir(), "mc.ckpt")
	mk := func(samples int) *Batch {
		return &Batch{Scenarios: []Scenario{{
			Name: "mc", Chip: ChipSpec{HMaxM: testHMax}, Sim: fastSim,
			UQ: UQSpec{Method: MethodMonteCarlo, Samples: samples, Seed: 7,
				Checkpoint: ckpt, CheckpointEvery: 1},
		}}}
	}
	eng := NewEngine()
	full, err := eng.Run(context.Background(), &Batch{Scenarios: []Scenario{{
		Name: "mc", Chip: ChipSpec{HMaxM: testHMax}, Sim: fastSim,
		UQ: UQSpec{Method: MethodMonteCarlo, Samples: 4, Seed: 7, Stream: true},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background(), mk(2)); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	res, err := eng.Run(context.Background(), mk(4))
	if err != nil {
		t.Fatal(err)
	}
	resumedIn := time.Since(t0)
	r, f := res.Scenarios[0], full.Scenarios[0]
	if !r.OK || r.Samples != 4 {
		t.Fatalf("resumed scenario: %+v", r)
	}
	for i := range f.HotMeanK {
		if r.HotMeanK[i] != f.HotMeanK[i] || r.HotSigmaK[i] != f.HotSigmaK[i] {
			t.Fatalf("resumed series differs from uninterrupted at %d", i)
		}
	}
	// The resumed run only evaluated the remaining two samples; it must be
	// visibly cheaper than the 4-sample run (warm cache on both sides).
	if r.ElapsedS > f.ElapsedS && resumedIn > 2*time.Duration(f.ElapsedS*float64(time.Second)) {
		t.Errorf("resume recomputed from scratch: %.2fs vs full %.2fs", r.ElapsedS, f.ElapsedS)
	}
}

// TestStreamingScenarioRejectsStaleCheckpoint pins the checkpoint tag: a
// checkpoint written under one chip configuration must not be absorbed by
// a scenario with different physics.
func TestStreamingScenarioRejectsStaleCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("runs coupled-field ensembles")
	}
	ckpt := filepath.Join(t.TempDir(), "stale.ckpt")
	mk := func(driveScale float64) *Batch {
		return &Batch{Scenarios: []Scenario{{
			Name: "mc", Chip: ChipSpec{HMaxM: testHMax, DriveScale: driveScale}, Sim: fastSim,
			UQ: UQSpec{Method: MethodMonteCarlo, Samples: 2, Seed: 7,
				Checkpoint: ckpt, CheckpointEvery: 1},
		}}}
	}
	eng := NewEngine()
	if res, err := eng.Run(context.Background(), mk(1)); err != nil || res.FailedCount != 0 {
		t.Fatalf("seeding run failed: %v %+v", err, res)
	}
	res, err := eng.Run(context.Background(), mk(0.75))
	if err != nil {
		t.Fatal(err)
	}
	s := res.Scenarios[0]
	if s.OK {
		t.Fatal("scenario absorbed a checkpoint from a different chip configuration")
	}
	if !strings.Contains(s.Error, "tag") {
		t.Errorf("unexpected failure mode: %s", s.Error)
	}
}

// TestStreamingScenarioCancellation verifies a canceled context aborts a
// streaming campaign mid-ensemble, not just between scenarios.
func TestStreamingScenarioCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs coupled-field ensembles")
	}
	ctx, cancel := context.WithCancel(context.Background())
	eng := NewEngine()
	eng.OnEvent = func(ev Event) {
		if ev.Phase == PhaseSample && ev.Done == 2 {
			cancel()
		}
	}
	b := &Batch{Scenarios: []Scenario{{
		Name: "mc", Chip: ChipSpec{HMaxM: testHMax}, Sim: fastSim,
		UQ: UQSpec{Method: MethodMonteCarlo, Samples: 500, Seed: 7, Stream: true},
	}}}
	start := time.Now()
	res, err := eng.Run(ctx, b)
	if err == nil && res.FailedCount == 0 {
		t.Fatal("cancellation neither failed the batch nor the scenario")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Minute {
		t.Errorf("cancellation took %v — campaign did not abort mid-ensemble", elapsed)
	}
}
