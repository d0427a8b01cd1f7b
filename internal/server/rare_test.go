package server

import (
	"context"
	"testing"
	"time"

	"etherm/api"
)

// TestRareJobOverServerAPI drives a failure_probability campaign end to
// end through the HTTP API using only the SDK: submit the rare scenario,
// follow its per-level SSE progress (the "level" event type), and read the
// failure-probability estimate with its level telemetry off the finished
// job. The threshold sits below the operating temperature so the subset
// run converges in its first level — the statistical depth of the
// estimator is covered by internal/rare and internal/scenario; this test
// pins the serving contract.
func TestRareJobOverServerAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("runs coupled-field simulations")
	}
	_, cl := newTestServer(t, mustNew(t, Config{MaxConcurrent: 1}))
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	batch := &api.Batch{
		Name: "rare-sse",
		Scenarios: []api.Scenario{{
			Name: "rare",
			Chip: api.ChipSpec{HMaxM: 0.8e-3, ActivePairs: []int{0}},
			Sim:  tinySim(),
			UQ: api.UQSpec{
				Mode:         api.ModeFailureProbability,
				LevelSamples: 20,
				Seed:         3,
				CriticalK:    305, // barely above ambient: P ≈ 1, one level
			},
		}},
	}
	job := submitBatch(t, cl, batch)

	events, errc := cl.WatchJob(ctx, job.ID)
	var levelEvents []api.JobEvent
	for ev := range events {
		if ev.Type == api.EventLevel {
			levelEvents = append(levelEvents, ev)
		}
	}
	if err := <-errc; err != nil {
		t.Fatalf("watch: %v", err)
	}
	if len(levelEvents) == 0 {
		t.Fatal("observed no level events")
	}
	for _, ev := range levelEvents {
		if ev.Scenario != "rare" || ev.Done < 1 || ev.Total < ev.Done {
			t.Errorf("level event incomplete: %+v", ev)
		}
		if ev.Level == nil {
			t.Fatalf("level event has no telemetry payload: %+v", ev)
		}
		if ev.Level.ThresholdK <= 0 || ev.Level.Evals <= 0 {
			t.Errorf("level telemetry implausible: %+v", *ev.Level)
		}
	}

	final, err := cl.GetJob(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != api.JobDone || final.Result == nil {
		t.Fatalf("job not done: %s (%s)", final.Status, final.Error)
	}
	s := final.Result.Scenarios[0]
	if !s.OK {
		t.Fatalf("rare scenario failed: %s", s.Error)
	}
	if s.Method != api.ModeFailureProbability || s.RareEstimator != api.EstimatorSubset {
		t.Errorf("method %q estimator %q", s.Method, s.RareEstimator)
	}
	if s.PFail == nil {
		t.Fatal("rare result has no p_fail")
	}
	if *s.PFail <= 0 || *s.PFail > 1 {
		t.Fatalf("p_fail %g outside (0, 1]", *s.PFail)
	}
	if len(s.RareLevels) != len(levelEvents) {
		t.Errorf("%d levels in the result, %d level events on the stream", len(s.RareLevels), len(levelEvents))
	}
	if !s.RareConverged {
		t.Errorf("subset run below the operating temperature did not converge")
	}
}

// TestRareSubmitValidation checks that a malformed rare spec is rejected
// at submission with a structured 4xx, not accepted and failed later.
func TestRareSubmitValidation(t *testing.T) {
	_, cl := newTestServer(t, mustNew(t, Config{MaxConcurrent: 1}))
	ctx := context.Background()
	b := &api.Batch{Scenarios: []api.Scenario{{
		Name: "bad",
		Sim:  tinySim(),
		UQ: api.UQSpec{
			Mode:   api.ModeFailureProbability,
			Method: api.MethodMonteCarlo, // excluded in rare mode
		},
	}}}
	if _, err := cl.SubmitBatch(ctx, b); err == nil {
		t.Fatal("rare spec with a sampling method accepted")
	}
}
