package server

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"etherm/api"
	"etherm/internal/scenario"
)

// TestBatchJobDelegatesShardsToFleet covers the batch-to-fleet delegation
// behind Config.FleetBatches (etserver -fleet-batches): the engine hands
// a batch job's sharded scenario to the coordinator (Engine.Sharder →
// Coordinator.RunSharded), an in-process worker runs its shards over
// HTTP, and the job's result equals a direct Engine.Run of the same
// batch. The delegated campaign is visible as a fleet job.
func TestBatchJobDelegatesShardsToFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("runs coupled-field ensembles")
	}
	srv, err := New(Config{FleetBatches: true, LeaseTTL: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	_, cl := newTestServer(t, srv)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	batch := &api.Batch{
		Name: "fleet-delegation",
		Scenarios: []api.Scenario{{
			Name: "mc-delegated",
			Chip: api.ChipSpec{HMaxM: 0.8e-3},
			Sim:  api.SimSpec{EndTimeS: 10, NumSteps: 4, Coupling: "weak", Nonlinear: "newton"},
			UQ: api.UQSpec{
				Method: api.MethodMonteCarlo, Samples: 4, Seed: 5,
				Shards: 2, ShardBlock: 2,
			},
		}},
	}
	startWorker(t, ctx, cl)
	job := submitBatch(t, cl, batch)
	done, err := cl.WaitJob(ctx, job.ID)
	if err != nil {
		t.Fatalf("wait %s: %v", job.ID, err)
	}
	if done.Status != api.JobDone || done.Result == nil {
		t.Fatalf("delegating job finished as %s (%s)", done.Status, done.Error)
	}

	want, err := scenario.NewEngine().Run(ctx, (*scenario.Batch)(batch))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := canonicalBatch(t, done.Result), canonicalBatch(t, want); got != want {
		t.Errorf("delegated batch result differs from a direct run:\n%s\nvs\n%s", got, want)
	}

	jobs, err := cl.ListFleetJobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].Scenario.Name != "mc-delegated" || jobs[0].Status != api.JobDone {
		t.Fatalf("fleet jobs after delegation: %+v", jobs)
	}
	if fj := jobs[0]; fj.ShardsDone != 2 || len(fj.Shards) != 2 {
		t.Errorf("delegated fleet job shards: %d of %d done", fj.ShardsDone, len(fj.Shards))
	}
}

// canonicalBatch renders a batch result without its wall-clock timings
// and per-scenario cache_hit flags.
func canonicalBatch(t *testing.T, r *api.BatchResult) string {
	t.Helper()
	cp := *r
	cp.ElapsedS = 0
	cp.Scenarios = nil
	for _, s := range r.Scenarios {
		sc := *s
		sc.ElapsedS = 0
		sc.CacheHit = false
		cp.Scenarios = append(cp.Scenarios, &sc)
	}
	data, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
