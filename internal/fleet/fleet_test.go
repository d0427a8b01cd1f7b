package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"etherm/api"
	"etherm/client"
	"etherm/internal/scenario"
	"etherm/internal/uq"
)

// chipScenario is the cheap chip-model Monte Carlo scenario shared by the
// fleet tests (coarse mesh, short horizon — same fixture family as the
// scenario engine tests).
func chipScenario(shards int) scenario.Scenario {
	return scenario.Scenario{
		Name: "mc-fleet",
		Chip: scenario.ChipSpec{HMaxM: 0.8e-3},
		Sim:  api.SimSpec{EndTimeS: 10, NumSteps: 4, Coupling: "weak", Nonlinear: "newton"},
		UQ: scenario.UQSpec{
			Method: scenario.MethodMonteCarlo, Samples: 6, Seed: 7,
			Shards: shards, ShardBlock: 2,
		},
	}
}

// localReference runs the scenario through the engine's local sharded path
// and canonicalizes the result for comparison.
func localReference(t *testing.T, s scenario.Scenario) string {
	t.Helper()
	eng := scenario.NewEngine()
	res, err := eng.Run(context.Background(), &scenario.Batch{Scenarios: []scenario.Scenario{s}})
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedCount != 0 {
		t.Fatalf("local reference failed: %+v", res.Failed())
	}
	return canonical(t, res.Scenarios[0])
}

// canonical strips the nondeterministic and context-dependent fields of a
// scenario result and renders it as JSON.
func canonical(t *testing.T, r *scenario.ScenarioResult) string {
	t.Helper()
	cp := *r
	cp.ElapsedS = 0
	cp.Index = 0
	cp.CacheHit = false
	data, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestFleetEndToEndOverHTTP is the acceptance test of the fleet layer: a
// coordinator served over httptest with two concurrent etworker pull loops
// produces a result bit-identical to the single-process campaign.
func TestFleetEndToEndOverHTTP(t *testing.T) {
	if testing.Short() {
		t.Skip("runs coupled-field ensembles")
	}
	s := chipScenario(4)
	want := localReference(t, s)

	coord := NewCoordinator(nil, 5*time.Second)
	mux := http.NewServeMux()
	coord.Register(mux, api.FleetPrefix)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	cl := client.New(srv.URL)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 2; i++ {
		w := &Worker{
			Client:        cl,
			ID:            "test-worker",
			SampleWorkers: 2,
			Poll:          20 * time.Millisecond,
		}
		go func() { _ = w.Run(ctx) }()
	}

	// Submit over the wire through the SDK, exactly as a client would.
	view, err := cl.SubmitFleetJob(ctx, &s)
	if err != nil {
		t.Fatal(err)
	}
	if len(view.Shards) != 3 {
		// 6 samples in blocks of 2 = 3 blocks; 4 requested shards leave one
		// empty, which the plan clamps — the view must still list a row per
		// plan shard.
		t.Logf("shard views: %+v", view.Shards)
	}

	waitCtx, waitCancel := context.WithTimeout(ctx, 2*time.Minute)
	defer waitCancel()
	final, err := coord.Wait(waitCtx, view.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != JobDone {
		t.Fatalf("fleet job %s: %s", final.Status, final.Error)
	}
	if final.ShardsDone != len(final.Shards) {
		t.Errorf("shards done %d of %d", final.ShardsDone, len(final.Shards))
	}
	if got := canonical(t, final.Result); got != want {
		t.Errorf("fleet result differs from single-process run:\n%s\nvs\n%s", got, want)
	}

	// Shard progress is readable over the wire too, and the wire result —
	// decoded from its JSON — stays bit-identical.
	wire, err := cl.GetFleetJob(ctx, view.ID)
	if err != nil {
		t.Fatal(err)
	}
	if wire.Status != api.JobDone || wire.Result == nil {
		t.Fatalf("GET job view incomplete: %+v", wire.Status)
	}
	if got := canonical(t, wire.Result); got != want {
		t.Errorf("wire fleet result differs from single-process run:\n%s\nvs\n%s", got, want)
	}
}

// TestFleetWorkerDeathAndRelease kills a worker mid-shard (it leases and
// never reports back), advances the clock past the lease TTL, and verifies
// the shard is re-leased, the dead worker's late post is rejected, and the
// final result is identical to the single-process run.
func TestFleetWorkerDeathAndRelease(t *testing.T) {
	if testing.Short() {
		t.Skip("runs coupled-field ensembles")
	}
	s := chipScenario(2)
	want := localReference(t, s)

	now := time.Unix(1000, 0)
	coord := NewCoordinator(nil, 30*time.Second)
	coord.Now = func() time.Time { return now }

	view, err := coord.Submit(s)
	if err != nil {
		t.Fatal(err)
	}
	cache := scenario.NewCache()

	// Worker A leases shard 0, computes it… and dies before posting.
	a1, ok := coord.Lease("worker-a")
	if !ok || a1.Shard != 0 {
		t.Fatalf("lease 1: ok=%v %+v", ok, a1)
	}
	late, err := scenario.RunShard(context.Background(), cache, a1.Scenario, a1.Shard, 1)
	if err != nil {
		t.Fatal(err)
	}

	// No heartbeat for longer than the TTL: the shard must be re-leased.
	now = now.Add(31 * time.Second)
	if err := coord.Heartbeat(a1.LeaseID); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("dead worker's heartbeat: %v", err)
	}
	a2, ok := coord.Lease("worker-b")
	if !ok || a2.Shard != 0 {
		t.Fatalf("re-lease: ok=%v %+v", ok, a2)
	}

	// The dead worker comes back and posts under its stale lease: rejected,
	// so the shard cannot be merged twice.
	if err := coord.Complete(a1.LeaseID, late); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stale-lease post: %v", err)
	}

	// Worker B recomputes shard 0 (bit-identical by construction) and
	// finishes the job.
	r0, err := scenario.RunShard(context.Background(), cache, a2.Scenario, a2.Shard, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Complete(a2.LeaseID, r0); err != nil {
		t.Fatal(err)
	}
	a3, ok := coord.Lease("worker-b")
	if !ok || a3.Shard != 1 {
		t.Fatalf("lease shard 1: ok=%v %+v", ok, a3)
	}
	r1, err := scenario.RunShard(context.Background(), cache, a3.Scenario, a3.Shard, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Complete(a3.LeaseID, r1); err != nil {
		t.Fatal(err)
	}

	final, ok := coord.Job(view.ID)
	if !ok || final.Status != JobDone {
		t.Fatalf("job not done: %+v", final)
	}
	if final.Shards[0].Attempts != 2 {
		t.Errorf("shard 0 attempts = %d, want 2 (leased, died, re-leased)", final.Shards[0].Attempts)
	}
	if got := canonical(t, final.Result); got != want {
		t.Errorf("post-death fleet result differs from single-process run:\n%s\nvs\n%s", got, want)
	}
}

// TestCoordinatorValidation covers submission and merge guard rails.
func TestCoordinatorValidation(t *testing.T) {
	coord := NewCoordinator(nil, time.Second)
	if _, err := coord.Submit(scenario.Scenario{Name: "x"}); err == nil {
		t.Error("unsharded scenario accepted")
	}
	if _, ok := coord.Lease("w"); ok {
		t.Error("lease granted with no jobs")
	}
	if err := coord.Heartbeat("lease-000042"); !errors.Is(err, ErrLeaseLost) {
		t.Errorf("unknown lease heartbeat: %v", err)
	}
	if err := coord.Complete("lease-000042", &uq.ShardResult{}); !errors.Is(err, ErrLeaseLost) {
		t.Errorf("unknown lease complete: %v", err)
	}
	if _, ok := coord.Job("fleet-999999"); ok {
		t.Error("unknown job found")
	}
}

// TestCoordinatorRejectsWrongShardResult covers the result-shape guard: a
// live lease posting a result that does not describe its shard is a 422,
// not a merge hazard.
func TestCoordinatorRejectsWrongShardResult(t *testing.T) {
	coord := NewCoordinator(nil, time.Minute)
	if _, err := coord.Submit(chipScenario(2)); err != nil {
		t.Fatal(err)
	}
	a, ok := coord.Lease("w")
	if !ok {
		t.Fatal("no lease")
	}
	bad := &uq.ShardResult{Shard: a.Shard + 1}
	if err := coord.Complete(a.LeaseID, bad); err == nil || errors.Is(err, ErrLeaseLost) {
		t.Errorf("mismatched shard result: %v", err)
	}
	// The lease survives a bad post; an incomplete result is also rejected.
	start, end := (*uq.ShardPlan)(a.Plan).Shard(a.Shard)
	short := &uq.ShardResult{Shard: a.Shard, Start: start, End: end, Evaluated: end - start - 1}
	if err := coord.Complete(a.LeaseID, short); err == nil || errors.Is(err, ErrLeaseLost) {
		t.Errorf("incomplete shard result: %v", err)
	}
}

// TestCoordinatorFailsJobAfterExhaustedAttempts verifies liveness: a shard
// whose every lease dies (no Fail report, just silence) fails the job after
// MaxAttempts instead of re-leasing forever.
func TestCoordinatorFailsJobAfterExhaustedAttempts(t *testing.T) {
	now := time.Unix(0, 0)
	coord := NewCoordinator(nil, time.Second)
	coord.Now = func() time.Time { return now }
	coord.MaxAttempts = 2
	view, err := coord.Submit(chipScenario(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, ok := coord.Lease("doomed"); !ok {
			t.Fatalf("lease %d refused", i)
		}
		now = now.Add(2 * time.Second) // lease expires silently
	}
	if a, ok := coord.Lease("doomed"); ok {
		t.Fatalf("third lease granted: %+v", a)
	}
	j, _ := coord.Job(view.ID)
	if j.Status != JobFailed {
		t.Errorf("job status %s, want failed", j.Status)
	}
	// Wait must return immediately with the failure, not hang.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if got, err := coord.Wait(ctx, view.ID); err != nil || got.Status != JobFailed {
		t.Errorf("Wait on failed job: %+v, %v", got, err)
	}
}

// TestCoordinatorCancelAndEviction covers the client-side abort path and
// the terminal-job retention cap.
func TestCoordinatorCancelAndEviction(t *testing.T) {
	coord := NewCoordinator(nil, time.Minute)
	coord.MaxHistory = 2
	view, err := coord.Submit(chipScenario(2))
	if err != nil {
		t.Fatal(err)
	}
	a, ok := coord.Lease("w")
	if !ok {
		t.Fatal("no lease")
	}
	if err := coord.Cancel(view.ID); err != nil {
		t.Fatal(err)
	}
	j, _ := coord.Job(view.ID)
	if j.Status != JobCanceled {
		t.Errorf("status %s, want canceled", j.Status)
	}
	// The worker's lease is gone: heartbeat and post are rejected.
	if err := coord.Heartbeat(a.LeaseID); !errors.Is(err, ErrLeaseLost) {
		t.Errorf("heartbeat on canceled job: %v", err)
	}
	if err := coord.Cancel(view.ID); err == nil {
		t.Error("double cancel accepted")
	}
	// Wait returns immediately with the terminal state.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if got, err := coord.Wait(ctx, view.ID); err != nil || got.Status != JobCanceled {
		t.Errorf("Wait on canceled job: %+v, %v", got, err)
	}
	// No shard of a canceled job is ever leased again.
	if _, ok := coord.Lease("w"); ok {
		t.Error("lease granted from a canceled job")
	}

	// Terminal jobs beyond MaxHistory are evicted oldest-first; running
	// jobs survive.
	for i := 0; i < 3; i++ {
		v, err := coord.Submit(chipScenario(1))
		if err != nil {
			t.Fatal(err)
		}
		if err := coord.Cancel(v.ID); err != nil {
			t.Fatal(err)
		}
	}
	running, err := coord.Submit(chipScenario(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := coord.Job(view.ID); ok {
		t.Error("oldest terminal job not evicted")
	}
	if _, ok := coord.Job(running.ID); !ok {
		t.Error("running job evicted")
	}
	if n := len(coord.Jobs()); n > 3 {
		t.Errorf("history grew to %d jobs (cap 2 + running)", n)
	}
}

// TestCoordinatorFailsJobAfterReportedFailures covers the /fail path of
// the worker protocol: a shard a worker reports failed goes back to
// pending and is leased again, until DefaultMaxAttempts reports fail the
// job with the last reported error.
func TestCoordinatorFailsJobAfterReportedFailures(t *testing.T) {
	coord := NewCoordinator(nil, time.Minute)
	mux := http.NewServeMux()
	coord.Register(mux, api.FleetPrefix)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	cl := client.New(srv.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	view, err := coord.Submit(chipScenario(1))
	if err != nil {
		t.Fatal(err)
	}
	var last *api.FleetLease
	for i := 1; i <= DefaultMaxAttempts; i++ {
		lease, ok, err := cl.Lease(ctx, "failing-worker")
		if err != nil || !ok {
			t.Fatalf("lease %d: ok=%v err=%v", i, ok, err)
		}
		if lease.JobID != view.ID || lease.Shard != 0 {
			t.Fatalf("lease %d: %+v", i, lease)
		}
		if err := cl.FailShard(ctx, lease.LeaseID, fmt.Sprintf("solver diverged on attempt %d", i)); err != nil {
			t.Fatalf("fail report %d: %v", i, err)
		}
		last = lease
	}
	if _, ok, err := cl.Lease(ctx, "failing-worker"); err != nil || ok {
		t.Fatalf("lease after the last attempt: ok=%v err=%v", ok, err)
	}
	final, err := coord.Wait(ctx, view.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != JobFailed || !strings.Contains(final.Error, fmt.Sprintf("solver diverged on attempt %d", DefaultMaxAttempts)) {
		t.Errorf("job %s (%q), want failed with the reported error", final.Status, final.Error)
	}
	if got := final.Shards[0].Attempts; got != DefaultMaxAttempts {
		t.Errorf("shard attempts %d, want %d", got, DefaultMaxAttempts)
	}
	if err := cl.FailShard(ctx, last.LeaseID, "late report"); !api.IsLeaseLost(err) {
		t.Errorf("fail report under a spent lease: %v, want lease-lost", err)
	}
}
