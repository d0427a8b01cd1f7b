package server

import (
	"context"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"etherm/api"
	"etherm/client"
	"etherm/internal/jobstore"
)

// Graceful drain: a draining server sheds every submission with a
// retryable 503 problem while reads keep working.
func TestDrainShedsSubmissions(t *testing.T) {
	srv := mustNew(t, Config{MaxConcurrent: 1})
	_, cl := newTestServer(t, srv)
	ctx := context.Background()

	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain of an idle server: %v", err)
	}
	if !srv.Draining() {
		t.Fatal("Draining() false after Drain")
	}

	// The SDK would retry the shedding 503 (honoring Retry-After);
	// disable retries to assert on the rejection itself.
	cl0 := client.New(cl.BaseURL(), client.WithRetry(1, time.Millisecond))
	_, err := cl0.SubmitBatch(ctx, tinyBatch())
	if !api.IsDraining(err) {
		t.Fatalf("batch submission during drain: got %v, want a draining rejection", err)
	}
	if !api.IsShedding(err) {
		t.Errorf("draining rejection must be shedding (safe to retry), got %v", err)
	}
	e, ok := api.AsError(err)
	if !ok || e.Status != http.StatusServiceUnavailable || e.RetryAfterS <= 0 {
		t.Errorf("draining rejection should be 503 with a Retry-After hint, got %+v", e)
	}

	_, err = cl0.SubmitFleetJob(ctx, crashScenario())
	if !api.IsDraining(err) {
		t.Fatalf("fleet submission during drain: got %v, want a draining rejection", err)
	}

	// Reads survive the drain: listing and health must still answer.
	if _, err := cl.ListJobs(ctx, client.ListJobsOptions{}); err != nil {
		t.Errorf("list during drain: %v", err)
	}
	if _, err := cl.Health(ctx); err != nil {
		t.Errorf("health during drain: %v", err)
	}
}

// The hub broadcast: every subscribed watcher gets an explicit terminal
// shutdown frame, and the frame is NOT a job-terminal event (the job is
// still alive; only the stream ends).
func TestHubShutdownBroadcast(t *testing.T) {
	h := newEventHub()
	sub := h.subscribe("job-000042")
	h.shutdown()
	evs := sub.drain()
	if len(evs) != 1 || evs[0].Type != api.EventShutdown {
		t.Fatalf("queued events after shutdown = %+v, want one shutdown event", evs)
	}
	if evs[0].JobID != "job-000042" {
		t.Errorf("shutdown event names job %q", evs[0].JobID)
	}
	if evs[0].Terminal() {
		t.Error("shutdown event must not read as job-terminal (the job is not done)")
	}
}

// A fleet watcher (poll-driven, no queue for the broadcast to land in)
// still receives the shutdown frame: the watch loop checks the draining
// flag every tick.
func TestDrainEndsFleetWatchWithShutdownEvent(t *testing.T) {
	srv := mustNew(t, Config{MaxConcurrent: 1})
	_, cl := newTestServer(t, srv)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// No workers are connected, so the fleet job idles under leases and
	// the watch stream stays open until the drain ends it.
	fj, err := cl.SubmitFleetJob(ctx, crashScenario())
	if err != nil {
		t.Fatalf("submit fleet job: %v", err)
	}
	events, errc := cl.WatchJob(ctx, fj.ID)

	// First frame is the status snapshot; drain after it to be sure the
	// stream is established.
	first, ok := <-events
	if !ok {
		t.Fatalf("stream closed before the snapshot: %v", <-errc)
	}
	if first.Type != api.EventStatus {
		t.Fatalf("first frame %+v, want the status snapshot", first)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}

	var last api.JobEvent
	for ev := range events {
		last = ev
	}
	if last.Type != api.EventShutdown {
		t.Fatalf("stream ended with %+v, want an explicit shutdown event", last)
	}
	// The SDK reports the early stream end so WaitJob falls back to
	// polling (the job is not terminal).
	if err := <-errc; err == nil {
		t.Error("watch of a non-terminal job ended without error; WaitJob would misread the job as done")
	}
}

// Drain with an expired deadline cancels in-flight jobs instead of
// waiting; they land in a terminal canceled state with their records
// persisted.
func TestDrainTimeoutCancelsRunningJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs coupled-field simulations")
	}
	srv := mustNew(t, Config{MaxConcurrent: 1})
	_, cl := newTestServer(t, srv)
	ctx := context.Background()

	job := submitBatch(t, cl, tinyBatch())
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if err := srv.Drain(expired); err == nil {
		t.Fatal("drain with expired deadline over a live job should report the timeout")
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		j, err := cl.GetJob(ctx, job.ID)
		if err != nil {
			t.Fatalf("get after drain: %v", err)
		}
		if j.Status.Finished() {
			if j.Status != api.JobCanceled && j.Status != api.JobDone {
				t.Fatalf("job finished as %s after drain cancel", j.Status)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %s long after drain cancel", j.Status)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// flakyStore fails Puts on demand — the degraded-mode switch.
type flakyStore struct {
	jobstore.Store
	fail atomic.Bool
}

func (f *flakyStore) Put(kind, id string, data []byte, c jobstore.Counters) error {
	if f.fail.Load() {
		return &failedWrite{}
	}
	return f.Store.Put(kind, id, data, c)
}

type failedWrite struct{}

func (*failedWrite) Error() string { return "injected: disk full" }

// Degraded mode: when the store cannot persist a submission, the
// submission is shed with a retryable 503 — acknowledged-then-lost is the
// one behavior the durability contract forbids — and the server heals
// itself on the first successful write.
func TestDegradedModeShedsAndRecovers(t *testing.T) {
	fs := &flakyStore{Store: jobstore.NewMem()}
	srv, err := New(Config{MaxConcurrent: 1, Store: fs})
	if err != nil {
		t.Fatal(err)
	}
	_, cl := newTestServer(t, srv)
	ctx := context.Background()

	fs.fail.Store(true)
	cl0 := client.New(cl.BaseURL(), client.WithRetry(1, time.Millisecond))
	_, err = cl0.SubmitBatch(ctx, tinyBatch())
	if !api.IsDegraded(err) {
		t.Fatalf("submission with failing store: got %v, want a degraded rejection", err)
	}
	if !api.IsShedding(err) {
		t.Errorf("degraded rejection must be shedding (safe to retry), got %v", err)
	}
	if e, ok := api.AsError(err); !ok || e.Status != http.StatusServiceUnavailable || e.RetryAfterS <= 0 {
		t.Errorf("degraded rejection should be 503 with a Retry-After hint, got %+v", e)
	}
	if !srv.degraded.Load() {
		t.Error("degraded latch not set after a failed persist")
	}
	// The shed submission must leave no trace: no job record, no leaked
	// sequence number.
	if list, err := cl.ListJobs(ctx, client.ListJobsOptions{}); err != nil || len(list.Jobs) != 0 {
		t.Fatalf("shed submission left state behind: jobs=%v err=%v", list, err)
	}

	fs.fail.Store(false)
	job, err := cl.SubmitBatch(ctx, tinyBatch())
	if err != nil {
		t.Fatalf("submission after store recovery: %v", err)
	}
	if job.ID != "job-000001" {
		t.Errorf("first accepted job is %s; the shed submission leaked a sequence number", job.ID)
	}
	if srv.degraded.Load() {
		t.Error("degraded latch not cleared by the successful persist")
	}
	if _, err := cl.CancelJob(ctx, job.ID); err != nil {
		t.Logf("cancel cleanup: %v", err) // may already be running/finished
	}
}

// Fleet submissions keep the same contract: a job the store cannot
// persist is shed with a retryable 503 degraded and leaves no trace, the
// coordinator's RunSharded fails instead of waiting on a job a restart
// would lose, and the first acknowledged job is persisted under the first
// sequence number.
func TestFleetSubmissionPersistsBeforeAck(t *testing.T) {
	fs := &flakyStore{Store: jobstore.NewMem()}
	srv, err := New(Config{MaxConcurrent: 1, Store: fs})
	if err != nil {
		t.Fatal(err)
	}
	_, cl := newTestServer(t, srv)
	ctx := context.Background()

	fs.fail.Store(true)
	cl0 := client.New(cl.BaseURL(), client.WithRetry(1, time.Millisecond))
	_, err = cl0.SubmitFleetJob(ctx, crashScenario())
	if !api.IsDegraded(err) {
		t.Fatalf("fleet submission with failing store: got %v, want a degraded rejection", err)
	}
	if e, ok := api.AsError(err); !ok || e.Status != http.StatusServiceUnavailable || e.RetryAfterS <= 0 {
		t.Errorf("degraded rejection should be 503 with a Retry-After hint, got %+v", e)
	}
	if jobs, err := cl.ListFleetJobs(ctx); err != nil || len(jobs) != 0 {
		t.Fatalf("shed fleet submission left state behind: jobs=%v err=%v", jobs, err)
	}
	if _, err := srv.Coordinator().RunSharded(ctx, *crashScenario()); err == nil {
		t.Error("RunSharded accepted a job the store failed to persist")
	}

	fs.fail.Store(false)
	fj, err := cl.SubmitFleetJob(ctx, crashScenario())
	if err != nil {
		t.Fatalf("fleet submission after store recovery: %v", err)
	}
	if fj.ID != "fleet-000001" {
		t.Errorf("first accepted fleet job is %s; a shed submission leaked a sequence number", fj.ID)
	}
	if _, ok := fs.State().Kinds[jobstore.KindFleet][fj.ID]; !ok {
		t.Errorf("acknowledged fleet job %s is not in the store", fj.ID)
	}
	if _, err := cl.CancelFleetJob(ctx, fj.ID); err != nil {
		t.Logf("cancel cleanup: %v", err)
	}
}
