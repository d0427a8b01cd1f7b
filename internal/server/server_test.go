package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"etherm/api"
	"etherm/client"
	"etherm/internal/scenario"
)

// newTestServer spins an httptest server plus an SDK client against it.
func newTestServer(t *testing.T, srv *Server) (*httptest.Server, *client.Client) {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, client.New(ts.URL)
}

// mustNew builds a server from cfg or fails the test.
func mustNew(t *testing.T, cfg Config) *Server {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// submitBatch submits a batch through the SDK.
func submitBatch(t *testing.T, cl *client.Client, b *api.Batch) *api.Job {
	t.Helper()
	job, err := cl.SubmitBatch(context.Background(), b)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	return job
}

// waitDone waits for a terminal state through the SDK (SSE under the hood).
func waitDone(t *testing.T, cl *client.Client, id string, timeout time.Duration) *api.Job {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	job, err := cl.WaitJob(ctx, id)
	if err != nil {
		t.Fatalf("wait %s: %v", id, err)
	}
	return job
}

// tinySim is the fast transient configuration shared by the API tests.
func tinySim() api.SimSpec {
	return api.SimSpec{EndTimeS: 10, NumSteps: 3, Coupling: "weak", Nonlinear: "newton"}
}

// tinyBatch is a fast two-scenario batch (shared coarse mesh, short
// horizon) for API round-trip tests.
func tinyBatch() *api.Batch {
	return &api.Batch{
		Name: "api-test",
		Scenarios: []api.Scenario{
			{Name: "pair", Chip: api.ChipSpec{HMaxM: 0.8e-3, ActivePairs: []int{0}}, Sim: tinySim()},
			{Name: "full", Chip: api.ChipSpec{HMaxM: 0.8e-3}, Sim: tinySim()},
		},
	}
}

func TestJobRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("runs coupled-field simulations")
	}
	_, cl := newTestServer(t, mustNew(t, Config{MaxConcurrent: 1}))

	job := submitBatch(t, cl, tinyBatch())
	if job.ID == "" || (job.Status != api.JobQueued && job.Status != api.JobRunning) {
		t.Fatalf("unexpected submit response: %+v", job)
	}
	if job.Progress.ScenariosTotal != 2 {
		t.Errorf("progress total %d, want 2", job.Progress.ScenariosTotal)
	}

	done := waitDone(t, cl, job.ID, 3*time.Minute)
	if done.Status != api.JobDone {
		t.Fatalf("job finished as %s (%s)", done.Status, done.Error)
	}
	if done.Result == nil || len(done.Result.Scenarios) != 2 {
		t.Fatalf("missing results: %+v", done.Result)
	}
	if done.Result.FailedCount != 0 {
		t.Fatalf("scenarios failed: %+v", done.Result)
	}
	if done.Progress.ScenariosDone != 2 {
		t.Errorf("progress done %d, want 2", done.Progress.ScenariosDone)
	}
	for _, s := range done.Result.Scenarios {
		if s.TEndMaxK < 300 || s.TEndMaxK > 700 {
			t.Errorf("scenario %s end temperature %g K implausible", s.Name, s.TEndMaxK)
		}
	}
	if done.StartedAt == nil || done.FinishedAt == nil {
		t.Error("timestamps not recorded")
	}

	// The two scenarios share one geometry: the second must hit the cache.
	if !done.Result.Scenarios[1].CacheHit && !done.Result.Scenarios[0].CacheHit {
		t.Error("no scenario hit the assembly cache")
	}

	// A second identical job on the warm server caches everything.
	job2 := submitBatch(t, cl, tinyBatch())
	done2 := waitDone(t, cl, job2.ID, 3*time.Minute)
	if done2.Status != api.JobDone {
		t.Fatalf("second job finished as %s (%s)", done2.Status, done2.Error)
	}
	for _, s := range done2.Result.Scenarios {
		if !s.CacheHit {
			t.Errorf("scenario %s missed the warm cross-job cache", s.Name)
		}
	}

	// Listing returns both jobs newest first, without result payloads.
	list, err := cl.ListJobs(context.Background(), client.ListJobsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 2 || list.Jobs[0].ID != job2.ID || list.Jobs[1].ID != job.ID {
		t.Errorf("job list wrong (want newest first): %+v", list.Jobs)
	}
	if list.NextCursor != "" {
		t.Errorf("unexpected next cursor %q on a complete page", list.NextCursor)
	}
	for _, j := range list.Jobs {
		if j.Result != nil {
			t.Error("job list embeds result payloads")
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	ts, _ := newTestServer(t, mustNew(t, Config{MaxConcurrent: 1}))

	for name, tc := range map[string]struct {
		body   string
		status int
		code   string
	}{
		"not json":      {"}{", http.StatusBadRequest, api.CodeInvalidBody},
		"empty batch":   {`{"scenarios": []}`, http.StatusUnprocessableEntity, api.CodeValidation},
		"unknown field": {`{"scenarios": [{"name": "x", "chipp": 1}]}`, http.StatusUnprocessableEntity, api.CodeValidation},
		"duplicate":     {`{"scenarios": [{"name": "x"}, {"name": "x"}]}`, http.StatusUnprocessableEntity, api.CodeValidation},
		"contradictory solver knobs": {
			`{"scenarios": [{"name": "x", "sim": {"precision": "mixed", "precond": "jacobi"}}]}`,
			http.StatusUnprocessableEntity, api.CodeValidation},
		"deflation without factorization": {
			`{"scenarios": [{"name": "x", "sim": {"deflation": true, "precond": "none"}}]}`,
			http.StatusUnprocessableEntity, api.CodeValidation},
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		problem := decodeProblem(t, resp)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", name, resp.StatusCode, tc.status)
		}
		if problem.Code != tc.code {
			t.Errorf("%s: problem code %q, want %q", name, problem.Code, tc.code)
		}
	}
}

func TestFinishedJobEviction(t *testing.T) {
	if testing.Short() {
		t.Skip("runs coupled-field simulations")
	}
	_, cl := newTestServer(t, mustNew(t, Config{MaxConcurrent: 1, MaxHistory: 2}))

	small := &api.Batch{Scenarios: []api.Scenario{{
		Name: "pair",
		Chip: api.ChipSpec{HMaxM: 0.8e-3, ActivePairs: []int{0}},
		Sim:  tinySim(),
	}}}
	var ids []string
	for i := 0; i < 4; i++ {
		job := submitBatch(t, cl, small)
		waitDone(t, cl, job.ID, time.Minute)
		ids = append(ids, job.ID)
	}
	// Retention cap 2: the two oldest finished jobs are gone, newest remain.
	if _, err := cl.GetJob(context.Background(), ids[0]); !api.IsNotFound(err) {
		t.Errorf("oldest job survived eviction (err %v)", err)
	}
	if _, err := cl.GetJob(context.Background(), ids[3]); err != nil {
		t.Errorf("newest job evicted: %v", err)
	}
	list, err := cl.ListJobs(context.Background(), client.ListJobsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) > 2 {
		t.Errorf("job list holds %d entries, retention cap is 2", len(list.Jobs))
	}
}

func TestJobCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs coupled-field simulations")
	}
	_, cl := newTestServer(t, mustNew(t, Config{MaxConcurrent: 1}))
	ctx := context.Background()

	// A long streaming Monte Carlo job: hundreds of samples, so the cancel
	// lands mid-ensemble.
	big := &api.Batch{
		Name: "cancel-me",
		Scenarios: []api.Scenario{{
			Name: "mc-long",
			Chip: api.ChipSpec{HMaxM: 0.8e-3, ActivePairs: []int{0}},
			Sim:  tinySim(),
			UQ:   api.UQSpec{Method: api.MethodMonteCarlo, Samples: 2000, Seed: 1, Stream: true},
		}},
	}
	job := submitBatch(t, cl, big)

	// Wait until it is actually running before canceling, so the test
	// exercises the mid-run path (the queued path is covered by timing
	// races either way).
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		j, err := cl.GetJob(ctx, job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if j.Status == api.JobRunning {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if _, err := cl.CancelJob(ctx, job.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	done := waitDone(t, cl, job.ID, time.Minute)
	if done.Status != api.JobCanceled {
		t.Fatalf("job finished as %s (%s), want canceled", done.Status, done.Error)
	}
	if done.FinishedAt == nil {
		t.Error("canceled job missing finish timestamp")
	}

	// Canceling a finished job conflicts; canceling an unknown one 404s.
	if _, err := cl.CancelJob(ctx, job.ID); !api.IsConflict(err) {
		t.Errorf("second cancel error %v, want 409 conflict", err)
	}
	if _, err := cl.CancelJob(ctx, "job-999999"); !api.IsNotFound(err) {
		t.Errorf("unknown cancel error %v, want 404", err)
	}

	// The server stays healthy and accepts new work after a cancel.
	job2 := submitBatch(t, cl, tinyBatch())
	if done2 := waitDone(t, cl, job2.ID, 3*time.Minute); done2.Status != api.JobDone {
		t.Fatalf("post-cancel job finished as %s (%s)", done2.Status, done2.Error)
	}
}

func TestUnknownJob(t *testing.T) {
	_, cl := newTestServer(t, mustNew(t, Config{MaxConcurrent: 1}))
	if _, err := cl.GetJob(context.Background(), "job-999999"); !api.IsNotFound(err) {
		t.Errorf("unknown job returned %v, want 404 problem", err)
	}
}

func TestPresetsEndpoint(t *testing.T) {
	_, cl := newTestServer(t, mustNew(t, Config{MaxConcurrent: 1}))
	b, err := cl.Presets(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Scenarios) < 8 {
		t.Errorf("served presets cover %d scenarios, want ≥ 8", len(b.Scenarios))
	}
	// The served suite must itself be a valid submission, both through the
	// wire validator and the engine's deep validator.
	if err := b.Validate(); err != nil {
		t.Errorf("served presets invalid on the wire: %v", err)
	}
	if err := (*scenario.Batch)(b).Validate(); err != nil {
		t.Errorf("served presets invalid: %v", err)
	}
}

func TestHealthz(t *testing.T) {
	_, cl := newTestServer(t, mustNew(t, Config{MaxConcurrent: 1}))
	h, err := cl.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Errorf("health status %q", h.Status)
	}
}

// TestListPagination walks GET /v1/jobs with limit/cursor through the SDK:
// newest first, stable page boundaries, empty cursor at the end.
func TestListPagination(t *testing.T) {
	ts, cl := newTestServer(t, mustNew(t, Config{MaxConcurrent: 1}))
	ctx := context.Background()

	quick := &api.Batch{Scenarios: []api.Scenario{{
		Name: "pair", Chip: api.ChipSpec{HMaxM: 0.8e-3, ActivePairs: []int{0}}, Sim: tinySim(),
	}}}

	// The first submission goes over raw HTTP to pin the 202 + Location
	// contract the SDK abstracts away.
	raw, err := json.Marshal(quick)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var first api.Job
	if err := json.NewDecoder(resp.Body).Decode(&first); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != api.JobPath(first.ID) {
		t.Errorf("Location header %q, want %q", loc, api.JobPath(first.ID))
	}
	if v := resp.Header.Get(api.VersionHeader); v != api.APIVersion {
		t.Errorf("version header %q, want %q", v, api.APIVersion)
	}

	ids := []string{first.ID}
	for i := 0; i < 4; i++ {
		ids = append(ids, submitBatch(t, cl, quick).ID)
	}
	// Cancel everything immediately: pagination needs jobs, not results.
	for _, id := range ids {
		if _, err := cl.CancelJob(ctx, id); err != nil && !api.IsConflict(err) {
			t.Fatalf("cancel %s: %v", id, err)
		}
	}

	var walked []string
	cursor := ""
	pages := 0
	for {
		list, err := cl.ListJobs(ctx, client.ListJobsOptions{Limit: 2, Cursor: cursor})
		if err != nil {
			t.Fatal(err)
		}
		if len(list.Jobs) > 2 {
			t.Fatalf("page holds %d jobs, limit is 2", len(list.Jobs))
		}
		for _, j := range list.Jobs {
			walked = append(walked, j.ID)
		}
		pages++
		if list.NextCursor == "" {
			break
		}
		cursor = list.NextCursor
		if pages > 10 {
			t.Fatal("cursor walk does not terminate")
		}
	}
	if len(walked) != len(ids) {
		t.Fatalf("walked %d jobs, submitted %d", len(walked), len(ids))
	}
	// Newest first across page boundaries: the reverse of submission order.
	for i, id := range walked {
		if want := ids[len(ids)-1-i]; id != want {
			t.Errorf("walk position %d: got %s, want %s", i, id, want)
		}
	}

	// Bad pagination parameters are 400 problems.
	for _, q := range []string{"?limit=0", "?limit=x", "?cursor=nope"} {
		resp, err := http.Get(ts.URL + "/v1/jobs" + q)
		if err != nil {
			t.Fatal(err)
		}
		problem := decodeProblem(t, resp)
		if resp.StatusCode != http.StatusBadRequest || problem.Code != api.CodeValidation {
			t.Errorf("%s: status %d code %q, want 400 %q", q, resp.StatusCode, problem.Code, api.CodeValidation)
		}
	}
}

// decodeProblem reads a problem+json body, failing the test when the
// response does not carry the uniform error envelope.
func decodeProblem(t *testing.T, resp *http.Response) *api.Error {
	t.Helper()
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != api.ProblemContentType {
		t.Errorf("%s %s: error content type %q, want %q",
			resp.Request.Method, resp.Request.URL.Path, ct, api.ProblemContentType)
	}
	var e api.Error
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("error body is not problem json: %v", err)
	}
	if e.Status != resp.StatusCode {
		t.Errorf("problem status %d != HTTP status %d", e.Status, resp.StatusCode)
	}
	if e.Title == "" {
		t.Error("problem has no title")
	}
	return &e
}
