package server

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"etherm/api"
	"etherm/client"
	"etherm/internal/fleet"
)

// startWorker runs an etworker pull loop (built on the SDK) against the
// test server for the lifetime of ctx.
func startWorker(t *testing.T, ctx context.Context, cl *client.Client) {
	t.Helper()
	w := &fleet.Worker{Client: cl, ID: "api-test", SampleWorkers: 2, Poll: 20 * time.Millisecond}
	go func() { _ = w.Run(ctx) }()
}

// TestRouteTableMatchesContract probes the server mux with every route of
// the public contract: each must resolve to a registered handler, so
// api.Routes (the source openapi.yaml is checked against) cannot drift
// from the surface the server actually serves.
func TestRouteTableMatchesContract(t *testing.T) {
	srv := mustNew(t, Config{MaxConcurrent: 1})
	for _, route := range api.Routes() {
		path := strings.ReplaceAll(route.Pattern, "{id}", "probe-id")
		req, err := http.NewRequest(route.Method, "http://server"+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, pattern := srv.mux.Handler(req); pattern == "" {
			t.Errorf("route %s is in the contract but not registered", route)
		}
	}
}

// TestErrorConformance is the uniform-error-contract table: every failure
// path of the surface — routing errors included — must answer with an
// RFC-9457 problem+json envelope carrying the right status and condition
// code.
func TestErrorConformance(t *testing.T) {
	ts, _ := newTestServer(t, mustNew(t, Config{MaxConcurrent: 1}))

	for _, tc := range []struct {
		name         string
		method, path string
		body         string
		wantStatus   int
		wantCode     string
	}{
		{"unknown path", "GET", "/v1/nope", "", 404, api.CodeNotFound},
		{"unknown nested path", "GET", "/v2/jobs", "", 404, api.CodeNotFound},
		{"method not allowed on jobs", "PUT", "/v1/jobs", "", 405, api.CodeMethodNotAllowed},
		{"method not allowed on presets", "POST", "/v1/scenarios/presets", "", 405, api.CodeMethodNotAllowed},
		{"method not allowed on fleet lease", "DELETE", "/v1/fleet/lease", "", 405, api.CodeMethodNotAllowed},
		{"malformed submit", "POST", "/v1/jobs", "}{", 400, api.CodeInvalidBody},
		{"invalid batch", "POST", "/v1/jobs", `{"scenarios":[]}`, 422, api.CodeValidation},
		{"unknown job", "GET", "/v1/jobs/job-999999", "", 404, api.CodeNotFound},
		{"unknown job cancel", "DELETE", "/v1/jobs/job-999999", "", 404, api.CodeNotFound},
		{"unknown job events", "GET", "/v1/jobs/job-999999/events", "", 404, api.CodeNotFound},
		{"unknown fleet job", "GET", "/v1/fleet/jobs/fleet-999999", "", 404, api.CodeNotFound},
		{"malformed lease", "POST", "/v1/fleet/lease", "}{", 400, api.CodeInvalidBody},
		{"stale heartbeat", "POST", "/v1/fleet/heartbeat", `{"lease_id":"lease-000042"}`, 410, api.CodeLeaseLost},
		{"stale result", "POST", "/v1/fleet/result", `{"lease_id":"lease-000042","result":{"shard":0,"start":0,"end":0,"block_size":1,"sampler":"x","num_outputs":0,"evaluated":0,"failures":0,"blocks":[]}}`, 410, api.CodeLeaseLost},
		{"unsharded fleet submit", "POST", "/v1/fleet/jobs", `{"name":"x"}`, 422, api.CodeValidation},
		{"unknown field in fleet submit", "POST", "/v1/fleet/jobs", `{"name":"x","chip":{"hmaxx":1},"uq":{"method":"monte-carlo","samples":4,"shards":2}}`, 422, api.CodeValidation},
		{"method not allowed on surrogates", "PUT", "/v1/surrogates", "", 405, api.CodeMethodNotAllowed},
		{"malformed surrogate build", "POST", "/v1/surrogates", "}{", 400, api.CodeInvalidBody},
		{"nameless surrogate spec", "POST", "/v1/surrogates", `{"scenario":{}}`, 422, api.CodeValidation},
		{"surrogate level out of range", "POST", "/v1/surrogates", `{"scenario":{"name":"x"},"level":9}`, 422, api.CodeValidation},
		{"unknown field in surrogate spec", "POST", "/v1/surrogates", `{"scenario":{"name":"x","chip":{"hmax_m":0.0008,"active_pairs":[0]},"sim":{"end_time_s":10,"num_steps":3,"coupling":"weak","nonlinear":"newton"},"uq":{"rho":1}},"levle":3}`, 422, api.CodeValidation},
		{"unknown surrogate", "GET", "/v1/surrogates/sg-999999", "", 404, api.CodeNotFound},
		{"unknown surrogate query", "POST", "/v1/surrogates/sg-999999/query", "{}", 404, api.CodeNotFound},
		{"unknown field in surrogate query", "POST", "/v1/surrogates/sg-999999/query", `{"t_crit":523}`, 422, api.CodeValidation},
		{"bad version header", "GET", "/healthz", "", 400, api.CodeUnsupportedVersion},
	} {
		var body *strings.Reader
		if tc.body != "" {
			body = strings.NewReader(tc.body)
		} else {
			body = strings.NewReader("")
		}
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, body)
		if err != nil {
			t.Fatal(err)
		}
		if tc.wantCode == api.CodeUnsupportedVersion {
			req.Header.Set(api.VersionHeader, "v999")
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		problem := decodeProblem(t, resp)
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.wantStatus)
		}
		if problem.Code != tc.wantCode {
			t.Errorf("%s: code %q, want %q", tc.name, problem.Code, tc.wantCode)
		}
		if problem.Type != api.ErrorTypeBase+tc.wantCode {
			t.Errorf("%s: type %q, want %q", tc.name, problem.Type, api.ErrorTypeBase+tc.wantCode)
		}
		if problem.Instance != tc.path && !strings.HasPrefix(tc.path, problem.Instance) {
			t.Errorf("%s: instance %q does not identify %q", tc.name, problem.Instance, tc.path)
		}
	}

	// 405 responses advertise the allowed methods.
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/jobs", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	allow := resp.Header.Get("Allow")
	if !strings.Contains(allow, http.MethodGet) || !strings.Contains(allow, http.MethodPost) {
		t.Errorf("405 Allow header %q misses GET/POST", allow)
	}
}

// TestVersionNegotiation covers the version header contract: matching and
// absent versions pass, responses are stamped.
func TestVersionNegotiation(t *testing.T) {
	ts, _ := newTestServer(t, mustNew(t, Config{MaxConcurrent: 1}))
	for _, requested := range []string{"", api.APIVersion} {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
		if requested != "" {
			req.Header.Set(api.VersionHeader, requested)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("version %q: status %d", requested, resp.StatusCode)
		}
		if v := resp.Header.Get(api.VersionHeader); v != api.APIVersion {
			t.Errorf("version %q: response stamped %q, want %q", requested, v, api.APIVersion)
		}
	}
}

// TestJobEventsStream is the SSE acceptance test: watching a
// multi-scenario batch (one scenario a small streaming Monte Carlo
// campaign) must observe at least one progress event — scenario
// completions and streaming sample counts — and the terminal state, after
// which the stream closes.
func TestJobEventsStream(t *testing.T) {
	if testing.Short() {
		t.Skip("runs coupled-field simulations")
	}
	_, cl := newTestServer(t, mustNew(t, Config{MaxConcurrent: 1}))
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	batch := &api.Batch{
		Name: "sse-test",
		Scenarios: []api.Scenario{
			{Name: "pair", Chip: api.ChipSpec{HMaxM: 0.8e-3, ActivePairs: []int{0}}, Sim: tinySim()},
			{
				Name: "mc-small",
				Chip: api.ChipSpec{HMaxM: 0.8e-3, ActivePairs: []int{0}},
				Sim:  tinySim(),
				UQ:   api.UQSpec{Method: api.MethodMonteCarlo, Samples: 4, Seed: 2, Stream: true},
			},
		},
	}
	job := submitBatch(t, cl, batch)

	events, errc := cl.WatchJob(ctx, job.ID)
	var scenarioEvents, sampleEvents int
	var terminal *api.JobEvent
	for ev := range events {
		if ev.JobID != job.ID {
			t.Errorf("event for job %q on a watch of %q", ev.JobID, job.ID)
		}
		switch ev.Type {
		case api.EventScenario:
			scenarioEvents++
			if ev.Scenario == "" || ev.Progress == nil {
				t.Errorf("scenario event incomplete: %+v", ev)
			}
		case api.EventSample:
			sampleEvents++
			if ev.Scenario != "mc-small" || ev.Done < 1 || ev.Total != 4 {
				t.Errorf("sample event incomplete: %+v", ev)
			}
		case api.EventStatus:
			if ev.Terminal() {
				cp := ev
				terminal = &cp
			}
		}
	}
	if err := <-errc; err != nil {
		t.Fatalf("watch: %v", err)
	}
	if scenarioEvents < 2 {
		t.Errorf("observed %d scenario events, want one per scenario", scenarioEvents)
	}
	if sampleEvents < 1 {
		t.Errorf("observed no streaming-campaign sample events")
	}
	if terminal == nil {
		t.Fatal("stream closed without a terminal status event")
	}
	if terminal.Status != api.JobDone {
		t.Errorf("terminal status %s (%s), want done", terminal.Status, terminal.Error)
	}
	if terminal.Progress == nil || terminal.Progress.ScenariosDone != 2 {
		t.Errorf("terminal progress wrong: %+v", terminal.Progress)
	}

	// Watching an already-finished job replays the terminal snapshot and
	// closes immediately.
	events, errc = cl.WatchJob(ctx, job.ID)
	var replay []api.JobEvent
	for ev := range events {
		replay = append(replay, ev)
	}
	if err := <-errc; err != nil {
		t.Fatalf("replay watch: %v", err)
	}
	if len(replay) != 1 || !replay[0].Terminal() {
		t.Errorf("terminal replay wrong: %+v", replay)
	}
}

// TestFleetJobOverServerAPI drives a sharded campaign end to end through
// the server using only the SDK: submit to the fleet, serve the shards
// with an etworker pull loop over the same mux, and follow shard progress
// through both the unified job endpoint and the SSE stream.
func TestFleetJobOverServerAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("runs coupled-field ensembles")
	}
	_, cl := newTestServer(t, mustNew(t, Config{MaxConcurrent: 1, MaxHistory: 8, LeaseTTL: 5 * time.Second}))
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	s := &api.Scenario{
		Name: "mc-fleet",
		Chip: api.ChipSpec{HMaxM: 0.8e-3},
		Sim:  tinySim(),
		UQ: api.UQSpec{
			Method: api.MethodMonteCarlo, Samples: 4, Seed: 9,
			Shards: 2, ShardBlock: 2,
		},
	}
	view, err := cl.SubmitFleetJob(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	if view.Status != api.JobRunning || len(view.Shards) != 2 {
		t.Fatalf("unexpected fleet job view: %+v", view)
	}

	// Shard progress is visible on the unified job endpoint before any
	// worker joins... as a fleet job view.
	progress, err := cl.GetFleetJob(ctx, view.ID)
	if err != nil {
		t.Fatal(err)
	}
	if progress.ShardsDone != 0 || len(progress.Shards) != 2 {
		t.Fatalf("initial shard progress: %+v", progress)
	}

	// Start watching before the worker joins, then let the fleet drain the
	// shards: the stream must carry shard progress and the terminal state.
	events, errc := cl.WatchJob(ctx, view.ID)

	startWorker(t, ctx, cl)

	var shardEvents int
	var terminal *api.JobEvent
	for ev := range events {
		switch ev.Type {
		case api.EventShards:
			shardEvents++
			if ev.ShardsTotal != 2 {
				t.Errorf("shard event wrong: %+v", ev)
			}
		case api.EventStatus:
			if ev.Terminal() {
				cp := ev
				terminal = &cp
			}
		}
	}
	if err := <-errc; err != nil {
		t.Fatalf("fleet watch: %v", err)
	}
	if terminal == nil || terminal.Status != api.JobDone {
		t.Fatalf("fleet stream terminal: %+v", terminal)
	}
	if shardEvents < 1 {
		t.Error("no shard progress events observed")
	}

	final, err := cl.GetFleetJob(ctx, view.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != api.JobDone || final.Result == nil {
		t.Fatalf("fleet job finished as %s (%s)", final.Status, final.Error)
	}
	if final.ShardsDone != 2 || !final.Result.OK || final.Result.Shards != 2 {
		t.Errorf("fleet result accounting: done=%d result=%+v", final.ShardsDone, final.Result)
	}
	if final.Result.Samples+final.Result.Failures != 4 {
		t.Errorf("fleet campaign consumed %d samples, want 4", final.Result.Samples+final.Result.Failures)
	}
}
