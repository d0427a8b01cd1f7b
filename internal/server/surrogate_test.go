package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"etherm/api"
	"etherm/client"
	"etherm/internal/scenario"
)

// tinySurrogateSpec is the cheapest buildable surrogate: one wire pair on
// a coarse mesh, three transient steps, ρ = 1 so the germ is scalar and
// the level-2 union design costs five FEM solves.
func tinySurrogateSpec() *api.SurrogateSpec {
	rho := 1.0
	return &api.SurrogateSpec{
		Scenario: api.Scenario{
			Name: "surr-pair",
			Chip: api.ChipSpec{HMaxM: 0.8e-3, ActivePairs: []int{0}},
			Sim:  tinySim(),
			UQ:   api.UQSpec{Rho: &rho},
		},
		Level: 2,
	}
}

// buildReady builds the tiny surrogate through the SDK and waits for ready.
func buildReady(t *testing.T, cl *client.Client) *api.Surrogate {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	sg, err := cl.BuildSurrogate(ctx, tinySurrogateSpec())
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	sg, err = cl.WaitSurrogate(ctx, sg.ID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if sg.Status != api.SurrogateReady {
		t.Fatalf("surrogate ended %s: %s", sg.Status, sg.Error)
	}
	return sg
}

// TestSurrogateBuildAndQuery drives the serving path end to end through
// the SDK: build, inspect, list, query — and the content-addressed join on
// resubmission.
func TestSurrogateBuildAndQuery(t *testing.T) {
	if testing.Short() {
		t.Skip("runs coupled-field simulations")
	}
	_, cl := newTestServer(t, mustNew(t, Config{MaxConcurrent: 1}))
	ctx := context.Background()

	sg := buildReady(t, cl)
	if sg.GeometryKey == "" || sg.Evaluations == 0 || sg.Dim != 1 || !strings.HasPrefix(sg.ID, "sg-") {
		t.Fatalf("ready metadata incomplete: %+v", sg)
	}
	if !(sg.DeltaLo < sg.DeltaHi) || sg.GermBound <= 0 {
		t.Fatalf("trained domain not reported: %+v", sg)
	}
	if sg.BuiltAt == nil || sg.BuildS <= 0 || sg.MeanK < 300 || sg.MeanK > 700 {
		t.Fatalf("build stats implausible: %+v", sg)
	}

	// Resubmitting the same spec joins the ready surrogate — no new build.
	again, err := cl.BuildSurrogate(ctx, tinySurrogateSpec())
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != sg.ID || again.Status != api.SurrogateReady || again.Evaluations != sg.Evaluations {
		t.Fatalf("resubmission did not join: %+v", again)
	}

	list, err := cl.ListSurrogates(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Surrogates) != 1 || list.Surrogates[0].ID != sg.ID {
		t.Fatalf("list wrong: %+v", list)
	}
	h, err := cl.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Surrogates != 1 {
		t.Errorf("health reports %d surrogates, want 1", h.Surrogates)
	}

	ans, err := cl.QuerySurrogate(ctx, sg.ID, &api.SurrogateQuery{Quantiles: []float64{0.05, 0.5, 0.95}})
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if ans.ID != sg.ID || ans.Evaluations != sg.Evaluations {
		t.Errorf("answer identity wrong: %+v", ans)
	}
	if ans.ErrIndicatorK < 0 || ans.MeanK < 300 || ans.MeanK > 700 || len(ans.Quantiles) != 3 {
		t.Errorf("answer implausible: %+v", ans)
	}
	if ans.TCritK == 0 {
		t.Error("answer lacks the critical temperature it used")
	}

	// An in-domain what-if sweep answers without touching the FEM path.
	sweep, err := cl.QuerySurrogate(ctx, sg.ID, &api.SurrogateQuery{
		Sweep: &api.SurrogateSweep{From: sg.DeltaLo, To: sg.DeltaHi, Steps: 5},
	})
	if err != nil {
		t.Fatalf("sweep query: %v", err)
	}
	if len(sweep.Sweep) != 5 {
		t.Errorf("sweep answered %d points, want 5", len(sweep.Sweep))
	}
}

// TestSurrogateOutOfDomainFallback: a what-if beyond the trained domain is
// refused with the typed out-of-domain problem whose fallback batch parses
// through the engine's own strict validator and pins the requested δ.
func TestSurrogateOutOfDomainFallback(t *testing.T) {
	if testing.Short() {
		t.Skip("runs coupled-field simulations")
	}
	_, cl := newTestServer(t, mustNew(t, Config{MaxConcurrent: 1}))
	sg := buildReady(t, cl)

	bad := sg.DeltaHi + 0.05
	_, err := cl.QuerySurrogate(context.Background(), sg.ID, &api.SurrogateQuery{Delta: &bad})
	if !api.IsOutOfDomain(err) {
		t.Fatalf("want out-of-domain problem, got %v", err)
	}
	e, _ := api.AsError(err)
	if e.Status != http.StatusUnprocessableEntity || e.FallbackJob == nil {
		t.Fatalf("problem incomplete: %+v", e)
	}
	raw, err := json.Marshal(e.FallbackJob)
	if err != nil {
		t.Fatal(err)
	}
	b, err := scenario.ParseBatch(raw)
	if err != nil {
		t.Fatalf("fallback job rejected by the engine: %v", err)
	}
	if len(b.Scenarios) != 1 || b.Scenarios[0].Chip.MeanElongation != bad {
		t.Errorf("fallback does not pin the requested δ: %+v", b.Scenarios[0].Chip)
	}

	// Invalid queries are plain validation problems, not domain redirects.
	_, err = cl.QuerySurrogate(context.Background(), sg.ID, &api.SurrogateQuery{Quantiles: []float64{2}})
	if e, ok := api.AsError(err); !ok || e.Code != api.CodeValidation {
		t.Errorf("bad quantile: want validation problem, got %v", err)
	}
}

// TestSurrogateNotReady: while the single runner slot is held by a batch
// job, a queued build answers queries with the typed not-ready problem —
// retry hint plus a fallback batch that parses.
func TestSurrogateNotReady(t *testing.T) {
	if testing.Short() {
		t.Skip("runs coupled-field simulations")
	}
	_, cl := newTestServer(t, mustNew(t, Config{MaxConcurrent: 1}))
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	// Occupy the only runner slot with a long Monte Carlo job.
	blocker := submitBatch(t, cl, &api.Batch{Scenarios: []api.Scenario{{
		Name: "blocker", Chip: api.ChipSpec{HMaxM: 0.8e-3, ActivePairs: []int{0}}, Sim: tinySim(),
		UQ: api.UQSpec{Method: api.MethodMonteCarlo, Samples: 100000, Seed: 1, Stream: true},
	}}})

	sg, err := cl.BuildSurrogate(ctx, tinySurrogateSpec())
	if err != nil {
		t.Fatal(err)
	}
	if sg.Status != api.SurrogateBuilding {
		t.Fatalf("expected a building surrogate behind the blocked slot, got %s", sg.Status)
	}
	_, err = cl.QuerySurrogate(ctx, sg.ID, nil)
	if !api.IsSurrogateNotReady(err) {
		t.Fatalf("want surrogate-not-ready problem, got %v", err)
	}
	e, _ := api.AsError(err)
	if e.Status != http.StatusConflict || e.RetryAfterS <= 0 || e.FallbackJob == nil {
		t.Fatalf("not-ready problem incomplete: %+v", e)
	}
	raw, _ := json.Marshal(e.FallbackJob)
	if _, perr := scenario.ParseBatch(raw); perr != nil {
		t.Fatalf("not-ready fallback rejected by the engine: %v", perr)
	}
	// The fallback re-arms the study as sparse-grid collocation at the
	// surrogate's level.
	if e.FallbackJob.Scenarios[0].UQ.Method != api.MethodSmolyak || e.FallbackJob.Scenarios[0].UQ.Level != 2 {
		t.Errorf("fallback UQ wrong: %+v", e.FallbackJob.Scenarios[0].UQ)
	}

	// Unblock; the build must then complete and serve.
	if _, err := cl.CancelJob(ctx, blocker.ID); err != nil && !api.IsConflict(err) {
		t.Fatal(err)
	}
	sg, err = cl.WaitSurrogate(ctx, sg.ID)
	if err != nil {
		t.Fatal(err)
	}
	if sg.Status != api.SurrogateReady {
		t.Fatalf("surrogate ended %s: %s", sg.Status, sg.Error)
	}
	if _, err := cl.QuerySurrogate(ctx, sg.ID, nil); err != nil {
		t.Fatalf("query after unblock: %v", err)
	}
}

// TestSurrogateRestartSurvival: a ready surrogate persisted through the
// jobstore serves bit-identical answers after a full process restart, with
// zero FEM work in the new incarnation.
func TestSurrogateRestartSurvival(t *testing.T) {
	if testing.Short() {
		t.Skip("runs coupled-field simulations")
	}
	dir := t.TempDir()
	ctx := context.Background()
	q := &api.SurrogateQuery{Quantiles: []float64{0.1, 0.5, 0.9}}

	cl, closer := openPersistent(t, dir, 8)
	sg := buildReady(t, cl)
	before, err := cl.QuerySurrogate(ctx, sg.ID, q)
	if err != nil {
		t.Fatal(err)
	}
	closer()

	cl2, _ := openPersistent(t, dir, 8)
	got, err := cl2.GetSurrogate(ctx, sg.ID)
	if err != nil {
		t.Fatalf("surrogate lost across restart: %v", err)
	}
	if got.Status != api.SurrogateReady || got.Evaluations != sg.Evaluations {
		t.Fatalf("recovered metadata wrong: %+v", got)
	}
	after, err := cl2.QuerySurrogate(ctx, sg.ID, q)
	if err != nil {
		t.Fatalf("query after restart: %v", err)
	}
	a, _ := json.Marshal(before)
	b, _ := json.Marshal(after)
	if !bytes.Equal(a, b) {
		t.Fatalf("answers diverge across restart:\n%s\nvs\n%s", a, b)
	}
	h, err := cl2.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Surrogates != 1 {
		t.Errorf("recovered server serves %d surrogates, want 1", h.Surrogates)
	}
}

// TestSurrogateMetrics: the query counters, latency histogram and cache
// gauge appear on /metrics with the outcomes the test provoked.
func TestSurrogateMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs coupled-field simulations")
	}
	ts, cl := newTestServer(t, mustNew(t, Config{MaxConcurrent: 1}))
	ctx := context.Background()
	sg := buildReady(t, cl)

	if _, err := cl.QuerySurrogate(ctx, sg.ID, nil); err != nil { // hit
		t.Fatal(err)
	}
	_, _ = cl.QuerySurrogate(ctx, "sg-nope", nil) // miss
	bad := sg.DeltaHi + 0.05
	_, _ = cl.QuerySurrogate(ctx, sg.ID, &api.SurrogateQuery{Delta: &bad}) // out_of_domain

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`etherm_surrogate_queries_total{result="hit"} 1`,
		`etherm_surrogate_queries_total{result="miss"} 1`,
		`etherm_surrogate_queries_total{result="out_of_domain"} 1`,
		"etherm_surrogate_cache_entries 1",
		"etherm_surrogate_query_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics misses %q", want)
		}
	}
}
