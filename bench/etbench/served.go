package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"etherm/api"
	"etherm/client"
	"etherm/internal/apiconv"
	"etherm/internal/scenario"
	"etherm/internal/server"
	"etherm/internal/surrogate"
)

// jobVariants are the served-mix job geometries and drives: five-step
// transients on one cached mesh with the standard or a 28 µm wire, all
// pairs or half of them driven. Each costs about the same (~0.12 s).
var jobVariants = []api.Scenario{
	variant("v0-all", 0, nil, 0),
	variant("v1-half", 0, []int{0, 1, 2}, 1.1),
	variant("v2-thick", 28e-6, nil, 0),
	variant("v3-thick-half", 28e-6, []int{3, 4, 5}, 0.9),
}

func variant(name string, wireDiameter float64, pairs []int, drive float64) api.Scenario {
	return api.Scenario{
		Name: name,
		Chip: api.ChipSpec{HMaxM: 0.8e-3, WireDiameterM: wireDiameter, ActivePairs: pairs, DriveScale: drive},
		Sim:  api.SimSpec{EndTimeS: 50, NumSteps: 5, Coupling: "weak", Nonlinear: "newton"},
	}
}

// mcJobSamples is the sample budget of a served-mix Monte Carlo job.
const mcJobSamples = 8

// queryBlock is the length of the blocks client B's query rate is
// measured over: long enough for thousands of queries, short enough that a
// window holds dozens.
const queryBlock = 250 * time.Millisecond

// jobBatch is the batch a job draw submits.
func jobBatch(d jobDraw) *api.Batch {
	sc := jobVariants[d.Variant]
	if d.MC {
		sc.Name = "mc"
		sc.UQ = api.UQSpec{Method: api.MethodMonteCarlo, Samples: mcJobSamples, Seed: d.MCSeed}
	}
	return &api.Batch{Name: "etbench", Scenarios: []api.Scenario{sc}}
}

// surrogateSpec is the surrogate client B queries: one wire pair, three
// steps, a one-dimensional germ (ρ = 1), level 2 — five FEM solves.
func surrogateSpec() *api.SurrogateSpec {
	rho := 1.0
	return &api.SurrogateSpec{
		Scenario: api.Scenario{
			Name: "etbench-surrogate",
			Chip: api.ChipSpec{HMaxM: 0.8e-3, ActivePairs: []int{0}},
			Sim:  api.SimSpec{EndTimeS: 10, NumSteps: 3, Coupling: "weak", Nonlinear: "newton"},
			UQ:   api.UQSpec{Rho: &rho},
		},
		Level: 2,
	}
}

// instance is one in-process server on a loopback port with its durable
// job store.
type instance struct {
	dir    string
	srv    *server.Server
	hs     *http.Server
	served chan struct{}
	base   string
}

func startInstance(tmpDir string) (*instance, error) {
	if err := os.MkdirAll(tmpDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmpDir, "served-")
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{MaxConcurrent: maxWorkers, DataDir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	in := &instance{dir: dir, srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan struct{}),
		base: "http://" + ln.Addr().String()}
	go func() {
		defer close(in.served)
		_ = in.hs.Serve(ln) // returns ErrServerClosed once stop closes it
	}()
	return in, nil
}

// stop closes the listener and connections, waits for the serve loop,
// then closes the store and removes its directory. Every job has reached a
// terminal state by then, so no runner is left writing.
func (in *instance) stop() {
	_ = in.hs.Close()
	<-in.served
	_ = in.srv.Close()
	_ = os.RemoveAll(in.dir)
}

// newClient returns an SDK client holding at most one connection, without
// retries, so every failure surfaces.
func newClient(base string) *client.Client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return client.New(base, client.WithHTTPClient(&http.Client{Transport: tr}), client.WithRetry(1, 0))
}

// servedMix runs an in-process server with a WAL job store and two
// closed-loop clients: A submits jobs and waits for each terminal SSE event
// (latency is submit to terminal event), B sends back-to-back surrogate
// queries (throughput is queries per second).
type servedMix struct {
	in     *inputs
	inst   *instance
	clA    *client.Client
	clB    *client.Client
	sg     *api.Surrogate
	buildS []float64 // server-reported surrogate build times

	jobs    int
	queries []api.SurrogateQuery
	results map[jobDraw][]byte // first normalized result of each job draw
	answers map[int][]byte     // first answer to each pool query
	fails   []string

	direct *surrogate.Model
}

// setup times a server start with its store recovery, the surrogate
// build over HTTP, and polling until the surrogate serves.
func (w *servedMix) setup(cfg config, tr *tracer) ([]float64, error) {
	ctx := context.Background()
	times, err := repeatSetup(cfg, func(i int) error {
		if w.inst != nil {
			w.inst.stop()
			w.inst = nil
		}
		s := tr.begin("server.setup", fmt.Sprintf("setup-%d", i), 0)
		inst, err := startInstance(cfg.tmpDir)
		if err != nil {
			return err
		}
		w.inst = inst
		cl := newClient(inst.base)
		sg, err := cl.BuildSurrogate(ctx, surrogateSpec())
		if err != nil {
			return fmt.Errorf("build surrogate: %w", err)
		}
		for sg.Status == api.SurrogateBuilding {
			time.Sleep(time.Millisecond)
			if sg, err = cl.GetSurrogate(ctx, sg.ID); err != nil {
				return err
			}
		}
		if sg.Status != api.SurrogateReady {
			return fmt.Errorf("surrogate %s ended %s: %s", sg.ID, sg.Status, sg.Error)
		}
		s.end(nil)
		if sg.BuiltAt != nil {
			tr.record("surrogate.build", sg.ID, 0, s.id, sg.SubmittedAt, *sg.BuiltAt, nil)
		}
		w.buildS = append(w.buildS, sg.BuildS)
		w.sg = sg
		return nil
	})
	if err != nil {
		return nil, err
	}
	w.clA, w.clB = newClient(w.inst.base), newClient(w.inst.base)
	w.results = make(map[jobDraw][]byte)
	w.answers = make(map[int][]byte)
	for _, q := range w.in.Queries {
		delta := w.sg.DeltaLo + q.DeltaFrac*(w.sg.DeltaHi-w.sg.DeltaLo)
		w.queries = append(w.queries, api.SurrogateQuery{Quantiles: q.Quantiles[:], Delta: &delta})
	}
	// Warm-up: every job geometry once, each Monte Carlo seed once, and a
	// pass over the query pool.
	for v := range jobVariants {
		if _, err := w.job(ctx, nil, jobDraw{Variant: v}); err != nil {
			return nil, err
		}
	}
	for _, d := range w.in.Jobs {
		if _, seen := w.results[d]; d.MC && !seen {
			if _, err := w.job(ctx, nil, d); err != nil {
				return nil, err
			}
		}
	}
	for k := range w.queries {
		if _, err := w.query(ctx, k); err != nil {
			return nil, err
		}
	}
	return times, nil
}

// job submits one job on client A, waits for its terminal event and
// records its result; it returns the submit-to-terminal latency.
func (w *servedMix) job(ctx context.Context, tr *tracer, d jobDraw) (time.Duration, error) {
	t0 := time.Now()
	job, err := w.clA.SubmitBatch(ctx, jobBatch(d))
	if err != nil {
		return 0, fmt.Errorf("submit: %w", err)
	}
	tAck := time.Now()
	events, errc := w.clA.WatchJob(ctx, job.ID)
	var status api.JobStatus
	var tTerm time.Time
	for ev := range events {
		if ev.Terminal() && tTerm.IsZero() {
			tTerm, status = time.Now(), ev.Status
		}
	}
	if err := <-errc; err != nil {
		return 0, fmt.Errorf("watch %s: %w", job.ID, err)
	}
	lat := tTerm.Sub(t0)
	final, err := w.clA.GetJob(ctx, job.ID)
	if err != nil {
		return 0, fmt.Errorf("get %s: %w", job.ID, err)
	}
	if status != api.JobDone || final.Status != api.JobDone || final.Result == nil || final.Result.FailedCount != 0 {
		return 0, fmt.Errorf("job %s ended %s/%s: %s", job.ID, status, final.Status, final.Error)
	}
	got, err := normalizedResult(final.Result)
	if err != nil {
		return 0, err
	}
	if first, ok := w.results[d]; !ok {
		w.results[d] = got
	} else if string(first) != string(got) {
		w.fails = append(w.fails, fmt.Sprintf("job %s: result differs from an earlier job of the same batch", job.ID))
	}
	if tr != nil && final.StartedAt != nil && final.FinishedAt != nil {
		id := tr.record("client.job", job.ID, 0, 0, t0, tTerm, map[string]float64{
			"submit_ms": ms(tAck.Sub(t0)),
			"queue_ms":  ms(final.StartedAt.Sub(final.SubmittedAt)),
			"run_ms":    ms(final.FinishedAt.Sub(*final.StartedAt)),
			"notify_ms": ms(tTerm.Sub(*final.FinishedAt)),
		})
		tr.record("server.submit", job.ID, 0, id, t0, tAck, nil)
		tr.record("server.queue", job.ID, 0, id, final.SubmittedAt, *final.StartedAt, nil)
		tr.record("server.run", job.ID, 0, id, *final.StartedAt, *final.FinishedAt, nil)
		tr.record("server.notify", job.ID, 0, id, *final.FinishedAt, tTerm, nil)
	}
	return lat, nil
}

// normalizedResult is the job's scenario results as JSON, without the
// fields that legitimately differ between runs (timing, cache state).
func normalizedResult(r *api.BatchResult) ([]byte, error) {
	out := make([]api.ScenarioResult, len(r.Scenarios))
	for i, s := range r.Scenarios {
		out[i] = *s
		out[i].ElapsedS, out[i].CacheHit = 0, false
	}
	return json.Marshal(out)
}

// query sends pool query k on client B and keeps the first answer to it.
func (w *servedMix) query(ctx context.Context, k int) (time.Duration, error) {
	t0 := time.Now()
	ans, err := w.clB.QuerySurrogate(ctx, w.sg.ID, &w.queries[k])
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	if _, ok := w.answers[k]; !ok {
		data, err := json.Marshal(ans)
		if err != nil {
			return 0, err
		}
		w.answers[k] = data
	}
	return d, nil
}

func (w *servedMix) measure(tr *tracer, window time.Duration, minOps int) (phase, error) {
	ctx := context.Background()
	before, err := scrape(w.inst.base)
	if err != nil {
		return phase{}, err
	}
	var ph phase
	var jobErr error
	var qLat []float64
	var qFailed, qAttempted int
	var qBlocks []block
	doneA := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // client B until client A finishes
		defer wg.Done()
		blockStart, blockUnits := time.Now(), 0
		for k := 0; ; k++ {
			select {
			case <-doneA:
				if len(qBlocks) == 0 && blockUnits > 0 { // a window shorter than one block
					qBlocks = append(qBlocks, block{blockUnits, time.Since(blockStart)})
				}
				return
			default:
			}
			qAttempted++
			d, err := w.query(ctx, k%len(w.queries))
			if err != nil {
				qFailed++
				continue
			}
			blockUnits++
			if since := time.Since(blockStart); since >= queryBlock {
				qBlocks = append(qBlocks, block{blockUnits, since})
				blockStart, blockUnits = time.Now(), 0
			}
			qLat = append(qLat, float64(d)/float64(time.Microsecond))
			if tr != nil && k%64 == 0 {
				tr.record("client.query", fmt.Sprintf("query-%d", k), 0, 0, time.Now().Add(-d), time.Now(), nil)
			}
		}
	}()
	start := time.Now()
	for time.Since(start) < window || len(ph.lat) < minOps {
		d := w.in.Jobs[w.jobs%numJobs]
		w.jobs++
		ph.attempted++
		lat, err := w.job(ctx, tr, d)
		if err != nil {
			ph.failed++
			if jobErr == nil {
				jobErr = err
			}
			continue
		}
		ph.lat = append(ph.lat, ms(lat))
	}
	close(doneA)
	wg.Wait()
	if jobErr != nil {
		w.fails = append(w.fails, jobErr.Error())
	}
	ph.attempted += qAttempted
	ph.failed += qFailed
	ph.blocks = qBlocks
	after, err := scrape(w.inst.base)
	if err != nil {
		return ph, err
	}
	if tr != nil {
		delta := func(name string) float64 { return after[name] - before[name] }
		tr.record("server.window", "", 0, 0, start, time.Now(), map[string]float64{
			"jobs":               float64(len(ph.lat)),
			"query_p50_us":       median(qLat),
			"fsync_sum":          delta("etserver_wal_fsync_seconds_sum"),
			"fsync_count":        delta("etserver_wal_fsync_seconds_count"),
			"wal_bytes":          delta("etserver_wal_bytes"),
			"compactions":        delta("etserver_store_compactions_total"),
			"rejected":           delta("etserver_submissions_rejected_total"),
			"cg_iters":           delta("etherm_cg_iterations_sum"),
			"query_server_sum":   delta("etherm_surrogate_query_seconds_sum"),
			"query_server_count": delta("etherm_surrogate_query_seconds_count"),
		})
	}
	return ph, nil
}

// scrape reads /metrics and sums the samples of each metric name across
// label sets.
func scrape(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	return out, sc.Err()
}

// directModel builds the served surrogate in process, from the same spec,
// the way the server builds it.
func (w *servedMix) directModel() (*surrogate.Model, error) {
	if w.direct != nil {
		return w.direct, nil
	}
	spec := surrogateSpec()
	sc, err := apiconv.ScenarioToInternal(&spec.Scenario)
	if err != nil {
		return nil, err
	}
	m, err := scenario.BuildSurrogate(context.Background(), scenario.NewCache(), sc, spec.EffectiveLevel(), spec.Order)
	if err != nil {
		return nil, err
	}
	w.direct = m
	return m, nil
}

// check compares every job result with a direct scenario.Engine run of the
// same batch, and every query's first answer with a direct Model.Answer.
func (w *servedMix) check() []string {
	fails := w.fails
	ctx := context.Background()
	eng := scenario.NewEngine()
	for d, got := range w.results {
		b, err := apiconv.BatchToInternal(jobBatch(d))
		if err != nil {
			return append(fails, err.Error())
		}
		res, err := eng.Run(ctx, b)
		if err != nil {
			return append(fails, fmt.Sprintf("direct run of %+v: %v", d, err))
		}
		ar, err := apiconv.BatchResultToAPI(res)
		if err != nil {
			return append(fails, err.Error())
		}
		want, err := normalizedResult(ar)
		if err != nil {
			return append(fails, err.Error())
		}
		if string(got) != string(want) {
			fails = append(fails, fmt.Sprintf("job %+v: served result differs from a direct engine run", d))
		}
	}
	m, err := w.directModel()
	if err != nil {
		return append(fails, fmt.Sprintf("direct surrogate build: %v", err))
	}
	if m.ID != w.sg.ID {
		fails = append(fails, fmt.Sprintf("direct surrogate %s, served %s", m.ID, w.sg.ID))
	}
	for k, got := range w.answers {
		want, err := directAnswer(m, &w.queries[k])
		if err != nil {
			return append(fails, err.Error())
		}
		if string(got) != string(want) {
			fails = append(fails, fmt.Sprintf("query %d: served answer differs from Model.Answer", k))
		}
	}
	return fails
}

func directAnswer(m *surrogate.Model, q *api.SurrogateQuery) ([]byte, error) {
	iq, err := apiconv.SurrogateQueryToInternal(q)
	if err != nil {
		return nil, err
	}
	ans, err := m.Answer(iq)
	if err != nil {
		return nil, err
	}
	wire, err := apiconv.SurrogateAnswerToAPI(ans)
	if err != nil {
		return nil, err
	}
	return json.Marshal(wire)
}

func (w *servedMix) layers(tr *tracer, traced phase) (map[string]float64, error) {
	m, err := w.directModel()
	if err != nil {
		return nil, err
	}
	qs := make([]surrogate.Query, len(w.queries))
	for k := range w.queries {
		if qs[k], err = apiconv.SurrogateQueryToInternal(&w.queries[k]); err != nil {
			return nil, err
		}
	}
	var answerErr error
	k := 0
	probe(tr, "surrogate.answer", nil, func() {
		if _, err := m.Answer(qs[k%len(qs)]); err != nil && answerErr == nil {
			answerErr = err
		}
		k++
	})
	if answerErr != nil {
		return nil, answerErr
	}
	win := func(key string) float64 { return median(tr.counter("server.window", key)) }
	job := func(key string) float64 { return median(tr.counter("client.job", key)) }
	jobs := win("jobs")
	out := map[string]float64{
		"surrogate.build_s":          median(w.buildS),
		"surrogate.answer_us":        median(tr.perCall("surrogate.answer", time.Microsecond)),
		"server.submit_ms":           job("submit_ms"),
		"server.queue_ms":            job("queue_ms"),
		"server.run_ms":              job("run_ms"),
		"server.notify_ms":           job("notify_ms"),
		"server.rejected_429":        win("rejected"),
		"server.cg_iters_per_job":    win("cg_iters") / jobs,
		"server.query_rtt_us":        win("query_p50_us"),
		"server.query_http_us":       win("query_p50_us") - 1e6*win("query_server_sum")/win("query_server_count"),
		"jobstore.fsync_ms":          1e3 * win("fsync_sum") / win("fsync_count"),
		"jobstore.fsyncs_per_job":    win("fsync_count") / jobs,
		"jobstore.wal_bytes_per_job": win("wal_bytes") / jobs,
	}
	if win("compactions") != 0 {
		// A compaction truncated the WAL mid-window; its size delta says
		// nothing about bytes per job.
		return nil, errors.New("WAL compacted during the traced window")
	}
	return out, nil
}

func (w *servedMix) close() {
	if w.inst != nil {
		w.inst.stop()
	}
}
