package server

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"etherm/api"
	"etherm/internal/apiconv"
	"etherm/internal/fleet"
	"etherm/internal/jobstore"
	"etherm/internal/metrics"
	"etherm/internal/panicsafe"
	"etherm/internal/scenario"
)

// Server is the HTTP job service: an in-memory store of api.Job records, a
// bounded number of concurrent batch runners, one shared assembly cache
// that stays warm across jobs, and an event hub broadcasting job progress
// over server-sent events. Every network touchpoint speaks the versioned
// wire contract of package api: request and response bodies are api types,
// errors are RFC-9457 problem+json envelopes (api.Error), the route table
// is api.Routes, and the API version is negotiated via api.VersionHeader.
//
// Every job runs under its own cancellable context so clients can abort
// queued or running work with DELETE /v1/jobs/{id}. Finished jobs beyond
// the retention cap are evicted oldest-first (queued and running jobs are
// never evicted), so a long-running server does not accumulate result
// payloads without bound.
type Server struct {
	cache      *scenario.AssemblyCache
	coord      *fleet.Coordinator
	sem        chan struct{}
	maxBody    int64
	maxHistory int
	maxQueued  int

	// store absorbs every job transition; jobstore.Mem by default, a
	// durable FileStore when the server runs with a data directory.
	store      jobstore.Store
	persistent bool
	logf       func(format string, args ...any)

	// fleetBatches routes the sharded scenarios of batch jobs through the
	// fleet coordinator instead of running them locally — the job then
	// progresses only while etworkers are connected.
	fleetBatches bool

	mu      sync.Mutex
	jobs    map[string]*api.Job
	batches map[string][]byte             // raw batch JSON of non-terminal jobs (requeued on recovery)
	cancels map[string]context.CancelFunc // pending/running jobs and builds only
	order   []string                      // job IDs in submission order
	seq     int

	// surr tracks surrogate builds (content-addressed, so no counter),
	// each with its model once ready.
	surr      map[string]*surrogateRecord
	surrOrder []string

	// draining flips on Drain: submissions are rejected with 503 +
	// Retry-After while reads and running jobs continue to completion.
	draining atomic.Bool
	// degraded latches on a failed store write and clears on the next
	// successful one; while set, /metrics exposes it and submissions are
	// shed by their own failed persist (persist-before-ack).
	degraded atomic.Bool
	// runners tracks live runner goroutines so Drain can await them.
	runners sync.WaitGroup

	hub *eventHub
	mux *http.ServeMux

	reg        *metrics.Registry
	mSubmitted *metrics.Counter
	mRejected  *metrics.Counter
	mExpiries  *metrics.Counter
	mFsync     *metrics.Histogram
	mStoreErrs *metrics.Counter

	mSurrQueries map[string]*metrics.Counter // by result: hit|miss|out_of_domain
	mSurrLatency *metrics.Histogram
}

// DefaultMaxHistory is the default finished-job retention cap.
const DefaultMaxHistory = 128

// Pagination bounds of GET /v1/jobs.
const (
	// DefaultListLimit is the page size when the client passes none.
	DefaultListLimit = 50
	// MaxListLimit caps client-requested page sizes.
	MaxListLimit = 500
)

// Config declares a server. The zero value is a usable in-memory server
// with one runner slot and default caps.
type Config struct {
	// MaxConcurrent bounds parallel batch runners (minimum 1).
	MaxConcurrent int
	// MaxHistory caps retained finished batch jobs and, separately,
	// finished fleet jobs (0 = DefaultMaxHistory).
	MaxHistory int
	// LeaseTTL is the fleet shard-lease TTL (0 = fleet.DefaultLeaseTTL).
	LeaseTTL time.Duration
	// MaxQueued bounds jobs waiting for a runner slot; submissions beyond
	// it are rejected with 429 + Retry-After (0 = unbounded).
	MaxQueued int
	// DataDir, when set, opens a durable jobstore.FileStore there: jobs,
	// leases and fleet shard payloads survive restarts (and kill -9).
	DataDir string
	// Store overrides the job store directly (tests); ignored when
	// DataDir is set.
	Store jobstore.Store
	// FleetBatches routes sharded scenarios of batch jobs through the
	// fleet coordinator.
	FleetBatches bool
	// Logf receives recovery and persistence notes (nil = silent).
	Logf func(format string, args ...any)
}

// New builds a server from a Config, recovering persisted state (and
// requeueing interrupted jobs) when the store holds any.
func New(cfg Config) (*Server, error) {
	if cfg.MaxConcurrent < 1 {
		cfg.MaxConcurrent = 1
	}
	if cfg.MaxHistory == 0 {
		cfg.MaxHistory = DefaultMaxHistory
	}
	if cfg.MaxHistory < 1 {
		cfg.MaxHistory = 1
	}
	cache := scenario.NewCache()
	s := &Server{
		cache:        cache,
		coord:        fleet.NewCoordinator(cache, cfg.LeaseTTL),
		sem:          make(chan struct{}, cfg.MaxConcurrent),
		maxBody:      4 << 20,
		maxHistory:   cfg.MaxHistory,
		maxQueued:    cfg.MaxQueued,
		logf:         cfg.Logf,
		fleetBatches: cfg.FleetBatches,
		jobs:         make(map[string]*api.Job),
		batches:      make(map[string][]byte),
		cancels:      make(map[string]context.CancelFunc),
		surr:         make(map[string]*surrogateRecord),
		hub:          newEventHub(),
		mux:          http.NewServeMux(),
		reg:          metrics.NewRegistry(),
	}
	s.initMetrics()

	switch {
	case cfg.DataDir != "":
		fs, err := jobstore.Open(cfg.DataDir, jobstore.Options{
			OnFsync: func(d time.Duration) { s.mFsync.Observe(d.Seconds()) },
			Logf:    cfg.Logf,
		})
		if err != nil {
			return nil, err
		}
		s.store = fs
		s.persistent = true
		s.initStoreMetrics(fs)
	case cfg.Store != nil:
		s.store = cfg.Store
		s.persistent = true
		if fs, ok := cfg.Store.(*jobstore.FileStore); ok {
			s.initStoreMetrics(fs)
		}
	default:
		s.store = jobstore.NewMem()
	}

	// One handler per route of the public contract. A test asserts this
	// map covers api.Routes exactly, so the registered surface, the SDK
	// and openapi.yaml cannot drift apart.
	handlers := map[string]http.HandlerFunc{
		"POST /v1/jobs":             s.handleSubmit,
		"GET /v1/jobs":              s.handleList,
		"GET /v1/jobs/{id}":         s.handleGet,
		"DELETE /v1/jobs/{id}":      s.handleCancel,
		"GET /v1/jobs/{id}/events":  s.handleEvents,
		"GET /v1/scenarios/presets": s.handlePresets,
		"GET /healthz":              s.handleHealth,
		"GET /metrics":              s.reg.Handler().ServeHTTP,

		"POST /v1/surrogates":            s.handleSurrogateBuild,
		"GET /v1/surrogates":             s.handleSurrogateList,
		"GET /v1/surrogates/{id}":        s.handleSurrogateGet,
		"POST /v1/surrogates/{id}/query": s.handleSurrogateQuery,
	}
	for pattern, h := range handlers {
		s.mux.HandleFunc(pattern, h)
	}
	// The fleet coordinator: etworkers lease shards of sharded scenarios
	// from these endpoints; clients submit sharded campaign jobs to
	// POST /v1/fleet/jobs and read shard progress from GET /v1/jobs/{id}
	// (which falls through to fleet jobs) or GET /v1/fleet/jobs/{id}.
	s.coord.Register(s.mux, api.FleetPrefix)
	s.coord.OnLeaseExpiry = s.mExpiries.Inc
	s.coord.MaxHistory = cfg.MaxHistory
	s.coord.OnEvent = func(ev api.JobEvent) { s.hub.publish(ev.JobID, ev) }

	// Recovery: replay the store into the job table (requeueing jobs the
	// last process died with), the surrogate table and the fleet
	// coordinator. An unreadable record of any kind is dropped and logged.
	s.recover()
	s.recoverSurrogates()
	s.coord.SetStore(s.store, cfg.Logf)
	return s, nil
}

// Close releases the job store (a durable store flushes its WAL). In-flight
// runner goroutines are not awaited: every transition they still make is
// persisted, which is exactly the crash-consistency path recovery handles.
func (s *Server) Close() error { return s.store.Close() }

// Registry exposes the server's metrics registry (load harnesses register
// their own series on it when embedding the server in-process).
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Coordinator exposes the fleet coordinator (batch jobs whose sharded
// scenarios should run on the fleet plug it into their engine).
func (s *Server) Coordinator() *fleet.Coordinator { return s.coord }

// Handler returns the HTTP handler (also used by httptest): the registered
// routes wrapped in version negotiation and uniform problem+json routing
// errors (404 for unknown paths, 405 with Allow for known paths hit with
// the wrong method).
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(api.VersionHeader, api.APIVersion)
		if err := api.CheckVersion(r.Header.Get(api.VersionHeader)); err != nil {
			api.WriteError(w, r, api.NewError(http.StatusBadRequest, api.CodeUnsupportedVersion, err.Error()))
			return
		}
		// A draining server sheds every submission — batch and fleet — at
		// the front door, before any handler state is touched, so the 503
		// carries the not-processed guarantee that makes it retryable.
		if s.draining.Load() && r.Method == http.MethodPost &&
			(r.URL.Path == "/v1/jobs" || r.URL.Path == api.FleetPrefix+"/jobs" ||
				r.URL.Path == api.SurrogatesPath) {
			e := api.NewError(http.StatusServiceUnavailable, api.CodeDraining,
				"server is draining for shutdown; resubmit to another replica or retry shortly")
			e.RetryAfterS = 2
			api.WriteError(w, r, e)
			return
		}
		// Probe the route table first: Handler only reports the match, the
		// dispatch below goes through ServeHTTP so path values are bound.
		_, pattern := s.mux.Handler(r)
		if pattern == "" {
			if allow := s.allowedMethods(r); len(allow) > 0 {
				w.Header().Set("Allow", strings.Join(allow, ", "))
				api.WriteError(w, r, api.Errorf(http.StatusMethodNotAllowed, api.CodeMethodNotAllowed,
					"method %s not allowed on %s (allowed: %s)", r.Method, r.URL.Path, strings.Join(allow, ", ")))
			} else {
				api.WriteError(w, r, api.Errorf(http.StatusNotFound, api.CodeNotFound,
					"no such route: %s", r.URL.Path))
			}
			return
		}
		s.mux.ServeHTTP(w, r)
	})
}

// allowedMethods probes the mux for methods that WOULD match the request
// path, powering method-aware 405 responses.
func (s *Server) allowedMethods(r *http.Request) []string {
	var allow []string
	for _, m := range []string{http.MethodGet, http.MethodPost, http.MethodDelete, http.MethodPut, http.MethodPatch} {
		if m == r.Method {
			continue
		}
		probe := r.Clone(r.Context())
		probe.Method = m
		if _, pattern := s.mux.Handler(probe); pattern != "" {
			allow = append(allow, m)
		}
	}
	return allow
}

// handleSubmit accepts an api.Batch as JSON, enqueues it and returns 202
// with the job description.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, ok := apiconv.ReadBody(w, r, s.maxBody, "scenario file")
	if !ok {
		return
	}
	// scenario.ParseBatch is the validation authority: a strict decode into
	// api.Batch (unknown fields rejected) plus the engine's deep Validate.
	batch, err := scenario.ParseBatch(body)
	if err != nil {
		api.WriteError(w, r, api.NewError(http.StatusUnprocessableEntity, api.CodeValidation, err.Error()))
		return
	}

	s.mu.Lock()
	// Backpressure: a full waiting queue rejects the submission before any
	// state is created, so a 429 is always safe to retry.
	if s.maxQueued > 0 && s.queuedLocked() >= s.maxQueued {
		s.mu.Unlock()
		s.mRejected.Inc()
		e := api.Errorf(http.StatusTooManyRequests, api.CodeOverloaded,
			"job queue is full (%d waiting); retry shortly", s.maxQueued)
		e.RetryAfterS = 1
		api.WriteError(w, r, e)
		return
	}
	s.seq++
	job := &api.Job{
		ID:          fmt.Sprintf("job-%06d", s.seq),
		Status:      api.JobQueued,
		BatchName:   batch.Name,
		SubmittedAt: time.Now().UTC(),
		Progress:    api.JobProgress{ScenariosTotal: len(batch.Scenarios)},
	}
	// Persist before acking: a 202 promises the job survives a crash, so a
	// failed store write must shed the submission, not accept it on
	// best-effort durability. The submission doubles as the store probe —
	// degraded mode self-heals on the first write that succeeds again.
	if err := s.putLocked(jobstore.KindJob, job.ID, &storedJob{Job: job, Batch: body}); err != nil {
		s.seq--
		s.mu.Unlock()
		s.shed(w, r, "submission", err)
		return
	}
	s.jobs[job.ID] = job
	s.batches[job.ID] = body
	s.order = append(s.order, job.ID)
	s.evictLocked()
	s.startJobLocked(job.ID, batch)
	snap := *job
	s.mu.Unlock()
	s.mSubmitted.Inc()

	w.Header().Set("Location", api.JobPath(job.ID))
	api.WriteJSON(w, http.StatusAccepted, &snap)
}

// shed answers a submission whose record the store failed to write with a
// retryable 503 degraded problem; nothing of it was kept.
func (s *Server) shed(w http.ResponseWriter, r *http.Request, what string, err error) {
	s.mRejected.Inc()
	e := api.Errorf(http.StatusServiceUnavailable, api.CodeDegraded,
		"job store is failing writes (%v); %s shed, retry shortly", err, what)
	e.RetryAfterS = 2
	api.WriteError(w, r, e)
}

// startLocked is the one launch of a batch job or surrogate build: it
// registers id's cancel handle and starts a runner goroutine that waits
// for a runner slot and calls run under the job's context, or calls
// canceled when the context ends first. Drain awaits the runner, and the
// cancel handle is released when it exits. Caller holds s.mu.
func (s *Server) startLocked(id string, run func(context.Context), canceled func()) {
	ctx, cancel := context.WithCancel(context.Background())
	s.cancels[id] = cancel
	s.runners.Add(1)
	go func() {
		defer s.runners.Done()
		defer s.release(id)
		select {
		case s.sem <- struct{}{}:
		case <-ctx.Done():
			canceled()
			return
		}
		defer func() { <-s.sem }()
		run(ctx)
	}()
}

// startJobLocked launches a queued batch job. Caller holds s.mu.
func (s *Server) startJobLocked(id string, batch *scenario.Batch) {
	s.startLocked(id, func(ctx context.Context) { s.runJob(ctx, id, batch) }, func() {
		s.finish(id, func(j *api.Job) {
			j.Status = api.JobCanceled
			j.Error = "canceled before start"
		})
	})
}

// runJob executes one batch on a runner slot, streaming scenario
// completions into the job's progress counters and the event hub. The
// job's context cancels the whole pipeline: a running batch aborts
// mid-batch (streaming scenarios stop mid-ensemble).
func (s *Server) runJob(ctx context.Context, id string, batch *scenario.Batch) {
	now := time.Now().UTC()
	s.update(id, func(j *api.Job) {
		j.Status = api.JobRunning
		j.StartedAt = &now
	})
	s.persistJob(id)
	s.publishStatus(id)

	eng := scenario.NewEngineWithCache(s.cache)
	if s.fleetBatches {
		eng.Sharder = s.coord
	}
	eng.OnEvent = func(ev scenario.Event) {
		switch ev.Phase {
		case scenario.PhaseDone, scenario.PhaseFailed:
			s.update(id, func(j *api.Job) {
				j.Progress.ScenariosDone++
				if ev.Phase == scenario.PhaseFailed {
					j.Progress.ScenariosFailed++
				}
			})
			s.persistJob(id)
			if j := s.snapshot(id); j != nil {
				s.hub.publish(id, api.JobEvent{
					Type: api.EventScenario, JobID: id,
					Scenario: ev.Scenario, Phase: string(ev.Phase),
					Progress: &j.Progress,
				})
			}
		case scenario.PhaseSample:
			s.hub.publish(id, api.JobEvent{
				Type: api.EventSample, JobID: id,
				Scenario: ev.Scenario, Done: ev.Done, Total: ev.Total,
			})
		case scenario.PhaseLevel:
			s.hub.publish(id, api.JobEvent{
				Type: api.EventLevel, JobID: id,
				Scenario: ev.Scenario, Done: ev.Done, Total: ev.Total,
				Level: ev.Level,
			})
		}
	}
	res, err := s.runEngine(ctx, eng, batch)
	s.finish(id, func(j *api.Job) {
		switch {
		case ctx.Err() != nil:
			j.Status = api.JobCanceled
			j.Error = "canceled by client"
			j.Result = res // partial results when the final scenario absorbed the cancel
		case err != nil:
			j.Status = api.JobFailed
			j.Error = err.Error()
		default:
			j.Status = api.JobDone
			j.Result = res
		}
	})
}

// runEngine runs the batch with the panic-isolation boundary of the job:
// the engine already contains per-scenario panics, so this catches only
// batch-level ones (assembly of shared state, result aggregation) —
// either way a panic fails the job, never the process.
func (s *Server) runEngine(ctx context.Context, eng *scenario.Engine, batch *scenario.Batch) (res *scenario.BatchResult, err error) {
	defer panicsafe.Recover("server: batch run", &err)
	return eng.Run(ctx, batch)
}

// Drain begins a graceful shutdown: submissions are rejected (503 +
// Retry-After) while queued and running jobs continue. When ctx expires
// before the runners finish, the remaining jobs are canceled (their
// terminal "canceled" records persist, so nothing is lost — a restarted
// server requeues nothing and clients see a clean terminal state). After
// the runners settle, every SSE watcher receives a terminal shutdown
// event so no stream is left dangling. Close (the store flush) remains
// the caller's last step.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.runners.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = fmt.Errorf("server: drain timeout: %w", ctx.Err())
		s.mu.Lock()
		cancels := make([]context.CancelFunc, 0, len(s.cancels))
		for _, c := range s.cancels {
			cancels = append(cancels, c)
		}
		s.mu.Unlock()
		for _, c := range cancels {
			c()
		}
		// Canceled runners unwind promptly (the engine checks its context
		// between scenarios and samples); bound the wait regardless.
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			err = fmt.Errorf("server: drain gave up on stuck runners: %w", ctx.Err())
		}
	}
	s.hub.shutdown()
	return err
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// finish stamps the completion time, applies the terminal transition,
// persists the terminal record (dropping the requeue batch payload) and
// publishes the terminal status event (closing watcher streams).
func (s *Server) finish(id string, f func(*api.Job)) {
	done := time.Now().UTC()
	s.mu.Lock()
	if j, ok := s.jobs[id]; ok {
		j.FinishedAt = &done
		f(j)
		delete(s.batches, id)
		s.persistJobLocked(id)
	}
	s.mu.Unlock()
	s.publishStatus(id)
}

// publishStatus broadcasts the job's current status snapshot to watchers.
func (s *Server) publishStatus(id string) {
	if j := s.snapshot(id); j != nil {
		s.hub.publish(id, statusEvent(j))
	}
}

// statusEvent renders a job snapshot as its SSE status event.
func statusEvent(j *api.Job) api.JobEvent {
	p := j.Progress
	return api.JobEvent{
		Type: api.EventStatus, JobID: j.ID, Status: j.Status,
		Progress: &p, Error: j.Error,
	}
}

// release drops the job's cancel handle once the runner goroutine exits.
func (s *Server) release(id string) {
	s.mu.Lock()
	cancel := s.cancels[id]
	delete(s.cancels, id)
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// handleCancel aborts a queued or running job. Fleet job IDs fall through
// to the coordinator, mirroring handleGet.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	var cancel context.CancelFunc
	var done bool
	if ok {
		done = j.Status.Finished()
		cancel = s.cancels[id]
	}
	s.mu.Unlock()
	if !ok {
		if _, isFleet := s.coord.Job(id); isFleet {
			if err := s.coord.Cancel(id); err != nil {
				api.WriteError(w, r, api.NewError(http.StatusConflict, api.CodeConflict, err.Error()))
				return
			}
			s.writeFleetJob(w, r, id)
			return
		}
		api.WriteError(w, r, api.Errorf(http.StatusNotFound, api.CodeNotFound, "no such job %s", id))
		return
	}
	if done {
		api.WriteError(w, r, api.Errorf(http.StatusConflict, api.CodeConflict, "job %s already finished", id))
		return
	}
	if cancel != nil {
		cancel()
	}
	api.WriteJSON(w, http.StatusAccepted, s.snapshot(id))
}

// writeFleetJob renders the coordinator's view of a fleet job (202).
func (s *Server) writeFleetJob(w http.ResponseWriter, r *http.Request, id string) {
	fv, ok := s.coord.Job(id)
	if !ok {
		api.WriteError(w, r, api.Errorf(http.StatusNotFound, api.CodeNotFound, "no such job %s", id))
		return
	}
	api.WriteJSON(w, http.StatusAccepted, fv)
}

// evictLocked drops the oldest finished jobs until at most maxHistory
// remain. Queued and running jobs are kept regardless, so the store can
// transiently exceed the cap while work is in flight. Caller holds s.mu.
func (s *Server) evictLocked() {
	if len(s.order) <= s.maxHistory {
		return
	}
	kept := s.order[:0]
	excess := len(s.order) - s.maxHistory
	for _, id := range s.order {
		j := s.jobs[id]
		if excess > 0 && j.Status.Finished() {
			delete(s.jobs, id)
			delete(s.batches, id)
			if err := s.store.Delete(jobstore.KindJob, id, jobstore.Counters{}); err != nil {
				s.logErr("server: evict %s: %v", id, err)
			}
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// update mutates a job under the store lock.
func (s *Server) update(id string, f func(*api.Job)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		f(j)
	}
}

// snapshot returns a deep-enough copy of a job for rendering without racing
// the runner goroutine. The result pointer is shared but immutable once set.
func (s *Server) snapshot(id string) *api.Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil
	}
	cp := *j
	return &cp
}

// handleGet returns one job by ID. Fleet job IDs ("fleet-…") fall through
// to the coordinator, so shard progress of a distributed campaign is
// readable from the same endpoint as batch jobs.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j := s.snapshot(id)
	if j == nil {
		if fv, ok := s.coord.Job(id); ok {
			api.WriteJSON(w, http.StatusOK, fv)
			return
		}
		api.WriteError(w, r, api.Errorf(http.StatusNotFound, api.CodeNotFound, "no such job %s", id))
		return
	}
	api.WriteJSON(w, http.StatusOK, j)
}

// jobSeq extracts the monotonic sequence number of a job ID ("job-000042"),
// the pagination key of the list endpoint. Cursors survive eviction of the
// cursor job because the key is ordered, not positional.
func jobSeq(id string) (int, bool) {
	num, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(num)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// handleList returns one page of jobs, newest first, without embedded
// result payloads (fetch an individual job for its manifest). ?limit=
// bounds the page size, ?cursor= (the next_cursor of the previous page)
// continues the walk toward older jobs.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	limit := DefaultListLimit
	if lv := r.URL.Query().Get("limit"); lv != "" {
		n, err := strconv.Atoi(lv)
		if err != nil || n < 1 {
			api.WriteError(w, r, api.Errorf(http.StatusBadRequest, api.CodeValidation,
				"limit %q is not a positive integer", lv))
			return
		}
		limit = min(n, MaxListLimit)
	}
	before := int(^uint(0) >> 1) // no cursor: start at the newest job
	if cv := r.URL.Query().Get("cursor"); cv != "" {
		n, ok := jobSeq(cv)
		if !ok {
			api.WriteError(w, r, api.Errorf(http.StatusBadRequest, api.CodeValidation,
				"cursor %q is not a job ID", cv))
			return
		}
		before = n
	}

	s.mu.Lock()
	out := api.JobList{Jobs: make([]*api.Job, 0, min(limit, len(s.order)))}
	for i := len(s.order) - 1; i >= 0; i-- {
		id := s.order[i]
		seq, ok := jobSeq(id)
		if !ok || seq >= before {
			continue
		}
		if len(out.Jobs) == limit {
			out.NextCursor = out.Jobs[limit-1].ID
			break
		}
		cp := *s.jobs[id]
		cp.Result = nil
		out.Jobs = append(out.Jobs, &cp)
	}
	s.mu.Unlock()
	api.WriteJSON(w, http.StatusOK, out)
}

// handlePresets serves the bundled scenario suite so clients can fetch,
// edit and resubmit it.
func (s *Server) handlePresets(w http.ResponseWriter, r *http.Request) {
	api.WriteJSON(w, http.StatusOK, scenario.Presets())
}

// handleHealth reports liveness plus cache statistics.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	n := len(s.jobs)
	queued := s.queuedLocked()
	s.mu.Unlock()
	api.WriteJSON(w, http.StatusOK, api.Health{
		Status: "ok", Jobs: n,
		FleetJobs:    len(s.coord.Jobs()),
		CacheEntries: s.cache.Len(),
		CacheHits:    s.cache.Hits(),
		CacheMisses:  s.cache.Misses(),
		QueuedJobs:   queued,
		MaxQueued:    s.maxQueued,
		Watchers:     int(s.hub.watcherCount()),
		Persistent:   s.persistent,
		Surrogates:   s.readySurrogates(),
	})
}
