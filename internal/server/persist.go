package server

import (
	"encoding/json"
	"sort"
	"time"

	"etherm/api"
	"etherm/internal/core"
	"etherm/internal/jobstore"
	"etherm/internal/metrics"
	"etherm/internal/panicsafe"
	"etherm/internal/scenario"
)

// Durability of batch jobs. Every transition of an api.Job is mirrored
// into the job store as one storedJob record; the raw batch JSON rides
// along while the job is non-terminal, so recovery can requeue an
// interrupted job and re-run it from scratch — the engine is
// deterministic, so the re-run converges on the result the crash stole.
// Terminal records drop the batch payload and keep the result.

// storedJob is the persisted form of one batch job.
type storedJob struct {
	Job *api.Job `json:"job"`
	// Batch is the submitted batch document, present only while the job
	// can still be (re)run.
	Batch json.RawMessage `json:"batch,omitempty"`
}

func (s *Server) logErr(format string, args ...any) {
	if s.logf != nil {
		s.logf(format, args...)
	}
}

// putLocked is the one record write of batch jobs and surrogates:
// marshal, Put, the degraded latch and a log line on failure. Every
// outcome feeds the latch: a failed write latches degraded mode
// (submissions are shed with 503 until the store recovers), a successful
// one clears it. Callers after the ack treat a failure as non-fatal (the
// next transition retries on the in-memory state). Caller holds s.mu.
func (s *Server) putLocked(kind, id string, rec any) error {
	data, err := json.Marshal(rec)
	if err != nil {
		s.logErr("server: persist %s %s: %v", kind, id, err)
		return err
	}
	if err := s.store.Put(kind, id, data, jobstore.Counters{Job: s.seq}); err != nil {
		s.mStoreErrs.Inc()
		if s.degraded.CompareAndSwap(false, true) {
			s.logErr("server: job store failing writes; shedding new submissions until a write succeeds")
		}
		s.logErr("server: persist %s %s: %v", kind, id, err)
		return err
	}
	if s.degraded.CompareAndSwap(true, false) {
		s.logErr("server: job store recovered; accepting submissions again")
	}
	return nil
}

// persistJobLocked writes the current record of one job. Caller holds
// s.mu.
func (s *Server) persistJobLocked(id string) {
	if j, ok := s.jobs[id]; ok {
		_ = s.putLocked(jobstore.KindJob, id, &storedJob{Job: j, Batch: s.batches[id]})
	}
}

// persistJob is persistJobLocked taking the lock.
func (s *Server) persistJob(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.persistJobLocked(id)
}

// recover rebuilds the job table from the store and requeues every job
// the previous process died with: non-terminal recovered jobs reset to
// queued (progress zeroed) and re-enter the runner queue, terminal ones
// come back with their results. Unreadable records are dropped.
func (s *Server) recover() {
	st := s.store.State()
	s.seq = max(s.seq, st.Counters.Job)

	type requeue struct {
		id    string
		batch *scenario.Batch
	}
	var pending []requeue
	recovered := 0
	for id, data := range st.Kinds[jobstore.KindJob] {
		var sj storedJob
		if err := json.Unmarshal(data, &sj); err != nil || sj.Job == nil {
			s.logErr("server: dropping unreadable job record %s: %v", id, err)
			_ = s.store.Delete(jobstore.KindJob, id, jobstore.Counters{})
			continue
		}
		j := sj.Job
		s.jobs[id] = j
		s.order = append(s.order, id)
		recovered++
		if j.Status.Finished() {
			continue
		}
		// Interrupted mid-flight: requeue from the retained batch document.
		j.Status = api.JobQueued
		j.StartedAt = nil
		j.FinishedAt = nil
		j.Error = ""
		j.Progress = api.JobProgress{ScenariosTotal: j.Progress.ScenariosTotal}
		batch, err := scenario.ParseBatch(sj.Batch)
		if err != nil {
			now := time.Now().UTC()
			j.Status = api.JobFailed
			j.FinishedAt = &now
			j.Error = "lost across restart: batch document unrecoverable: " + err.Error()
			s.persistJobLocked(id)
			continue
		}
		s.batches[id] = sj.Batch
		pending = append(pending, requeue{id: id, batch: batch})
	}
	// The store is a map; submission order lives in the sequence-numbered
	// IDs ("job-%06d" sorts lexically in submission order).
	sort.Strings(s.order)
	sort.Slice(pending, func(i, k int) bool { return pending[i].id < pending[k].id })
	if recovered > 0 {
		s.logErr("server: recovered %d job(s) (%d requeued), sequence job=%d", recovered, len(pending), s.seq)
	}
	for _, rq := range pending {
		s.persistJobLocked(rq.id)
		s.startJobLocked(rq.id, rq.batch)
	}
}

// queuedLocked counts jobs waiting for a runner slot. Caller holds s.mu.
func (s *Server) queuedLocked() int {
	n := 0
	for _, j := range s.jobs {
		if j.Status == api.JobQueued {
			n++
		}
	}
	return n
}

// jobStates are the dimension values of the jobs-by-state gauges.
var jobStates = []api.JobStatus{api.JobQueued, api.JobRunning, api.JobDone, api.JobFailed, api.JobCanceled}

// initMetrics registers the server's metric families. GaugeFuncs sample
// live state at scrape time; counters and the fsync histogram are bumped
// on the hot paths they describe.
func (s *Server) initMetrics() {
	for _, state := range jobStates {
		state := state
		s.reg.NewGaugeFunc("etserver_jobs", "Batch jobs by state.",
			metrics.Labels{"state": string(state)}, func() float64 {
				s.mu.Lock()
				defer s.mu.Unlock()
				n := 0
				for _, j := range s.jobs {
					if j.Status == state {
						n++
					}
				}
				return float64(n)
			})
	}
	s.reg.NewGaugeFunc("etserver_fleet_jobs", "Fleet jobs currently known to the coordinator.",
		nil, func() float64 { return float64(len(s.coord.Jobs())) })
	s.reg.NewGaugeFunc("etserver_sse_watchers", "Open SSE event streams.",
		nil, func() float64 { return float64(s.hub.watcherCount()) })
	s.reg.NewGaugeFunc("etserver_queue_depth", "Jobs waiting for a runner slot.",
		nil, func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.queuedLocked())
		})
	s.reg.NewGaugeFunc("etserver_queue_capacity", "Backpressure bound on waiting jobs (0 = unbounded).",
		nil, func() float64 { return float64(s.maxQueued) })
	s.reg.NewGaugeFunc("etserver_runners_busy", "Occupied batch runner slots.",
		nil, func() float64 { return float64(len(s.sem)) })
	s.reg.NewGaugeFunc("etserver_runner_capacity", "Total batch runner slots.",
		nil, func() float64 { return float64(cap(s.sem)) })
	s.reg.NewGaugeFunc("etserver_cache_hits_total", "Assembly cache hits.",
		nil, func() float64 { return float64(s.cache.Hits()) })
	s.reg.NewGaugeFunc("etserver_cache_misses_total", "Assembly cache misses.",
		nil, func() float64 { return float64(s.cache.Misses()) })
	s.reg.NewGaugeFunc("etserver_draining", "1 while the server drains for graceful shutdown.",
		nil, func() float64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})
	s.reg.NewGaugeFunc("etserver_degraded", "1 while job-store writes are failing and submissions are shed.",
		nil, func() float64 {
			if s.degraded.Load() {
				return 1
			}
			return 0
		})
	s.reg.NewGaugeFunc("etherm_panics_recovered_total",
		"Panics recovered into structured failures (process-wide).",
		nil, func() float64 { return float64(panicsafe.Count()) })
	s.mSubmitted = s.reg.NewCounter("etserver_submissions_total", "Accepted job submissions.", nil)
	s.mRejected = s.reg.NewCounter("etserver_submissions_rejected_total",
		"Submissions rejected by backpressure (429) or shed while degraded (503).", nil)
	s.mExpiries = s.reg.NewCounter("etserver_lease_expiries_total",
		"Fleet shard leases reclaimed from silent workers.", nil)
	s.mFsync = s.reg.NewHistogram("etserver_wal_fsync_seconds",
		"WAL fsync latency of the durable job store.", nil, nil)
	s.mStoreErrs = s.reg.NewCounter("etserver_store_write_failures_total",
		"Failed job-store writes (each one latches degraded mode until a write succeeds).", nil)

	// Surrogate serving telemetry: query outcomes (a miss is an unknown or
	// not-ready surrogate, out_of_domain a what-if beyond the trained
	// region — both redirect to the FEM path), end-to-end query latency,
	// and the number of ready models serving.
	s.mSurrQueries = make(map[string]*metrics.Counter, 3)
	for _, res := range []string{"hit", "miss", "out_of_domain"} {
		s.mSurrQueries[res] = s.reg.NewCounter("etherm_surrogate_queries_total",
			"Surrogate queries by outcome.", metrics.Labels{"result": res})
	}
	s.mSurrLatency = s.reg.NewHistogram("etherm_surrogate_query_seconds",
		"Surrogate query latency (request to answer).", nil,
		[]float64{1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 1e-2, 1e-1})
	s.reg.NewGaugeFunc("etherm_surrogate_cache_entries",
		"Ready surrogate models serving queries.",
		nil, func() float64 { return float64(s.readySurrogates()) })

	// CG-iteration telemetry: the core simulator reports every inner linear
	// solve through its process-wide observer; the histogram tracks the
	// iteration distribution per operator and the counters attribute solves
	// to the preconditioner tier that served them. Under the factorization
	// mode electric solves count as ic0 and thermal ones as mic0 (ic0 when
	// precond_omega opts out); tier="jacobi" there means a factorization
	// build failed.
	cgHist := make(map[string]*metrics.Histogram, 2)
	cgSolves := make(map[string]*metrics.Counter, 8)
	cgBounds := []float64{5, 10, 15, 20, 25, 35, 50, 75, 100, 150, 250, 500, 1000}
	for _, op := range []string{"electric", "thermal"} {
		cgHist[op] = s.reg.NewHistogram("etherm_cg_iterations",
			"CG iterations per linear solve.", metrics.Labels{"op": op}, cgBounds)
		for _, tier := range []string{"mic0", "ic0", "jacobi", "none"} {
			cgSolves[op+"/"+tier] = s.reg.NewCounter("etherm_cg_solves_total",
				"Linear solves by preconditioner tier.", metrics.Labels{"op": op, "tier": tier})
		}
	}
	core.SetSolveObserver(func(op, tier string, iters int) {
		if h, ok := cgHist[op]; ok {
			h.Observe(float64(iters))
		}
		if c, ok := cgSolves[op+"/"+tier]; ok {
			c.Inc()
		}
	})
}

// initStoreMetrics registers gauges over a FileStore's Stats.
func (s *Server) initStoreMetrics(fs *jobstore.FileStore) {
	s.reg.NewGaugeFunc("etserver_wal_bytes", "Live WAL size of the job store.",
		nil, func() float64 { return float64(fs.Stats().WALBytes) })
	s.reg.NewGaugeFunc("etserver_wal_records", "Records in the live WAL.",
		nil, func() float64 { return float64(fs.Stats().WALRecords) })
	s.reg.NewGaugeFunc("etserver_store_generation", "Snapshot generation of the job store.",
		nil, func() float64 { return float64(fs.Stats().Gen) })
	s.reg.NewGaugeFunc("etserver_store_compactions_total", "Snapshot compactions since start.",
		nil, func() float64 { return float64(fs.Stats().Compactions) })
}
