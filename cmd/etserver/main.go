// Command etserver serves the batch scenario engine over HTTP: clients
// submit declarative scenario batches as asynchronous jobs, stream their
// progress over server-sent events, and fetch the structured results
// manifest. One assembly cache is shared across all jobs, so repeated
// studies on the same package geometry skip mesh construction and FIT
// assembly entirely.
//
// The wire contract is the versioned API of package api (negotiated via
// the ET-API-Version header): request/response bodies are api types,
// every error — including routing errors (404/405) — is an RFC-9457
// problem+json envelope, and package client is the matching Go SDK.
//
// API (v1):
//
//	POST   /v1/jobs               submit an api.Batch (JSON) → 202 + api.Job
//	GET    /v1/jobs               list jobs, newest first, paginated
//	                              (?limit=, ?cursor=; no result payloads)
//	GET    /v1/jobs/{id}          job status, progress and, when done, results
//	                              (fleet job IDs show per-shard progress)
//	GET    /v1/jobs/{id}/events   SSE progress stream (api.JobEvent frames):
//	                              scenario completions, sample counts, shard
//	                              progress; closes after the terminal status
//	DELETE /v1/jobs/{id}          cancel a queued or running job → "canceled"
//	GET    /v1/scenarios/presets  the bundled paper-grounded scenario suite
//	GET    /healthz               liveness, queue depth, watcher and cache stats
//	GET    /metrics               Prometheus text exposition (jobs by state,
//	                              queue depth, SSE watchers, lease expiries,
//	                              WAL fsync latency, …)
//
// Fleet coordinator (sharded campaigns served by etworker processes):
//
//	POST /v1/fleet/jobs           submit one sharded scenario → 202 + shard plan
//	GET  /v1/fleet/jobs[/{id}]    fleet jobs with per-shard lease state
//	POST /v1/fleet/lease          etworker: request a shard assignment
//	POST /v1/fleet/heartbeat      etworker: keep a lease alive
//	POST /v1/fleet/result         etworker: post a completed shard
//	POST /v1/fleet/fail           etworker: report a failed shard attempt
//
// Usage:
//
//	etserver [-addr :8080] [-max-jobs 2] [-history 128]
//	         [-lease-ttl 30s] [-fleet-batches]
//	         [-data DIR] [-max-queued 0] [-drain-timeout 30s]
//	         [-pprof 127.0.0.1:6060]
//
// -pprof serves net/http/pprof on a dedicated listener and mux, kept
// separate from the API address so profiling endpoints are never exposed
// to API clients; point it at loopback and profile a live server with
// `go tool pprof http://127.0.0.1:6060/debug/pprof/profile`.
//
// With -data DIR the server persists every job, lease and fleet shard
// transition to an fsync'd write-ahead log under DIR and recovers the
// full control-plane state on restart — including after kill -9:
// finished jobs keep their results, interrupted jobs are requeued, and
// fleet campaigns resume from their completed shards. -max-queued bounds
// the submission queue; beyond it, POST /v1/jobs returns 429 with a
// Retry-After hint (the SDK retries automatically).
//
// SIGTERM or SIGINT triggers a graceful drain instead of an abrupt exit:
// new submissions are rejected with 503 + Retry-After (the SDK retries
// them, ideally against another replica), queued and running jobs get up
// to -drain-timeout to finish (after which they are canceled with their
// terminal records persisted), every SSE watcher receives an explicit
// "shutdown" event before its stream closes, the store flushes, and the
// process exits 0. A second signal during the drain forces immediate
// exit. Chaos fault injection (package faultinject) is enabled by the
// ETHERM_CHAOS environment variable, e.g.
// ETHERM_CHAOS="seed=42,store-fail=0.05" — off by default.
//
// Quickstart against a running server:
//
//	curl -s localhost:8080/v1/scenarios/presets > batch.json
//	curl -s -X POST --data-binary @batch.json localhost:8080/v1/jobs
//	curl -s localhost:8080/v1/jobs/job-000001
//	curl -sN localhost:8080/v1/jobs/job-000001/events   # live progress (SSE)
//	curl -s -X DELETE localhost:8080/v1/jobs/job-000001 # cancel mid-run
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"etherm/internal/faultinject"
	"etherm/internal/fleet"
	"etherm/internal/jobstore"
	"etherm/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		maxJobs      = flag.Int("max-jobs", 2, "batch jobs evaluated concurrently")
		history      = flag.Int("history", server.DefaultMaxHistory, "finished jobs retained before oldest-first eviction (batch and fleet jobs each up to this cap)")
		leaseTTL     = flag.Duration("lease-ttl", fleet.DefaultLeaseTTL, "shard lease TTL before a silent etworker is presumed dead")
		fleetBatches = flag.Bool("fleet-batches", false, "run sharded scenarios of batch jobs on the etworker fleet instead of locally")
		dataDir      = flag.String("data", "", "persist jobs, leases and shard results under this directory (empty = in-memory)")
		maxQueued    = flag.Int("max-queued", 0, "reject submissions (429) beyond this many queued jobs (0 = unbounded)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "on SIGTERM/SIGINT: how long running jobs may finish before being canceled")
		pprofAddr    = flag.String("pprof", "", "serve net/http/pprof on this address (empty = disabled); keep it loopback-only")
	)
	flag.Parse()

	// The profiler gets its own listener and mux: registering pprof on the
	// API mux would leak goroutine dumps and CPU profiles to any API client,
	// and the blank net/http/pprof import only targets http.DefaultServeMux,
	// which the API server deliberately does not use.
	if *pprofAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			psrv := &http.Server{Addr: *pprofAddr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
			log.Printf("etserver: pprof listening on %s", *pprofAddr)
			if err := psrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("etserver: pprof listener: %v", err)
			}
		}()
	}

	// Chaos fault injection, off unless ETHERM_CHAOS is set (replayable
	// from the seed it names; see internal/faultinject).
	inj, err := faultinject.FromEnv(os.Getenv)
	if err != nil {
		log.Fatalf("etserver: %v", err)
	}

	cfg := server.Config{
		MaxConcurrent: *maxJobs,
		MaxHistory:    *history,
		LeaseTTL:      *leaseTTL,
		MaxQueued:     *maxQueued,
		DataDir:       *dataDir,
		FleetBatches:  *fleetBatches,
		Logf:          log.Printf,
	}
	if inj != nil {
		// Interpose the fault-injecting store wrapper between the server
		// and whichever store the flags select.
		var base jobstore.Store = jobstore.NewMem()
		if *dataDir != "" {
			fs, err := jobstore.Open(*dataDir, jobstore.Options{Logf: log.Printf})
			if err != nil {
				log.Fatalf("etserver: %v", err)
			}
			base = fs
		}
		cfg.DataDir = ""
		cfg.Store = inj.WrapStore(base)
		log.Printf("etserver: CHAOS fault injection active (%s)", inj.Spec())
	}

	srv, err := server.New(cfg)
	if err != nil {
		log.Fatalf("etserver: %v", err)
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	durability := "in-memory"
	if *dataDir != "" {
		durability = "persistent data in " + *dataDir
	}
	fmt.Printf("etserver: listening on %s (max %d concurrent jobs, %s)\n", *addr, *maxJobs, durability)

	// Serve until a shutdown signal, then drain instead of dying mid-job:
	// stop accepting submissions, let runners finish (bounded by
	// -drain-timeout), end every SSE stream with an explicit shutdown
	// event, close the listener, flush the store, exit clean.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("etserver: %v", err)
		}
	case <-ctx.Done():
		stop() // a second signal now kills the process the default way
		log.Printf("etserver: shutdown signal; draining (timeout %s)", *drainTimeout)
		dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		if err := srv.Drain(dctx); err != nil {
			log.Printf("etserver: %v", err)
		}
		if err := httpSrv.Shutdown(dctx); err != nil {
			log.Printf("etserver: listener shutdown: %v", err)
		}
		cancel()
	}
	if err := srv.Close(); err != nil {
		log.Fatalf("etserver: store close: %v", err)
	}
	log.Printf("etserver: drained, exiting clean")
}
