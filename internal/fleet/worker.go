package fleet

import (
	"context"
	"errors"
	"fmt"
	"time"

	"etherm/api"
	"etherm/client"
	"etherm/internal/apiconv"
	"etherm/internal/panicsafe"
	"etherm/internal/scenario"
	"etherm/internal/uq"
)

// runShardSafe isolates a panicking shard run: the panic becomes a
// failed-shard report (with the captured stack in the failure reason)
// instead of killing the worker process, so the fleet loses one attempt,
// not one member — the coordinator re-leases the shard elsewhere.
func runShardSafe(ctx context.Context, cache *scenario.AssemblyCache, s scenario.Scenario, shard, workers int) (res *uq.ShardResult, err error) {
	defer panicsafe.Recover(fmt.Sprintf("fleet: shard %d run", shard), &err)
	return scenario.RunShard(ctx, cache, s, shard, workers)
}

// Worker is the pull loop of an etworker process: lease a shard from the
// coordinator, run it through the scenario engine's shard entry point while
// heartbeating the lease, and post back the serialized result. All wire
// traffic goes through the public Go SDK (package client) — the worker
// carries no HTTP plumbing of its own. When the heartbeat reports the
// lease lost (the coordinator presumed this worker dead and re-leased the
// shard), the shard run is canceled and its result discarded — the
// re-leased copy is bit-identical, so exactly-once merging is preserved by
// the coordinator's stale-lease rejection.
type Worker struct {
	// Client talks to the coordinator's etserver (required), e.g.
	// client.New("http://host:8080").
	Client *client.Client
	// ID names the worker in leases (for progress display and debugging).
	ID string
	// SampleWorkers bounds parallel model evaluations inside a shard
	// (0 = GOMAXPROCS).
	SampleWorkers int
	// Poll is the idle re-poll interval when no work is available
	// (0 = DefaultPoll).
	Poll time.Duration
	// Cache is the worker's assembly cache (nil allocates a private one);
	// it stays warm across shards of the same geometry.
	Cache *scenario.AssemblyCache
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// DefaultPoll is the idle re-poll interval of a worker.
const DefaultPoll = 2 * time.Second

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

// RunOnce leases and runs at most one shard. It returns worked=false when
// the coordinator had no work.
func (w *Worker) RunOnce(ctx context.Context) (worked bool, err error) {
	a, ok, err := w.Client.Lease(ctx, w.ID)
	if err != nil || !ok {
		return false, err
	}
	w.logf("worker %s: leased shard %d of %s [%d samples]", w.ID, a.Shard, a.JobID, a.Plan.MaxSamples)

	// Heartbeat in the background; cancel the shard when the lease is lost.
	shardCtx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	interval := a.LeaseTTL / 3
	if interval <= 0 {
		interval = time.Second
	}
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-shardCtx.Done():
				return
			case <-t.C:
				if err := w.Client.Heartbeat(shardCtx, a.LeaseID); api.IsLeaseLost(err) {
					cancel(ErrLeaseLost)
					return
				}
			}
		}
	}()

	cache := w.Cache
	if cache == nil {
		cache = scenario.NewCache()
		w.Cache = cache
	}
	res, runErr := runShardSafe(shardCtx, cache, a.Scenario, a.Shard, w.SampleWorkers)
	cancel(nil)
	<-hbDone
	if errors.Is(context.Cause(shardCtx), ErrLeaseLost) {
		w.logf("worker %s: lease on shard %d of %s lost; discarding partial work", w.ID, a.Shard, a.JobID)
		return true, nil // the shard was re-leased elsewhere; not a worker error
	}
	if runErr != nil {
		if ferr := w.failShard(ctx, a, runErr); ferr != nil {
			return true, ferr
		}
		return true, nil
	}
	wireRes, err := apiconv.ShardResultToAPI(res)
	if err != nil {
		if ferr := w.failShard(ctx, a, err); ferr != nil {
			return true, ferr
		}
		return true, nil
	}
	if err := w.Client.PostShardResult(ctx, a.LeaseID, wireRes); err != nil {
		if api.IsLeaseLost(err) {
			w.logf("worker %s: result for shard %d of %s arrived after lease expiry; discarded", w.ID, a.Shard, a.JobID)
			return true, nil
		}
		return true, err
	}
	w.logf("worker %s: completed shard %d of %s (%d samples, %d failures)", w.ID, a.Shard, a.JobID, res.Evaluated, res.Failures)
	return true, nil
}

// failShard reports a failed shard attempt; a lost lease is not an error
// (the shard was re-leased elsewhere).
func (w *Worker) failShard(ctx context.Context, a *api.FleetLease, cause error) error {
	w.logf("worker %s: shard %d of %s failed: %v", w.ID, a.Shard, a.JobID, cause)
	if err := w.Client.FailShard(ctx, a.LeaseID, cause.Error()); err != nil && !api.IsLeaseLost(err) {
		return err
	}
	return nil
}

// Run pulls and executes shards until the context is canceled, sleeping
// Poll between idle polls. Transient errors (coordinator restarts, network
// blips) are logged and retried.
func (w *Worker) Run(ctx context.Context) error {
	if w.Client == nil {
		return fmt.Errorf("fleet: worker needs a coordinator client")
	}
	poll := w.Poll
	if poll <= 0 {
		poll = DefaultPoll
	}
	for {
		worked, err := w.RunOnce(ctx)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if err != nil {
			w.logf("worker %s: %v", w.ID, err)
		}
		if worked {
			continue
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(poll):
		}
	}
}
