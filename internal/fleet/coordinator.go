// Package fleet distributes sharded streaming campaigns across worker
// processes: a Coordinator plans a scenario's shards, leases them to
// workers over HTTP (lease + heartbeat + re-lease on worker death), merges
// posted shard results in shard order through uq.MergeShards, and finalizes
// the full ScenarioResult. A Worker is the matching pull loop that
// cmd/etworker wraps.
//
// Determinism carries through the wire: shard results are self-contained
// per-block accumulator state, the merge sequence depends only on the shard
// plan, and stale leases (a presumed-dead worker posting late) are
// rejected — so a fleet run is bit-identical to a single-process run of the
// same plan, no matter how many workers join, die or re-lease.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"etherm/api"
	"etherm/internal/jobstore"
	"etherm/internal/scenario"
	"etherm/internal/uq"
)

// Job states.
const (
	// JobRunning means shards are pending or leased.
	JobRunning = "running"
	// JobDone means every shard completed and the merge succeeded.
	JobDone = "done"
	// JobFailed means a shard exhausted its attempts or the merge failed.
	JobFailed = "failed"
	// JobCanceled means a client canceled the job; outstanding leases are
	// invalidated and workers abandon their shards on the next heartbeat.
	JobCanceled = "canceled"
)

// terminal reports whether a job state is final.
func terminal(status string) bool { return status != JobRunning }

// DefaultMaxHistory is the default terminal-job retention cap of a
// coordinator (running jobs are never evicted).
const DefaultMaxHistory = 128

// DefaultLeaseTTL is how long a shard lease stays valid without a
// heartbeat before the coordinator re-leases the shard to another worker.
const DefaultLeaseTTL = 30 * time.Second

// DefaultMaxAttempts bounds how often a shard is (re-)leased before the
// whole job is declared failed.
const DefaultMaxAttempts = 3

// ErrLeaseLost is returned on heartbeat/complete for a lease the
// coordinator no longer recognizes (expired and re-leased, or the shard
// already completed elsewhere). The worker must abandon the shard.
var ErrLeaseLost = errors.New("fleet: lease lost (expired or superseded)")

type shardState struct {
	shard      int
	start, end int
	status     string
	worker     string
	leaseID    string
	expiry     time.Time
	attempts   int
	result     *uq.ShardResult
}

type job struct {
	id     string
	scen   scenario.Scenario
	plan   *uq.ShardPlan
	shards []*shardState
	status string
	err    string
	result *scenario.ScenarioResult
	done   chan struct{} // closed on terminal state
}

// Coordinator plans, leases and merges sharded campaigns. All methods are
// safe for concurrent use; expired leases are reclaimed lazily on every
// call that inspects shard state.
type Coordinator struct {
	// Now is the clock (overridable in tests); defaults to time.Now.
	Now func() time.Time
	// MaxAttempts bounds per-shard lease attempts (default
	// DefaultMaxAttempts).
	MaxAttempts int
	// MaxHistory caps retained terminal jobs, evicted oldest-first
	// (default DefaultMaxHistory; running jobs are never evicted).
	MaxHistory int

	// OnLeaseExpiry, when set before serving, observes every lease the
	// coordinator reclaims from a silent worker (metrics hook).
	OnLeaseExpiry func()
	// OnEvent, when set before serving, receives each job's progress as
	// SSE-ready events: a "shards" event per accepted shard and one
	// terminal "status" event. It runs under the coordinator lock, so it
	// must not call back into the coordinator.
	OnEvent func(api.JobEvent)

	cache *scenario.AssemblyCache
	ttl   time.Duration

	// store mirrors every transition when attached via SetStore (see
	// persist.go); logf receives recovery notes and store-write failures.
	store jobstore.Store
	logf  func(format string, args ...any)

	mu    sync.Mutex
	seq   int
	lseq  int
	jobs  map[string]*job
	order []string
}

// NewCoordinator returns a coordinator finalizing results through the given
// assembly cache (nil allocates a private one) with the given lease TTL
// (0 = DefaultLeaseTTL).
func NewCoordinator(cache *scenario.AssemblyCache, ttl time.Duration) *Coordinator {
	if cache == nil {
		cache = scenario.NewCache()
	}
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	return &Coordinator{
		Now:         time.Now,
		MaxAttempts: DefaultMaxAttempts,
		MaxHistory:  DefaultMaxHistory,
		cache:       cache,
		ttl:         ttl,
		jobs:        make(map[string]*job),
	}
}

// Submit validates and plans a sharded streaming scenario and queues its
// shards for leasing.
func (c *Coordinator) Submit(s scenario.Scenario) (*api.FleetJob, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if !s.UQ.Sharded() {
		return nil, fmt.Errorf("fleet: scenario %q is not sharded (set uq.shards)", s.Name)
	}
	plan, err := scenario.ShardPlan(s)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	j := &job{
		id:     fmt.Sprintf("fleet-%06d", c.seq),
		scen:   s,
		plan:   plan,
		status: JobRunning,
		done:   make(chan struct{}),
	}
	for k := 0; k < plan.NumShards; k++ {
		start, end := plan.Shard(k)
		j.shards = append(j.shards, &shardState{shard: k, start: start, end: end, status: api.ShardPending})
	}
	// Persist before acknowledging: a job the store did not take would be
	// lost on restart, so the submission is refused and leaves no trace.
	if err := c.persistLocked(j); err != nil {
		c.seq--
		return nil, fmt.Errorf("%w (%v)", errNotPersisted, err)
	}
	c.jobs[j.id] = j
	c.order = append(c.order, j.id)
	c.evictLocked()
	return c.viewLocked(j), nil
}

// errNotPersisted marks a submission refused because the job store failed
// the write: nothing was created, so the request is safe to retry.
var errNotPersisted = errors.New("fleet: job store is failing writes; submission shed, retry shortly")

// evictLocked drops the oldest terminal jobs beyond MaxHistory, so a
// long-running coordinator does not accumulate merged campaigns and result
// payloads without bound. Caller holds c.mu.
func (c *Coordinator) evictLocked() {
	max := c.MaxHistory
	if max <= 0 {
		max = DefaultMaxHistory
	}
	if len(c.order) <= max {
		return
	}
	kept := c.order[:0]
	excess := len(c.order) - max
	for _, id := range c.order {
		if excess > 0 && terminal(c.jobs[id].status) {
			c.dropJobLocked(c.jobs[id])
			delete(c.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	c.order = kept
}

// expireLocked reclaims expired leases. Caller holds c.mu.
func (c *Coordinator) expireLocked(now time.Time) {
	for _, id := range c.order {
		j := c.jobs[id]
		if j.status != JobRunning {
			continue
		}
		changed := false
		for _, sh := range j.shards {
			if sh.status == api.ShardLeased && now.After(sh.expiry) {
				sh.status = api.ShardPending
				sh.worker = ""
				sh.leaseID = ""
				changed = true
				if c.OnLeaseExpiry != nil {
					c.OnLeaseExpiry()
				}
			}
		}
		if changed {
			c.persistLocked(j)
		}
	}
}

// Lease hands the oldest pending shard to a worker, or returns ok=false
// when no work is available.
func (c *Coordinator) Lease(workerID string) (*api.FleetLease, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.Now()
	c.expireLocked(now)
	for _, id := range c.order {
		j := c.jobs[id]
		if j.status != JobRunning {
			continue
		}
		for _, sh := range j.shards {
			if sh.status != api.ShardPending {
				continue
			}
			if sh.attempts >= c.MaxAttempts {
				// Every granted lease died or failed: the job cannot make
				// progress, so fail it instead of leasing forever.
				c.finishLocked(j, JobFailed, fmt.Sprintf("shard %d exhausted %d lease attempts", sh.shard, sh.attempts))
				break
			}
			c.lseq++
			sh.status = api.ShardLeased
			sh.worker = workerID
			sh.leaseID = fmt.Sprintf("lease-%06d", c.lseq)
			sh.expiry = now.Add(c.ttl)
			sh.attempts++
			c.persistLocked(j)
			return &api.FleetLease{
				JobID: j.id, LeaseID: sh.leaseID, Shard: sh.shard,
				LeaseTTL: c.ttl, Plan: (*api.ShardPlan)(j.plan), Scenario: j.scen,
			}, true
		}
	}
	return nil, false
}

// findLeaseLocked resolves a live lease of a running job. Caller holds
// c.mu.
func (c *Coordinator) findLeaseLocked(leaseID string) (*job, *shardState) {
	for _, id := range c.order {
		j := c.jobs[id]
		if j.status != JobRunning {
			continue
		}
		for _, sh := range j.shards {
			if sh.leaseID == leaseID && sh.status == api.ShardLeased {
				return j, sh
			}
		}
	}
	return nil, nil
}

// Heartbeat extends a live lease; ErrLeaseLost tells the worker to abandon
// the shard (it expired and may already be re-leased).
func (c *Coordinator) Heartbeat(leaseID string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.Now()
	c.expireLocked(now)
	j, sh := c.findLeaseLocked(leaseID)
	if sh == nil {
		return ErrLeaseLost
	}
	sh.expiry = now.Add(c.ttl)
	c.persistLocked(j)
	return nil
}

// Complete accepts a shard result posted under a live lease, and merges +
// finalizes the job once its last shard lands. Posts under stale leases are
// rejected with ErrLeaseLost so a re-leased shard is only counted once.
func (c *Coordinator) Complete(leaseID string, res *uq.ShardResult) error {
	c.mu.Lock()
	now := c.Now()
	c.expireLocked(now)
	j, sh := c.findLeaseLocked(leaseID)
	if sh == nil {
		c.mu.Unlock()
		return ErrLeaseLost
	}
	if res == nil || res.Shard != sh.shard || res.Start != sh.start || res.End != sh.end {
		c.mu.Unlock()
		return fmt.Errorf("fleet: result does not describe shard %d [%d,%d) of job %s", sh.shard, sh.start, sh.end, j.id)
	}
	if !res.Complete() {
		c.mu.Unlock()
		return fmt.Errorf("fleet: shard %d of job %s is incomplete (%d of %d samples)", sh.shard, j.id, res.Evaluated, sh.end-sh.start)
	}
	sh.status = api.ShardDone
	sh.result = res
	sh.leaseID = ""
	// Payload first, then the job record marking the shard done: a crash
	// between the two recovers a done shard whose payload exists.
	c.persistShardLocked(j, sh)
	c.persistLocked(j)
	ev := c.emitLocked(j, api.EventShards)
	c.mu.Unlock()
	if ev.ShardsDone < ev.ShardsTotal {
		return nil
	}
	return c.finalize(j)
}

// Fail records a worker-reported shard failure (the shard goes back to
// pending until MaxAttempts, then the job fails).
func (c *Coordinator) Fail(leaseID, msg string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(c.Now())
	j, sh := c.findLeaseLocked(leaseID)
	if sh == nil {
		return ErrLeaseLost
	}
	sh.status = api.ShardPending
	sh.worker = ""
	sh.leaseID = ""
	if sh.attempts >= c.MaxAttempts {
		c.finishLocked(j, JobFailed, fmt.Sprintf("shard %d failed %d times; last error: %s", sh.shard, sh.attempts, msg))
	} else {
		c.persistLocked(j)
	}
	return nil
}

// finishLocked is the one terminal transition of a running job: live
// leases are invalidated (workers see ErrLeaseLost on their next
// heartbeat or post and abandon the shard), the per-shard payloads are
// released, the terminal record is written, the shard payload records
// are deleted, waiters wake and OnEvent gets the terminal status. Record
// first, payload deletes after: a crash between the two leaves orphan
// payloads that the next eviction sweeps, never a done job without its
// result. Caller holds c.mu.
func (c *Coordinator) finishLocked(j *job, status, msg string) {
	if j.status != JobRunning {
		return
	}
	for _, sh := range j.shards {
		if sh.status == api.ShardLeased {
			sh.status = api.ShardPending
			sh.worker = ""
			sh.leaseID = ""
		}
		sh.result = nil
	}
	j.status = status
	j.err = msg
	c.persistLocked(j)
	c.dropShardsLocked(j)
	close(j.done)
	c.emitLocked(j, api.EventStatus)
}

// emitLocked fires OnEvent with the job's status and shard progress and
// returns the event. Caller holds c.mu.
func (c *Coordinator) emitLocked(j *job, typ api.EventType) api.JobEvent {
	ev := api.JobEvent{Type: typ, JobID: j.id, Status: api.JobStatus(j.status),
		ShardsTotal: len(j.shards), Error: j.err}
	for _, sh := range j.shards {
		if sh.status == api.ShardDone {
			ev.ShardsDone++
		}
	}
	if c.OnEvent != nil {
		c.OnEvent(ev)
	}
	return ev
}

// finalize merges the completed shards and builds the ScenarioResult. Runs
// outside the store lock (it instantiates the cached mesh assembly).
func (c *Coordinator) finalize(j *job) error {
	c.mu.Lock()
	results := make([]*uq.ShardResult, len(j.shards))
	for k, sh := range j.shards {
		results[k] = sh.result
	}
	c.mu.Unlock()

	res, err := scenario.FinalizeShards(c.cache, j.scen, results)
	c.mu.Lock()
	defer c.mu.Unlock()
	if j.status != JobRunning {
		return nil
	}
	if err != nil {
		c.finishLocked(j, JobFailed, fmt.Sprintf("merge failed: %v", err))
		return fmt.Errorf("fleet: job %s: %v", j.id, err)
	}
	// The per-shard payloads are folded into the result now; finishLocked
	// releases them, so a retained terminal job costs one result, not K
	// block lists.
	j.result = res
	c.finishLocked(j, JobDone, "")
	return nil
}

// Cancel aborts a running fleet job: pending shards are never leased
// again, live leases are invalidated (workers see ErrLeaseLost on their
// next heartbeat or post and abandon the shard), and waiters wake with the
// terminal "canceled" state. Canceling a terminal job is an error.
func (c *Coordinator) Cancel(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return fmt.Errorf("fleet: no such job %s", id)
	}
	if terminal(j.status) {
		return fmt.Errorf("fleet: job %s already %s", id, j.status)
	}
	c.finishLocked(j, JobCanceled, "canceled by client")
	return nil
}

// viewLocked renders a job snapshot. Caller holds c.mu.
func (c *Coordinator) viewLocked(j *job) *api.FleetJob {
	v := &api.FleetJob{
		ID: j.id, Status: api.JobStatus(j.status), Error: j.err,
		Scenario: j.scen, Plan: (*api.ShardPlan)(j.plan), Result: j.result,
	}
	for _, sh := range j.shards {
		v.Shards = append(v.Shards, api.ShardStatus{
			Shard: sh.shard, Start: sh.start, End: sh.end,
			Status: sh.status, Worker: sh.worker, Attempts: sh.attempts,
		})
		if sh.status == api.ShardDone {
			v.ShardsDone++
		}
	}
	return v
}

// Job returns a snapshot of one fleet job.
func (c *Coordinator) Job(id string) (*api.FleetJob, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(c.Now())
	j, ok := c.jobs[id]
	if !ok {
		return nil, false
	}
	return c.viewLocked(j), true
}

// Jobs returns snapshots of all fleet jobs in submission order.
func (c *Coordinator) Jobs() []*api.FleetJob {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(c.Now())
	out := make([]*api.FleetJob, 0, len(c.order))
	for _, id := range c.order {
		out = append(out, c.viewLocked(c.jobs[id]))
	}
	return out
}

// Wait blocks until the job reaches a terminal state or the context ends.
func (c *Coordinator) Wait(ctx context.Context, id string) (*api.FleetJob, error) {
	c.mu.Lock()
	j, ok := c.jobs[id]
	c.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("fleet: no such job %s", id)
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.viewLocked(j), nil
}

// RunSharded implements scenario.ShardDelegate: submit the scenario, wait
// for the fleet to complete its shards, and return a copy of the result
// finalize built (the caller writes into it; the job view keeps its own).
// The scenario engine plugs a Coordinator in as its Sharder to route
// sharded scenarios through the worker fleet.
func (c *Coordinator) RunSharded(ctx context.Context, s scenario.Scenario) (*scenario.ScenarioResult, error) {
	v, err := c.Submit(s)
	if err != nil {
		return nil, err
	}
	id := v.ID
	v, err = c.Wait(ctx, id)
	if err != nil {
		// The caller gave up (batch job canceled, engine shutting down):
		// abort the fleet job too, so workers stop burning solves on it.
		_ = c.Cancel(id)
		return nil, err
	}
	if v.Status != JobDone {
		return nil, fmt.Errorf("fleet: job %s %s: %s", v.ID, v.Status, v.Error)
	}
	res := *v.Result
	return &res, nil
}
