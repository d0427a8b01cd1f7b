package fleet

import (
	"encoding/json"
	"sort"
	"time"

	"etherm/api"
	"etherm/internal/jobstore"
	"etherm/internal/scenario"
	"etherm/internal/uq"
)

// Persistence of the coordinator: every job/lease/shard transition is
// mirrored into a jobstore.Store as two record kinds. KindFleet holds one
// fleetRecord per job — scenario, plan, shard lease states, status,
// result — and KindShard holds the posted shard result payloads, written
// before the job record that marks the shard done and deleted once the
// merge (or a cancel/eviction) makes them unreachable. A failed write
// refuses a submission (persist before acknowledging); on any later
// transition it is logged, never fatal: the coordinator stays available on
// its in-memory state and the next transition retries the write.

// fleetRecord is the persisted form of one fleet job (without the shard
// result payloads, which live in their own KindShard records so one huge
// job does not rewrite accumulator state on every lease transition).
type fleetRecord struct {
	ID       string                   `json:"id"`
	Status   string                   `json:"status"`
	Err      string                   `json:"error,omitempty"`
	Scenario scenario.Scenario        `json:"scenario"`
	Plan     *uq.ShardPlan            `json:"plan"`
	Shards   []shardRecord            `json:"shards"`
	Result   *scenario.ScenarioResult `json:"result,omitempty"`
}

// shardRecord is the persisted lease state of one shard. Expiry is
// absolute, so an in-flight lease survives a restart: the worker's next
// heartbeat extends it, or it lapses and the shard is re-leased.
type shardRecord struct {
	Shard    int       `json:"shard"`
	Start    int       `json:"start"`
	End      int       `json:"end"`
	Status   string    `json:"status"`
	Worker   string    `json:"worker,omitempty"`
	LeaseID  string    `json:"lease_id,omitempty"`
	Expiry   time.Time `json:"expiry,omitzero"`
	Attempts int       `json:"attempts,omitempty"`
}

// SetStore attaches a persistent store and restores the coordinator's
// state from it. Call once, before the coordinator serves requests; logf
// (optional) receives recovery notes and store-write failures.
func (c *Coordinator) SetStore(st jobstore.Store, logf func(format string, args ...any)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.store = st
	c.logf = logf
	c.loadLocked(st.State())
}

// storeLogf reports a persistence problem (best-effort logging).
func (c *Coordinator) storeLogf(format string, args ...any) {
	if c.logf != nil {
		c.logf(format, args...)
	}
}

// countersLocked snapshots the coordinator's ID high-water marks for a
// store write. Caller holds c.mu.
func (c *Coordinator) countersLocked() jobstore.Counters {
	return jobstore.Counters{Fleet: c.seq, Lease: c.lseq}
}

// persistLocked writes a job's fleetRecord and returns the write error,
// which Submit refuses the job on; later transitions only log it. Caller
// holds c.mu.
func (c *Coordinator) persistLocked(j *job) error {
	if c.store == nil {
		return nil
	}
	rec := fleetRecord{
		ID: j.id, Status: j.status, Err: j.err,
		Scenario: j.scen, Plan: j.plan, Result: j.result,
	}
	for _, sh := range j.shards {
		rec.Shards = append(rec.Shards, shardRecord{
			Shard: sh.shard, Start: sh.start, End: sh.end,
			Status: sh.status, Worker: sh.worker, LeaseID: sh.leaseID,
			Expiry: sh.expiry, Attempts: sh.attempts,
		})
	}
	data, err := json.Marshal(&rec)
	if err == nil {
		err = c.store.Put(jobstore.KindFleet, j.id, data, c.countersLocked())
	}
	if err != nil {
		c.storeLogf("fleet: persist %s: %v", j.id, err)
	}
	return err
}

// persistShardLocked writes one posted shard result payload. It runs
// before the fleetRecord write that marks the shard done, so a recovered
// "done" shard always has its payload. Caller holds c.mu.
func (c *Coordinator) persistShardLocked(j *job, sh *shardState) {
	if c.store == nil || sh.result == nil {
		return
	}
	data, err := json.Marshal(sh.result)
	if err != nil {
		c.storeLogf("fleet: persist shard %s/%d: %v", j.id, sh.shard, err)
		return
	}
	if err := c.store.Put(jobstore.KindShard, jobstore.ShardID(j.id, sh.shard), data, jobstore.Counters{}); err != nil {
		c.storeLogf("fleet: persist shard %s/%d: %v", j.id, sh.shard, err)
	}
}

// dropShardsLocked deletes every shard payload record of a job (after a
// merge folded them into the result, or a cancel/eviction made them
// unreachable). Caller holds c.mu.
func (c *Coordinator) dropShardsLocked(j *job) {
	if c.store == nil {
		return
	}
	for _, sh := range j.shards {
		if err := c.store.Delete(jobstore.KindShard, jobstore.ShardID(j.id, sh.shard), jobstore.Counters{}); err != nil {
			c.storeLogf("fleet: drop shard %s/%d: %v", j.id, sh.shard, err)
		}
	}
}

// dropJobLocked deletes a job and its shard payloads from the store
// (eviction). Caller holds c.mu.
func (c *Coordinator) dropJobLocked(j *job) {
	if c.store == nil {
		return
	}
	c.dropShardsLocked(j)
	if err := c.store.Delete(jobstore.KindFleet, j.id, jobstore.Counters{}); err != nil {
		c.storeLogf("fleet: drop %s: %v", j.id, err)
	}
}

// loadLocked rebuilds the coordinator from recovered store state. An
// unreadable job record is dropped with its shard payloads, as the
// server drops unreadable job and surrogate records; an unreadable
// payload re-leases its shard. Caller holds c.mu.
func (c *Coordinator) loadLocked(st *jobstore.State) {
	c.seq = max(c.seq, st.Counters.Fleet)
	c.lseq = max(c.lseq, st.Counters.Lease)

	var merged []*job
	for id, data := range st.Kinds[jobstore.KindFleet] {
		var rec fleetRecord
		if err := json.Unmarshal(data, &rec); err != nil || rec.ID != id || rec.Plan == nil {
			c.storeLogf("fleet: dropping unreadable fleet record %s: %v", id, err)
			_ = c.store.Delete(jobstore.KindFleet, id, jobstore.Counters{})
			for key := range st.Kinds[jobstore.KindShard] {
				if jobID, _, ok := jobstore.ParseShardID(key); ok && jobID == id {
					_ = c.store.Delete(jobstore.KindShard, key, jobstore.Counters{})
				}
			}
			continue
		}
		j := &job{
			id: rec.ID, scen: rec.Scenario, plan: rec.Plan,
			status: rec.Status, err: rec.Err, result: rec.Result,
			done: make(chan struct{}),
		}
		for _, sr := range rec.Shards {
			j.shards = append(j.shards, &shardState{
				shard: sr.Shard, start: sr.Start, end: sr.End,
				status: sr.Status, worker: sr.Worker, leaseID: sr.LeaseID,
				expiry: sr.Expiry, attempts: sr.Attempts,
			})
		}
		if terminal(j.status) {
			close(j.done)
		} else {
			// Re-attach persisted shard payloads to running jobs.
			needMerge := true
			for _, sh := range j.shards {
				if sh.status != api.ShardDone {
					needMerge = false
					continue
				}
				payload, ok := st.Get(jobstore.KindShard, jobstore.ShardID(j.id, sh.shard))
				res := new(uq.ShardResult)
				if !ok || json.Unmarshal(payload, res) != nil {
					// Payload lost (should not happen: it is written first)
					// or unreadable. Re-lease the shard rather than fail the
					// job.
					c.storeLogf("fleet: recover %s: shard %d marked done but its payload is missing or unreadable, re-leasing", j.id, sh.shard)
					sh.status = api.ShardPending
					sh.worker = ""
					sh.leaseID = ""
					needMerge = false
					continue
				}
				sh.result = res
			}
			if needMerge {
				// The crash hit between the last shard post and the merge:
				// finalize again once the lock is released.
				merged = append(merged, j)
			}
		}
		c.jobs[j.id] = j
		c.order = append(c.order, j.id)
	}
	// Store state is a map; submission order is recoverable from the
	// zero-padded sequence IDs.
	sort.Strings(c.order)

	if n := len(c.jobs); n > 0 {
		c.storeLogf("fleet: recovered %d job(s), sequence fleet=%d lease=%d", n, c.seq, c.lseq)
	}
	if len(merged) > 0 {
		// finalize takes c.mu itself and may run the merge solve; it cannot
		// run under the lock we hold for loading.
		go func() {
			for _, j := range merged {
				if err := c.finalize(j); err != nil {
					c.storeLogf("fleet: recovery merge: %v", err)
				}
			}
		}()
	}
}
