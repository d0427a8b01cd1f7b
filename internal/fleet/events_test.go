package fleet

import (
	"context"
	"testing"
	"time"

	"etherm/api"
	"etherm/internal/scenario"
)

// TestCoordinatorOnEvent pins the coordinator's progress events: one
// "shards" event per accepted shard, and exactly one terminal "status"
// event for each way a job ends — canceled, failed once a shard reaches
// MaxAttempts, and done after the merge.
func TestCoordinatorOnEvent(t *testing.T) {
	coord := NewCoordinator(nil, time.Minute)
	coord.MaxAttempts = 1
	byJob := map[string][]api.JobEvent{}
	coord.OnEvent = func(ev api.JobEvent) { byJob[ev.JobID] = append(byJob[ev.JobID], ev) }
	type step struct {
		typ         api.EventType
		status      api.JobStatus
		done, total int
	}
	check := func(id string, want []step) {
		t.Helper()
		got := byJob[id]
		if len(got) != len(want) {
			t.Fatalf("job %s: %d events %+v, want %d", id, len(got), got, len(want))
		}
		for i, w := range want {
			if ev := got[i]; ev.Type != w.typ || ev.Status != w.status || ev.ShardsDone != w.done || ev.ShardsTotal != w.total {
				t.Errorf("job %s event %d: %+v, want %+v", id, i, ev, w)
			}
		}
	}

	canceled, err := coord.Submit(chipScenario(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Cancel(canceled.ID); err != nil {
		t.Fatal(err)
	}
	if err := coord.Cancel(canceled.ID); err == nil {
		t.Error("second cancel accepted")
	}
	check(canceled.ID, []step{{api.EventStatus, JobCanceled, 0, len(canceled.Shards)}})

	failed, err := coord.Submit(chipScenario(1))
	if err != nil {
		t.Fatal(err)
	}
	a, ok := coord.Lease("w")
	if !ok || a.JobID != failed.ID {
		t.Fatalf("lease of the failing job: ok=%v %+v", ok, a)
	}
	if err := coord.Fail(a.LeaseID, "solver diverged"); err != nil {
		t.Fatal(err)
	}
	check(failed.ID, []step{{api.EventStatus, JobFailed, 0, 1}})

	if testing.Short() {
		t.Skip("the done case runs coupled-field samples")
	}
	s := chipScenario(2)
	s.UQ.Samples, s.UQ.ShardBlock = 2, 1
	done, err := coord.Submit(s)
	if err != nil {
		t.Fatal(err)
	}
	cache := scenario.NewCache()
	for k := 0; k < 2; k++ {
		a, ok := coord.Lease("w")
		if !ok || a.JobID != done.ID {
			t.Fatalf("lease %d: ok=%v %+v", k, ok, a)
		}
		res, err := scenario.RunShard(context.Background(), cache, a.Scenario, a.Shard, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := coord.Complete(a.LeaseID, res); err != nil {
			t.Fatal(err)
		}
	}
	check(done.ID, []step{
		{api.EventShards, JobRunning, 1, 2},
		{api.EventShards, JobRunning, 2, 2},
		{api.EventStatus, JobDone, 2, 2},
	})
}
