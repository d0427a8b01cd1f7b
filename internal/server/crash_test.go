package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"etherm/api"
	"etherm/client"
	"etherm/internal/apiconv"
	"etherm/internal/fleet"
	"etherm/internal/scenario"
)

// crashChildEnv switches the re-executed test binary into server mode: it
// serves a persistent etserver on a loopback port until the parent test
// kills it — with SIGKILL, which is the point.
const crashChildEnv = "ETSERVER_CRASH_DIR"

func TestMain(m *testing.M) {
	if dir := os.Getenv(crashChildEnv); dir != "" {
		runCrashChild(dir)
		return
	}
	os.Exit(m.Run())
}

// runCrashChild is the child process: a real etserver over the durable
// store, indistinguishable from `etserver -data DIR` as far as recovery is
// concerned. It announces its address on stdout and serves until killed.
func runCrashChild(dir string) {
	srv, err := New(Config{
		MaxConcurrent: 1,
		MaxHistory:    64,
		LeaseTTL:      5 * time.Second,
		DataDir:       dir,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "crash child: %v\n", err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "crash child: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("LISTENING %s\n", ln.Addr())
	err = http.Serve(ln, srv.Handler())
	fmt.Fprintf(os.Stderr, "crash child: serve ended: %v\n", err)
	os.Exit(1)
}

// startCrashServer re-executes the test binary as a persistent etserver on
// dir and returns its base URL once it is accepting connections.
func startCrashServer(t *testing.T, dir string) (string, *exec.Cmd) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), crashChildEnv+"="+dir)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	})
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if addr, ok := strings.CutPrefix(sc.Text(), "LISTENING "); ok {
			go io.Copy(io.Discard, stdout) //nolint:errcheck // keep the pipe drained
			return "http://" + addr, cmd
		}
	}
	t.Fatalf("crash child exited before announcing an address: %v", sc.Err())
	return "", nil
}

// sigkill delivers an uncatchable SIGKILL and reaps the child — the crash
// the WAL exists for: no flush, no shutdown hook, no warning.
func sigkill(t *testing.T, cmd *exec.Cmd) {
	t.Helper()
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_, _ = cmd.Process.Wait()
}

// crashScenario is the sharded Monte Carlo campaign the crash tests
// interrupt: 6 samples in blocks of 2 over 3 shards.
func crashScenario() *api.Scenario {
	return &api.Scenario{
		Name: "mc-crash",
		Chip: api.ChipSpec{HMaxM: 0.8e-3},
		Sim:  tinySim(),
		UQ: api.UQSpec{
			Method: api.MethodMonteCarlo, Samples: 6, Seed: 7,
			Shards: 3, ShardBlock: 2,
		},
	}
}

// canonicalResult strips the context-dependent fields of a scenario
// result (timing, batch index, cache provenance) and renders the rest as
// JSON, so two runs can be compared bit-for-bit.
func canonicalResult(t *testing.T, r *api.ScenarioResult) string {
	t.Helper()
	cp := *r
	cp.ElapsedS = 0
	cp.Index = 0
	cp.CacheHit = false
	data, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestCrashRecoverySIGKILL is the durability acceptance test: a real
// etserver process is killed with SIGKILL in the middle of a fleet
// campaign — one shard merged, one lease outstanding — and restarted on
// the same data directory. The finished batch job must survive with its
// result byte-identical, the merged shard must not be recomputed, the
// orphaned lease must be rejected as stale, and the resumed campaign must
// finish with a merge bit-identical to an uninterrupted single-process
// run.
func TestCrashRecoverySIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("re-executes the test binary and runs coupled-field ensembles")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	dir := t.TempDir()

	// The uninterrupted reference: the same campaign through the engine's
	// local sharded path, no fleet, no crash.
	scen := *crashScenario()
	eng := scenario.NewEngine()
	ref, err := eng.Run(ctx, &scenario.Batch{Scenarios: []scenario.Scenario{scen}})
	if err != nil {
		t.Fatal(err)
	}
	if ref.FailedCount != 0 {
		t.Fatalf("local reference failed: %+v", ref.Failed())
	}
	want := canonicalResult(t, ref.Scenarios[0])

	// Incarnation one: a finished batch job and a fleet campaign with one
	// shard merged and a second shard leased but never completed.
	url1, child1 := startCrashServer(t, dir)
	cl1 := client.New(url1)

	batchJob := submitBatch(t, cl1, tinyBatch())
	batchDone := waitDone(t, cl1, batchJob.ID, 2*time.Minute)
	if batchDone.Status != api.JobDone {
		t.Fatalf("batch job finished as %s (%s)", batchDone.Status, batchDone.Error)
	}
	batchResultBefore, err := json.Marshal(batchDone.Result)
	if err != nil {
		t.Fatal(err)
	}

	view, err := cl1.SubmitFleetJob(ctx, crashScenario())
	if err != nil {
		t.Fatal(err)
	}
	w := &fleet.Worker{Client: cl1, ID: "crash-worker", SampleWorkers: 2, Poll: 10 * time.Millisecond}
	if worked, err := w.RunOnce(ctx); err != nil || !worked {
		t.Fatalf("first shard: worked=%v err=%v", worked, err)
	}
	mid, err := cl1.GetFleetJob(ctx, view.ID)
	if err != nil {
		t.Fatal(err)
	}
	if mid.ShardsDone != 1 {
		t.Fatalf("shards done before crash = %d, want 1", mid.ShardsDone)
	}
	// Compute the next shard, lease it, and crash the coordinator before
	// the result is posted: the lease must survive the restart. The shard
	// is computed before the lease is taken, so the lease's TTL covers only
	// the restart; the coordinator leases the lowest pending shard, 1.
	orphanRes, err := scenario.RunShard(ctx, scenario.NewCache(), scen, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	orphan, ok, err := cl1.Lease(ctx, "outliving-worker")
	if err != nil || !ok {
		t.Fatalf("orphan lease: ok=%v err=%v", ok, err)
	}
	if orphan.Shard != 1 {
		t.Fatalf("orphan lease is for shard %d, want 1", orphan.Shard)
	}
	orphanWire, err := apiconv.ShardResultToAPI(orphanRes)
	if err != nil {
		t.Fatal(err)
	}

	sigkill(t, child1)

	// Incarnation two: same directory, new port. Recovery must replay the
	// WAL, not re-run anything already merged.
	url2, _ := startCrashServer(t, dir)
	cl2 := client.New(url2)

	// The finished batch job survived byte-identical.
	batchAfter, err := cl2.GetJob(ctx, batchJob.ID)
	if err != nil {
		t.Fatalf("batch job lost across restart: %v", err)
	}
	if batchAfter.Status != api.JobDone || batchAfter.Result == nil {
		t.Fatalf("batch job recovered as %s (result %v)", batchAfter.Status, batchAfter.Result != nil)
	}
	batchResultAfter, err := json.Marshal(batchAfter.Result)
	if err != nil {
		t.Fatal(err)
	}
	if string(batchResultAfter) != string(batchResultBefore) {
		t.Errorf("batch result changed across restart:\n%s\nvs\n%s", batchResultAfter, batchResultBefore)
	}

	// The campaign survived with its merged shard intact.
	resumed, err := cl2.GetFleetJob(ctx, view.ID)
	if err != nil {
		t.Fatalf("fleet job lost across restart: %v", err)
	}
	if resumed.Status != api.JobRunning || resumed.ShardsDone != 1 {
		t.Fatalf("fleet job recovered as %s with %d shards done, want running/1",
			resumed.Status, resumed.ShardsDone)
	}

	// The outstanding lease was persisted with its absolute expiry, so the
	// coordinator restart is invisible to a live worker: its computed shard
	// posts successfully — and exactly once, because the consumed lease
	// then rejects a duplicate post (no double merge).
	if err := cl2.PostShardResult(ctx, orphan.LeaseID, orphanWire); err != nil {
		t.Fatalf("live lease rejected across restart: %v", err)
	}
	if err := cl2.PostShardResult(ctx, orphan.LeaseID, orphanWire); !api.IsLeaseLost(err) {
		t.Errorf("duplicate post under a consumed lease accepted: %v", err)
	}
	if j, err := cl2.GetFleetJob(ctx, view.ID); err != nil || j.ShardsDone != 2 {
		t.Fatalf("after cross-restart post: %d shards done (err %v), want 2", j.ShardsDone, err)
	}

	// A fresh worker drains the remaining shard.
	w2 := &fleet.Worker{Client: cl2, ID: "recovery-worker", SampleWorkers: 2, Poll: 10 * time.Millisecond}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		final, err := cl2.GetFleetJob(ctx, view.ID)
		if err != nil {
			t.Fatal(err)
		}
		if final.Status != api.JobRunning {
			if final.Status != api.JobDone || final.Result == nil {
				t.Fatalf("resumed campaign finished as %s (%s)", final.Status, final.Error)
			}
			if got := canonicalResult(t, final.Result); got != want {
				t.Errorf("post-crash merge differs from uninterrupted run:\n%s\nvs\n%s", got, want)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign did not finish after restart: %+v", final)
		}
		if _, err := w2.RunOnce(ctx); err != nil {
			t.Fatalf("recovery worker: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// ID counters were persisted: new work gets fresh IDs, not recycled
	// ones that would collide with recovered history.
	fresh, err := cl2.SubmitFleetJob(ctx, crashScenario())
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID == view.ID || fresh.ID < view.ID {
		t.Errorf("fleet ID %s reused or regressed after restart (previous %s)", fresh.ID, view.ID)
	}
}
