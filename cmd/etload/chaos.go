package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"etherm/api"
	"etherm/client"
	"etherm/internal/faultinject"
	"etherm/internal/fleet"
	"etherm/internal/scenario"
)

// Chaos mode: the same load run with deterministic fault injection
// layered under it — store writes failing and tearing, HTTP calls
// delayed, dropped and answered with synthetic 5xx, SSE streams cut
// mid-event, and the solver forced into NaN, divergence and panic — all
// drawn from one seeded stream, so a failure replays from the seed in
// the report. The run asserts the robustness contract instead of the
// latency one: the process survives, no watcher loses its terminal
// event, and a sharded campaign merged through a re-lease storm is
// bit-identical to a clean single-process run.

// chaosConfig is the built-in fault mix of -chaos: every injector armed
// at rates that fire constantly under load without starving progress.
func chaosConfig(seed uint64) faultinject.Config {
	return faultinject.Config{
		Seed:           seed,
		StoreFailP:     0.05,
		StoreTornP:     0.02,
		StoreDelay:     2 * time.Millisecond,
		StoreDelayP:    0.10,
		HTTPLatency:    5 * time.Millisecond,
		HTTPLatencyP:   0.15,
		HTTPDropP:      0.10,
		HTTP5xxP:       0.05,
		SSETruncP:      0.20,
		SolverNaNP:     0.02,
		SolverDivergeP: 0.02,
		SolverPanicP:   0.01,
	}
}

// chaosRun threads the injector and chaos accounting through the phases.
type chaosRun struct {
	inj          *faultinject.Injector
	watchResumes atomic.Int64
}

type chaosStats struct {
	Seed         uint64           `json:"seed"`
	Spec         string           `json:"spec"`
	Faults       map[string]int64 `json:"faults"`
	FaultsTotal  int64            `json:"faults_total"`
	WatchResumes int64            `json:"watch_resumes"`
	Fleet        *chaosFleetStats `json:"fleet,omitempty"`
}

type chaosFleetStats struct {
	JobID         string  `json:"job_id"`
	Shards        int     `json:"shards"`
	LeaseExpiries float64 `json:"lease_expiries"`
	BitIdentical  bool    `json:"bit_identical"`
	ElapsedS      float64 `json:"elapsed_s"`
}

// chaosFleetScenario is the sharded Monte Carlo campaign of the chaos
// fleet phase: small enough to converge in seconds, sharded enough that
// re-leases interleave.
func chaosFleetScenario() *api.Scenario {
	return &api.Scenario{
		Name: "etload-chaos-mc",
		Chip: api.ChipSpec{HMaxM: 0.8e-3},
		Sim:  api.SimSpec{EndTimeS: 10, NumSteps: 3, Coupling: "weak", Nonlinear: "newton"},
		UQ: api.UQSpec{
			Method: api.MethodMonteCarlo, Samples: 8, Seed: 7,
			Shards: 4, ShardBlock: 2,
		},
	}
}

// canonicalScenarioResult strips the context-dependent fields (timing,
// batch index, cache provenance) and renders the rest as JSON, so two
// runs can be compared bit-for-bit.
func canonicalScenarioResult(r *scenario.ScenarioResult) (string, error) {
	cp := *r
	cp.ElapsedS = 0
	cp.Index = 0
	cp.CacheHit = false
	data, err := json.Marshal(&cp)
	if err != nil {
		return "", err
	}
	return string(data), nil
}

// runChaosFleet is the exactly-once acceptance check under chaos: a
// sharded campaign is run by a small worker fleet whose result and
// heartbeat posts are randomly dropped — computed shards are lost after
// the fact, leases expire, shards are re-leased and recomputed — and the
// merged result must still be bit-identical to a clean, single-process
// reference run. Solver faults must be disabled around this phase: the
// reference and the fleet must compute the same (correct) bits.
func runChaosFleet(ctx context.Context, cl *client.Client, base string, ch *chaosRun, rep *report) error {
	start := time.Now()
	spec := chaosFleetScenario()

	// The clean local reference through the engine's sharded path.
	eng := scenario.NewEngine()
	ref, err := eng.Run(ctx, &scenario.Batch{Scenarios: []scenario.Scenario{*spec}})
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	if ref.FailedCount != 0 {
		return fmt.Errorf("reference run failed: %+v", ref.Failed()[0])
	}
	want, err := canonicalScenarioResult(ref.Scenarios[0])
	if err != nil {
		return err
	}

	expiries0 := scrapeMetric(ctx, base, "etserver_lease_expiries_total")

	// Submission goes through the retrying client — the chaos transport
	// never disrupts submissions (they carry no not-processed guarantee).
	view, err := cl.SubmitFleetJob(ctx, spec)
	if err != nil {
		return fmt.Errorf("submit fleet job: %w", err)
	}

	// Workers talk through the chaos transport WITHOUT retries: a dropped
	// result post is a lost shard the lease machinery must recover, not a
	// transparent retry. That is what turns the drop rate into a re-lease
	// storm.
	wctx, stop := context.WithCancel(ctx)
	defer stop()
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wcl := client.New(base,
			client.WithHTTPClient(&http.Client{Transport: ch.inj.Transport(nil)}),
			client.WithRetry(1, time.Millisecond))
		w := &fleet.Worker{Client: wcl, ID: fmt.Sprintf("chaos-worker-%d", i),
			SampleWorkers: 2, Poll: 50 * time.Millisecond}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run(wctx) // exits on context cancel; errors are the point
		}()
	}

	// Poll to terminal with tolerance for injected read failures.
	var final *api.FleetJob
	for {
		v, err := cl.GetFleetJob(ctx, view.ID)
		if err == nil && v.Status.Finished() {
			final = v
			break
		}
		if ctx.Err() != nil {
			return fmt.Errorf("chaos fleet job did not finish: %w", ctx.Err())
		}
		time.Sleep(100 * time.Millisecond)
	}
	stop()
	wg.Wait()

	if final.Status != api.JobDone || final.Result == nil {
		return fmt.Errorf("chaos fleet job finished as %s (%s)", final.Status, final.Error)
	}
	got, err := canonicalScenarioResult(final.Result)
	if err != nil {
		return err
	}

	rep.Chaos.Fleet = &chaosFleetStats{
		JobID:         view.ID,
		Shards:        len(final.Shards),
		LeaseExpiries: scrapeMetric(ctx, base, "etserver_lease_expiries_total") - expiries0,
		BitIdentical:  got == want,
		ElapsedS:      time.Since(start).Seconds(),
	}
	if got != want {
		return fmt.Errorf("merged result under chaos differs from the clean reference:\n%s\nvs\n%s", got, want)
	}
	return nil
}

// scrapeMetric reads one un-labeled counter/gauge from the server's
// Prometheus text exposition; 0 when unreachable or absent (the scrape is
// diagnostic, never load-bearing).
func scrapeMetric(ctx context.Context, base, name string) float64 {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return 0
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err == nil {
				return v
			}
		}
	}
	return 0
}
