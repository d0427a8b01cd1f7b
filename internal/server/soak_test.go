package server

import (
	"context"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"etherm/api"
)

// TestEventHubSoak1kWatchers is the fan-out soak of the SSE hub, meant to
// run under -race: a thousand concurrent watchers — a quarter of them
// deliberately slow consumers — attach to one streaming Monte Carlo job.
// Publishing must never block on the slow quarter (per-subscriber queues
// are bounded by sample coalescing), every single watcher must receive
// the terminal event, and when the streams close the hub and the
// goroutine count must return to baseline — no leaked watcher goroutines.
func TestEventHubSoak1kWatchers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a streaming ensemble with 1000 SSE watchers")
	}
	const nWatchers = 1000
	srv := mustNew(t, Config{MaxConcurrent: 1})
	_, cl := newTestServer(t, srv)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	baseline := runtime.NumGoroutine()

	// A long streaming ensemble: sample events keep flowing the whole time
	// the watcher pool is attaching, so coalescing is actually exercised.
	job := submitBatch(t, cl, &api.Batch{
		Name: "soak",
		Scenarios: []api.Scenario{{
			Name: "mc-soak",
			Chip: api.ChipSpec{HMaxM: 0.8e-3, ActivePairs: []int{0}},
			Sim:  tinySim(),
			UQ:   api.UQSpec{Method: api.MethodMonteCarlo, Samples: 100000, Seed: 3, Stream: true},
		}},
	})

	var (
		terminals    atomic.Int64
		dropped      atomic.Int64
		watchErrs    atomic.Int64
		sampleEvents atomic.Int64
		wg           sync.WaitGroup
	)
	for i := 0; i < nWatchers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			events, errc := cl.WatchJob(ctx, job.ID)
			slow := i%4 == 0
			terminal := false
			for ev := range events {
				if ev.Type == api.EventSample {
					sampleEvents.Add(1)
				}
				if ev.Terminal() {
					terminal = true
				}
				if slow {
					time.Sleep(2 * time.Millisecond)
				}
			}
			if err := <-errc; err != nil {
				watchErrs.Add(1)
				return
			}
			if terminal {
				terminals.Add(1)
			} else {
				dropped.Add(1)
			}
		}(i)
	}

	// Hold the pool fully connected before ending the job, so the terminal
	// event really fans out to 1000 live streams at once.
	deadline := time.Now().Add(time.Minute)
	for srv.hub.watcherCount() < nWatchers {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d watchers connected", srv.hub.watcherCount(), nWatchers)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// And hold it until samples are actually streaming through the full
	// pool (cold-cache assembly can outlast the attach phase).
	for sampleEvents.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no sample events reached the pool")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := cl.CancelJob(ctx, job.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	wg.Wait()

	if n := terminals.Load(); n != nWatchers {
		t.Errorf("terminal events received by %d of %d watchers", n, nWatchers)
	}
	if n := dropped.Load(); n != 0 {
		t.Errorf("%d watchers saw their stream close without a terminal event", n)
	}
	if n := watchErrs.Load(); n != 0 {
		t.Errorf("%d watch streams errored", n)
	}
	if sampleEvents.Load() == 0 {
		t.Error("no sample events flowed while the pool was attached")
	}

	// Every stream closed: the hub must be empty again.
	for srv.hub.watcherCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d watchers still registered after all streams closed", srv.hub.watcherCount())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// And the goroutines must drain — a leak here is exactly the kind of
	// bug a soak exists to catch. Idle keep-alive connections hold transport
	// goroutines, so flush them before judging.
	if tr, ok := http.DefaultTransport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
	var ng int
	for {
		runtime.GC()
		if ng = runtime.NumGoroutine(); ng <= baseline+50 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d now vs %d baseline", ng, baseline)
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Logf("soak: %d watchers, %d sample events observed, goroutines %d→%d",
		nWatchers, sampleEvents.Load(), baseline, ng)
}
