package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"etherm/internal/config"
	"etherm/internal/core"
	"etherm/internal/study"
	"etherm/internal/uq"
)

func fastTestOptions() core.Options {
	o := core.FastOptions()
	o.EndTime = 10
	o.NumSteps = 4
	return o
}

// fastSim is the transient configuration used by engine tests: short horizon,
// weak coupling.
var fastSim = config.SimConfig{EndTimeS: 10, NumSteps: 4, Coupling: "weak", Nonlinear: "newton"}

func testBatch() *Batch {
	return &Batch{
		Name: "test",
		Scenarios: []Scenario{
			{
				Name: "nominal",
				Chip: ChipSpec{HMaxM: testHMax},
				Sim:  fastSim,
			},
			{
				Name: "mc",
				Chip: ChipSpec{HMaxM: testHMax},
				Sim:  fastSim,
				UQ:   UQSpec{Method: MethodMonteCarlo, Samples: 4, Seed: 7},
			},
			{
				Name: "gold-derated",
				Chip: ChipSpec{HMaxM: testHMax, WireMaterial: "gold", DriveScale: 0.75},
				Sim:  fastSim,
			},
		},
	}
}

// summaryJSON renders the scenario results with wall-clock timing zeroed, so
// two runs can be compared bit-for-bit.
func summaryJSON(t *testing.T, res *BatchResult) string {
	t.Helper()
	for _, s := range res.Scenarios {
		s.ElapsedS = 0
	}
	data, err := json.Marshal(res.Scenarios)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestEngineDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("coupled-field batch is seconds-scale")
	}
	run := func(workers, sampleWorkers int) string {
		e := NewEngine()
		e.Workers = workers
		e.SampleWorkers = sampleWorkers
		res, err := e.Run(context.Background(), testBatch())
		if err != nil {
			t.Fatal(err)
		}
		if res.FailedCount != 0 {
			t.Fatalf("batch had failures: %+v", res.Failed())
		}
		return summaryJSON(t, res)
	}
	serial := run(1, 1)
	parallel := run(3, 2)
	if serial != parallel {
		t.Errorf("results depend on worker split:\nserial:   %s\nparallel: %s", serial, parallel)
	}
}

// TestEngineCacheHitFollowsIndexOrder: with shared geometry the
// per-scenario cache_hit flags follow batch index order, not scheduling.
// Index 0 is held at its start event until index 1 has finished, so index 1
// builds the cached assembly; the flags must still read [false, true].
func TestEngineCacheHitFollowsIndexOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("coupled-field batch is seconds-scale")
	}
	e := NewEngine()
	e.Workers = 2
	e.SampleWorkers = 1
	secondDone := make(chan struct{})
	e.OnEvent = func(ev Event) {
		switch {
		case ev.Index == 0 && ev.Phase == PhaseStart:
			select {
			case <-secondDone:
			case <-time.After(30 * time.Second):
				t.Error("scenario 1 did not finish within 30 s while scenario 0 waited")
			}
		case ev.Index == 1 && (ev.Phase == PhaseDone || ev.Phase == PhaseFailed):
			close(secondDone)
		}
	}
	b := &Batch{Scenarios: []Scenario{
		{Name: "first", Chip: ChipSpec{HMaxM: testHMax}, Sim: fastSim},
		{Name: "second", Chip: ChipSpec{HMaxM: testHMax, DriveScale: 0.9}, Sim: fastSim},
	}}
	res, err := e.Run(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedCount != 0 {
		t.Fatalf("batch had failures: %+v", res.Failed())
	}
	if got := [2]bool{res.Scenarios[0].CacheHit, res.Scenarios[1].CacheHit}; got != [2]bool{false, true} {
		t.Errorf("cache_hit flags %v, want [false true]", got)
	}
	if res.CacheHits != 1 || res.CacheMisses != 1 {
		t.Errorf("cache hits/misses %d/%d, want 1/1", res.CacheHits, res.CacheMisses)
	}
}

// TestV1SolverKnobsAreNoOps pins the v1 contract of the removed solver
// features: a document carrying precision, deflation, deflation_block,
// precond_refresh and solver_workers validates and runs to results
// byte-identical to the same document without them, on both a strict and
// an ensemble scenario (both factorize the thermal operator with MIC0; the
// ensemble one names it by its v1 alias ict).
func TestV1SolverKnobsAreNoOps(t *testing.T) {
	if testing.Short() {
		t.Skip("coupled-field batch is seconds-scale")
	}
	const doc = `{"scenarios": [
		{"name": "nominal", "chip": {"hmax_m": 0.0008},
		 "sim": {"end_time_s": 10, "num_steps": 4, "coupling": "weak", "nonlinear": "newton"%[1]s}},
		{"name": "mc-sharded", "chip": {"hmax_m": 0.0008},
		 "sim": {"end_time_s": 10, "num_steps": 4, "coupling": "weak", "nonlinear": "newton", "precond": "ict"%[1]s},
		 "uq": {"method": "monte-carlo", "samples": 6, "seed": 7, "shards": 2, "shard_block": 2}}
	]}`
	run := func(knobs string) string {
		b, err := ParseBatch([]byte(fmt.Sprintf(doc, knobs)))
		if err != nil {
			t.Fatalf("knobs %q: %v", knobs, err)
		}
		res, err := NewEngine().Run(context.Background(), b)
		if err != nil {
			t.Fatal(err)
		}
		if res.FailedCount != 0 {
			t.Fatalf("knobs %q: batch had failures: %+v", knobs, res.Failed())
		}
		for _, s := range res.Scenarios {
			s.CacheHit = false
		}
		return summaryJSON(t, res)
	}
	with := run(`, "precision": "mixed", "deflation": true, "deflation_block": 64, "precond_refresh": 0.5, "solver_workers": 4`)
	without := run("")
	if with != without {
		t.Errorf("v1 solver knobs changed the results:\nwith:    %s\nwithout: %s", with, without)
	}
}

func TestEngineCacheReuseAcrossScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("coupled-field batch is seconds-scale")
	}
	e := NewEngine()
	res, err := e.Run(context.Background(), testBatch())
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheMisses != 1 {
		t.Errorf("batch built %d assemblies, want 1 (scenarios share the mesh)", res.CacheMisses)
	}
	if res.CacheHits != int64(len(res.Scenarios)-1) {
		t.Errorf("cache hits %d, want %d", res.CacheHits, len(res.Scenarios)-1)
	}
	hitCount := 0
	for _, s := range res.Scenarios {
		if s.CacheHit {
			hitCount++
		}
	}
	if hitCount != len(res.Scenarios)-1 {
		t.Errorf("%d results flagged as cache hits, want %d", hitCount, len(res.Scenarios)-1)
	}

	// A second batch on the same engine reuses the warm cache entirely.
	res2, err := e.Run(context.Background(), testBatch())
	if err != nil {
		t.Fatal(err)
	}
	if res2.CacheMisses != 0 || res2.CacheHits != int64(len(res2.Scenarios)) {
		t.Errorf("warm engine: misses=%d hits=%d", res2.CacheMisses, res2.CacheHits)
	}

	// Physical sanity: gold wires at 75 % drive stay cooler than copper at
	// full drive.
	byName := map[string]*ScenarioResult{}
	for _, s := range res.Scenarios {
		byName[s.Name] = s
	}
	if byName["gold-derated"].TEndMaxK >= byName["nominal"].TEndMaxK {
		t.Errorf("derated gold (%g K) not cooler than nominal copper (%g K)",
			byName["gold-derated"].TEndMaxK, byName["nominal"].TEndMaxK)
	}
	if byName["nominal"].TEndMaxK < 350 || byName["nominal"].TEndMaxK > 650 {
		t.Errorf("nominal end temperature %g K implausible", byName["nominal"].TEndMaxK)
	}
}

func TestEngineFailureIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("coupled-field batch is seconds-scale")
	}
	b := &Batch{
		Workers: 2,
		Scenarios: []Scenario{
			{Name: "ok-1", Chip: ChipSpec{HMaxM: testHMax}, Sim: fastSim},
			{Name: "broken", Chip: ChipSpec{Preset: "not-a-chip"}, Sim: fastSim},
			{Name: "ok-2", Chip: ChipSpec{HMaxM: testHMax, ActivePairs: []int{1}}, Sim: fastSim},
		},
	}
	e := NewEngine()
	res, err := e.Run(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedCount != 1 {
		t.Fatalf("failed count %d, want 1", res.FailedCount)
	}
	if res.Scenarios[1].OK || res.Scenarios[1].Error == "" {
		t.Error("broken scenario not recorded as failed")
	}
	if !res.Scenarios[0].OK || !res.Scenarios[2].OK {
		t.Error("healthy scenarios sank with the broken one")
	}
	if res.Scenarios[2].NumWires != 2 {
		t.Errorf("pair-restricted scenario simulated %d wires, want 2", res.Scenarios[2].NumWires)
	}
}

// TestEngineClaimsOneScenarioAtATime: a scenario that fails at once must
// not take the next scenarios along onto its worker. Index 0 fails
// validation while index 1 runs; indices 2 and 3 each hold in their start
// event until the other has started, which only completes when they run
// on different workers.
func TestEngineClaimsOneScenarioAtATime(t *testing.T) {
	if testing.Short() {
		t.Skip("coupled-field batch is seconds-scale")
	}
	started := map[int]chan struct{}{2: make(chan struct{}), 3: make(chan struct{})}
	abort := make(chan struct{})
	e := NewEngine()
	e.OnEvent = func(ev Event) {
		if ev.Phase != PhaseStart || started[ev.Index] == nil {
			return
		}
		close(started[ev.Index])
		select {
		case <-started[5-ev.Index]:
		case <-abort:
		}
	}
	b := &Batch{Workers: 2, Scenarios: []Scenario{
		{Name: "broken", Chip: ChipSpec{Preset: "nope"}, Sim: fastSim},
		{Name: "ok", Chip: ChipSpec{HMaxM: testHMax}, Sim: fastSim},
		{Name: "held-a", Chip: ChipSpec{HMaxM: testHMax}, Sim: fastSim},
		{Name: "held-b", Chip: ChipSpec{HMaxM: testHMax, DriveScale: 0.9}, Sim: fastSim},
	}}
	var res *BatchResult
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, err = e.Run(context.Background(), b)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		close(abort)
		<-done
		t.Fatal("scenarios 2 and 3 never ran side by side: one worker claimed both")
	}
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedCount != 1 || res.Scenarios[0].OK {
		t.Fatalf("want only the broken scenario failed, got %d failures: %+v", res.FailedCount, res.Failed())
	}
}

func TestEngineEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("coupled-field batch is seconds-scale")
	}
	var mu sync.Mutex
	counts := map[EventPhase]int{}
	e := NewEngine()
	e.Workers = 2
	e.OnEvent = func(ev Event) {
		mu.Lock()
		counts[ev.Phase]++
		mu.Unlock()
	}
	b := testBatch()
	if _, err := e.Run(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	if counts[PhaseStart] != len(b.Scenarios) || counts[PhaseDone] != len(b.Scenarios) {
		t.Errorf("start/done events %d/%d, want %d each", counts[PhaseStart], counts[PhaseDone], len(b.Scenarios))
	}
	if counts[PhaseSample] != 4 {
		t.Errorf("sample events %d, want 4 (MC budget)", counts[PhaseSample])
	}
	if counts[PhaseFailed] != 0 {
		t.Errorf("unexpected failure events: %d", counts[PhaseFailed])
	}
}

func TestEngineSmolyakScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("coupled-field collocation is seconds-scale")
	}
	one := 1.0
	b := &Batch{Scenarios: []Scenario{{
		Name: "colloc",
		Chip: ChipSpec{HMaxM: testHMax},
		Sim:  fastSim,
		UQ:   UQSpec{Method: MethodSmolyak, Level: 1, Rho: &one},
	}}}
	e := NewEngine()
	res, err := e.Run(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Scenarios[0]
	if !s.OK {
		t.Fatalf("collocation scenario failed: %s", s.Error)
	}
	des, err := uq.SmolyakDesign(study.GermDists(s.NumWires, one), 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Evaluations != len(des.Points) {
		t.Errorf("evaluations %d, want the design's %d nodes", s.Evaluations, len(des.Points))
	}
	if s.TEndMaxK < 350 || s.TEndMaxK > 650 {
		t.Errorf("collocation mean end temperature %g K implausible", s.TEndMaxK)
	}
	if s.SigmaK <= 0 {
		t.Errorf("collocation sigma %g, want positive", s.SigmaK)
	}
}

// TestEngineSmolyakHonoursCancel: a collocation scenario whose context is
// canceled as it starts fails with the context error before any FEM
// evaluation, instead of running its whole sparse grid.
func TestEngineSmolyakHonoursCancel(t *testing.T) {
	rho := 0.3
	b := &Batch{Scenarios: []Scenario{{
		Name: "colloc",
		Chip: ChipSpec{HMaxM: testHMax},
		Sim:  fastSim,
		UQ:   UQSpec{Method: MethodSmolyak, Level: 1, Rho: &rho},
	}}}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e := NewEngine()
	e.OnEvent = func(ev Event) {
		if ev.Phase == PhaseStart {
			cancel()
		}
	}
	res, err := e.Run(ctx, b)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Scenarios[0]
	if s.OK || !strings.Contains(s.Error, context.Canceled.Error()) {
		t.Errorf("canceled collocation scenario: ok=%v error=%q", s.OK, s.Error)
	}
	if s.Evaluations != 0 {
		t.Errorf("canceled collocation scenario reports %d evaluations", s.Evaluations)
	}
}

func TestEngineContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewEngine().Run(ctx, testBatch()); err == nil {
		t.Error("canceled context did not abort the batch")
	}
}
