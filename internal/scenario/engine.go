package scenario

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"etherm/internal/panicsafe"
	"etherm/internal/pool"
)

// EventPhase labels engine progress events.
type EventPhase string

// Progress event phases, in scenario lifecycle order.
const (
	// PhaseStart fires when a worker picks a scenario up.
	PhaseStart EventPhase = "start"
	// PhaseSample fires after each UQ model evaluation of a scenario.
	PhaseSample EventPhase = "sample"
	// PhaseLevel fires after each completed subset-simulation level of a
	// failure_probability scenario, carrying the level telemetry in
	// Event.Level.
	PhaseLevel EventPhase = "level"
	// PhaseDone fires when a scenario finishes successfully.
	PhaseDone EventPhase = "done"
	// PhaseFailed fires when a scenario errors; the batch continues.
	PhaseFailed EventPhase = "failed"
)

// Event is one progress notification. Done/Total carry sample progress for
// PhaseSample and level progress for PhaseLevel (Total 0 when unknown) and
// are zero otherwise.
type Event struct {
	Index    int    // scenario position in the batch
	Scenario string // scenario name
	Phase    EventPhase
	Done     int        // samples completed (PhaseSample) or levels (PhaseLevel)
	Total    int        // sample budget (PhaseSample) or level bound (PhaseLevel)
	Level    *RareLevel // completed-level telemetry (PhaseLevel only)
	Err      error
}

// Engine evaluates batches of scenarios over a bounded worker pool with a
// shared assembly cache. The zero value is not usable; construct with
// NewEngine. An Engine may be reused across batches — the cache keeps
// warming up — and is safe for concurrent Run calls.
type Engine struct {
	cache *AssemblyCache

	// OnEvent, when non-nil, receives progress events. It is called from
	// worker goroutines concurrently and must be safe for parallel use.
	OnEvent func(Event)
	// Sharder, when non-nil, executes sharded streaming scenarios
	// (UQ.Shards ≥ 1) — typically a fleet coordinator distributing shards
	// to etworker processes. Nil runs shards locally in shard order; both
	// paths produce bit-identical results. Called from worker goroutines
	// concurrently and must be safe for parallel use.
	Sharder ShardDelegate
}

// NewEngine returns an engine with a fresh assembly cache.
func NewEngine() *Engine {
	return &Engine{cache: NewCache()}
}

// NewEngineWithCache returns an engine sharing an existing assembly cache.
// Services that evaluate many batches (cmd/etserver runs one engine per job
// for isolated progress reporting) use this so meshes stay warm across
// jobs. Note that with concurrent engines on one cache the per-batch
// CacheHits/CacheMisses deltas can interleave; the per-scenario CacheHit
// flags are fixed against the cache contents at batch start (see Run).
func NewEngineWithCache(c *AssemblyCache) *Engine {
	return &Engine{cache: c}
}

// Cache exposes the engine's assembly cache (for hit/miss reporting).
func (e *Engine) Cache() *AssemblyCache { return e.cache }

// split resolves the worker counts for a batch of n scenarios from the
// batch's workers and sample_workers: the automatic split (0) gives
// scenario parallelism priority while granting ensembles the leftover
// CPUs.
func (e *Engine) split(b *Batch, n int) (workers, sampleWorkers int) {
	workers = b.Workers
	cpus := runtime.GOMAXPROCS(0)
	if workers <= 0 {
		workers = min(n, cpus)
	}
	workers = min(workers, n)
	if workers < 1 {
		workers = 1
	}
	sampleWorkers = b.SampleWorkers
	if sampleWorkers <= 0 {
		sampleWorkers = max(1, cpus/workers)
	}
	return workers, sampleWorkers
}

// Run evaluates every scenario of the batch, fanning out over the worker
// pool. A failing scenario (bad declaration, unbuildable geometry, solver
// breakdown or panic) is isolated: its result records the error and the
// remaining scenarios proceed. The returned results are ordered exactly
// like b.Scenarios and, for a fixed batch, are bit-identical regardless of
// worker counts — the per-scenario CacheHit flags included, which
// cacheHits fixes before fan-out. Run errors only on a structurally invalid
// batch or a canceled context.
func (e *Engine) Run(ctx context.Context, b *Batch) (*BatchResult, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	n := len(b.Scenarios)
	workers, sampleWorkers := e.split(b, n)

	hits0, misses0 := e.cache.Hits(), e.cache.Misses()
	start := time.Now()
	hit := e.cacheHits(b)
	results := make([]*ScenarioResult, n)
	// One scenario per claim: a scenario that fails validation returns at
	// once and must not take the next ones along onto its worker.
	err := pool.RunEach(ctx, make([]struct{}, workers), 0, n,
		func(_ struct{}, i int, r **ScenarioResult) error {
			res := e.runScenario(ctx, i, b.Scenarios[i], sampleWorkers)
			res.CacheHit = res.OK && hit[i]
			*r = res
			return nil
		},
		func(i int, r **ScenarioResult) bool {
			results[i] = *r
			return true
		})
	if err != nil {
		return nil, err
	}

	res := &BatchResult{
		Name:          b.Name,
		Scenarios:     results,
		Workers:       workers,
		SampleWorkers: sampleWorkers,
		CacheHits:     e.cache.Hits() - hits0,
		CacheMisses:   e.cache.Misses() - misses0,
		CacheEntries:  e.cache.Len(),
		ElapsedS:      time.Since(start).Seconds(),
	}
	for _, s := range results {
		if !s.OK {
			res.FailedCount++
		}
	}
	return res, nil
}

// cacheHits decides every scenario's CacheHit flag in index order, so the
// flags do not depend on which worker reaches the assembly cache first: a
// scenario that gets as far as the cache is a hit exactly when its geometry
// was cached before the batch started or a lower-index scenario of the
// batch shares the geometry.
func (e *Engine) cacheHits(b *Batch) []bool {
	hit := make([]bool, len(b.Scenarios))
	seen := make(map[string]bool)
	for i, s := range b.Scenarios {
		if s.Validate() != nil {
			continue
		}
		spec, err := Materialize(s.Chip)
		if err != nil || spec.Validate() != nil {
			continue
		}
		key := GeometryKey(spec)
		hit[i] = seen[key] || e.cache.cached(key)
		seen[key] = true
	}
	return hit
}

// emit sends a progress event if a listener is registered.
func (e *Engine) emit(ev Event) {
	if e.OnEvent != nil {
		e.OnEvent(ev)
	}
}

// failedResult records a scenario that never ran.
func failedResult(i int, s Scenario, err error) *ScenarioResult {
	return &ScenarioResult{
		Index: i, Name: s.Name, Description: s.Description,
		Method: s.UQ.EffectiveMethod(), OK: false, Error: err.Error(),
	}
}

// runScenario evaluates one scenario, converting panics and errors into a
// failed result so the batch survives.
func (e *Engine) runScenario(ctx context.Context, i int, s Scenario, sampleWorkers int) (res *ScenarioResult) {
	e.emit(Event{Index: i, Scenario: s.Name, Phase: PhaseStart})
	t0 := time.Now()
	defer func() {
		if r := recover(); r != nil {
			res = failedResult(i, s, panicsafe.New("scenario "+s.Name, r))
		}
		res.ElapsedS = time.Since(t0).Seconds()
		if res.OK {
			e.emit(Event{Index: i, Scenario: s.Name, Phase: PhaseDone})
		} else {
			e.emit(Event{Index: i, Scenario: s.Name, Phase: PhaseFailed, Err: fmt.Errorf("%s", res.Error)})
		}
	}()
	out, err := e.evaluate(ctx, i, s, sampleWorkers)
	if err != nil {
		return failedResult(i, s, err)
	}
	out.Index = i
	return out
}
