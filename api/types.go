package api

import (
	"encoding/json"
	"fmt"
	"time"
)

// ---------------------------------------------------------------------------
// Requests: batches and scenarios.
// ---------------------------------------------------------------------------

// Batch is the body of POST /v1/jobs: a named list of scenarios evaluated
// through one shared assembly cache. It is the wire form of a scenario
// file; unknown fields are rejected server-side so typos fail loudly.
type Batch struct {
	// Name labels the batch in manifests and job listings.
	Name string `json:"name,omitempty"`
	// Workers bounds scenario-level parallelism (0 = automatic).
	Workers int `json:"workers,omitempty"`
	// SampleWorkers bounds per-scenario ensemble parallelism (0 = automatic).
	SampleWorkers int `json:"sample_workers,omitempty"`
	// Scenarios is evaluated in order; results keep this order regardless
	// of scheduling.
	Scenarios []Scenario `json:"scenarios"`
}

// Validate checks the batch structurally (the server re-validates deeply,
// including per-scenario physics declarations).
func (b *Batch) Validate() error {
	if len(b.Scenarios) == 0 {
		return fmt.Errorf("api: batch has no scenarios")
	}
	if b.Workers < 0 || b.SampleWorkers < 0 {
		return fmt.Errorf("api: negative worker counts")
	}
	seen := make(map[string]bool, len(b.Scenarios))
	for i, s := range b.Scenarios {
		if s.Name == "" {
			return fmt.Errorf("api: scenario entry %d has no name", i)
		}
		if seen[s.Name] {
			return fmt.Errorf("api: duplicate scenario name %q", s.Name)
		}
		seen[s.Name] = true
	}
	return nil
}

// Scenario is one declarative batch entry: a chip configuration, a
// transient-solve configuration and an uncertainty treatment.
type Scenario struct {
	// Name identifies the scenario in results; unique within a batch.
	Name string `json:"name"`
	// Description is free text carried into the results manifest.
	Description string `json:"description,omitempty"`
	// Chip declares geometry, drive, wires and ambient.
	Chip ChipSpec `json:"chip,omitempty"`
	// Sim declares the transient solve; zero end time / steps take the
	// paper's 50 s / 50 steps.
	Sim SimSpec `json:"sim,omitempty"`
	// UQ declares the uncertainty study; the zero value is deterministic.
	UQ UQSpec `json:"uq,omitempty"`
}

// ChipSpec declares the package model of one scenario as a preset plus
// overrides. Zero-valued fields keep the preset value.
type ChipSpec struct {
	// Preset selects the base geometry: "date16" (faithful V_bw = 40 mV
	// drive) or "date16-calibrated" (power-matched drive, the default).
	Preset string `json:"preset,omitempty"`
	// DriveVoltageV overrides the PEC contact drive ±V (a wire pair sees 2V).
	DriveVoltageV float64 `json:"drive_voltage_v,omitempty"`
	// DriveScale multiplies the preset (or overridden) drive voltage.
	DriveScale float64 `json:"drive_scale,omitempty"`
	// HMaxM overrides the maximum mesh spacing (metres).
	HMaxM float64 `json:"hmax_m,omitempty"`
	// Wire overrides; scenarios differing only in them share one cached
	// mesh assembly.
	WireSegments   int     `json:"wire_segments,omitempty"`
	WireDiameterM  float64 `json:"wire_diameter_m,omitempty"`
	WireMaterial   string  `json:"wire_material,omitempty"`   // copper|gold|aluminum
	MeanElongation float64 `json:"mean_elongation,omitempty"` // nominal δ; zero keeps the preset
	// ActivePairs restricts the drive to the listed wire pairs (0..5);
	// empty means all six pairs.
	ActivePairs []int `json:"active_pairs,omitempty"`
	// Ambient overrides. HTC and Emissivity are pointers because zero is
	// physically meaningful there, unlike an ambient of 0 K.
	HTC        *float64 `json:"htc_w_m2k,omitempty"`
	Emissivity *float64 `json:"emissivity,omitempty"`
	AmbientK   float64  `json:"ambient_k,omitempty"`
}

// SimSpec declares the transient solve of a scenario.
type SimSpec struct {
	EndTimeS   float64 `json:"end_time_s"`
	NumSteps   int     `json:"num_steps"`
	Coupling   string  `json:"coupling,omitempty"`   // strong|weak
	Nonlinear  string  `json:"nonlinear,omitempty"`  // picard|newton
	Integrator string  `json:"integrator,omitempty"` // implicit-euler|trapezoidal|bdf2
	Joule      string  `json:"joule,omitempty"`      // edge-split|cell-average
	LinTol     float64 `json:"lin_tol,omitempty"`
	// Performance knobs (solver preconditioning). Precond ic0, the
	// default, factorizes the thermal operator with MIC0 and the electric
	// one with plain IC(0); ict is an alias of ic0 (the ICT thermal factor
	// is gone). jacobi|none apply to both operators. PrecondOmega shapes
	// only the thermal MIC0 factor. Precision (float64|mixed), Deflation,
	// DeflationBlock, PrecondRefresh and SolverWorkers are accepted and
	// validated but ignored (v1 compatibility).
	Precond        string  `json:"precond,omitempty"`   // ict|ic0|jacobi|none
	Precision      string  `json:"precision,omitempty"` // float64|mixed
	Deflation      bool    `json:"deflation,omitempty"`
	DeflationBlock int     `json:"deflation_block,omitempty"`
	PrecondOmega   float64 `json:"precond_omega,omitempty"`
	PrecondRefresh float64 `json:"precond_refresh,omitempty"`
	SolverWorkers  int     `json:"solver_workers,omitempty"`
}

// UQ method names accepted by UQSpec.Method.
const (
	MethodNone       = "none"
	MethodMonteCarlo = "monte-carlo"
	MethodLHS        = "lhs"
	MethodHalton     = "halton"
	MethodSobol      = "sobol"
	MethodSobolOwen  = "sobol-owen"
	MethodRQMC       = "rqmc-sobol"
	MethodSmolyak    = "smolyak"
)

// Campaign modes accepted by UQSpec.Mode.
const (
	// ModeFailureProbability estimates P(T_max ≥ critical_k) with a
	// rare-event estimator instead of moment statistics.
	ModeFailureProbability = "failure_probability"
)

// Rare-event estimators for ModeFailureProbability.
const (
	// EstimatorSubset is Au–Beck subset simulation (the default).
	EstimatorSubset = "subset"
	// EstimatorImportance is mean-shift importance sampling.
	EstimatorImportance = "importance"
)

// UQSpec declares the uncertainty study of one scenario.
type UQSpec struct {
	// Method is one of the Method… constants; empty means MethodNone.
	Method string `json:"method,omitempty"`
	// Samples is the evaluation budget M for sampling methods.
	Samples int `json:"samples,omitempty"`
	// Level is the Smolyak sparse-grid level (MethodSmolyak only).
	Level int `json:"level,omitempty"`
	// Seed feeds the deterministic per-index sample streams.
	Seed uint64 `json:"seed,omitempty"`
	// Rho is the wire-to-wire elongation correlation ρ ∈ [0, 1]; nil means
	// the calibrated default.
	Rho *float64 `json:"rho,omitempty"`
	// MeanDelta and StdDelta override the paper's fitted elongation law
	// (δ ~ N(0.17, 0.048²)); zero keeps the paper's value.
	MeanDelta float64 `json:"mean_delta,omitempty"`
	StdDelta  float64 `json:"std_delta,omitempty"`
	// CriticalK overrides the failure threshold (default 523 K).
	CriticalK float64 `json:"critical_k,omitempty"`
	// Stream selects the constant-memory streaming campaign (implied by
	// the knobs below); results are bit-identical to a non-streaming run.
	Stream bool `json:"stream,omitempty"`
	// MaxSamples is the streaming sample budget (0 = Samples).
	MaxSamples int `json:"max_samples,omitempty"`
	// TargetSE / TargetCI are the adaptive stopping rules (kelvin /
	// failure-probability 95% half-width); zero disables a rule.
	TargetSE float64 `json:"target_se,omitempty"`
	TargetCI float64 `json:"target_ci,omitempty"`
	// Checkpoint persists resumable campaign state server-side.
	Checkpoint      string `json:"checkpoint,omitempty"`
	CheckpointEvery int    `json:"checkpoint_every,omitempty"`
	// Shards partitions the sample range into self-contained shards
	// runnable on a worker fleet; ShardBlock is the merge granularity.
	Shards     int `json:"shards,omitempty"`
	ShardBlock int `json:"shard_block,omitempty"`
	// Mode switches the campaign question; ModeFailureProbability selects
	// the rare-event engine and excludes Method and the streaming knobs.
	Mode string `json:"mode,omitempty"`
	// Estimator picks the rare-event driver: EstimatorSubset (default) or
	// EstimatorImportance.
	Estimator string `json:"estimator,omitempty"`
	// P0 is the subset-simulation conditional probability per level.
	P0 float64 `json:"p0,omitempty"`
	// LevelSamples is the per-level sample count N (also the
	// importance-sampling budget).
	LevelSamples int `json:"level_samples,omitempty"`
	// MaxLevels bounds the subset-simulation level count.
	MaxLevels int `json:"max_levels,omitempty"`
	// MCMCStep is the modified-Metropolis proposal standard deviation.
	MCMCStep float64 `json:"mcmc_step,omitempty"`
	// ISShift is the importance-sampling germ-space mean shift.
	ISShift float64 `json:"is_shift,omitempty"`
}

// ---------------------------------------------------------------------------
// Jobs.
// ---------------------------------------------------------------------------

// JobStatus is the lifecycle state of a job (batch or fleet).
type JobStatus string

// Job lifecycle states.
const (
	// JobQueued means the job waits for a free runner slot.
	JobQueued JobStatus = "queued"
	// JobRunning means the job is being evaluated.
	JobRunning JobStatus = "running"
	// JobDone means the job finished (individual scenarios may still have
	// failed; see the result's failed_count).
	JobDone JobStatus = "done"
	// JobFailed means the job errored before producing results.
	JobFailed JobStatus = "failed"
	// JobCanceled means the client aborted the job before it finished.
	JobCanceled JobStatus = "canceled"
)

// Finished reports whether the status is terminal.
func (s JobStatus) Finished() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// JobProgress counts finished scenarios while a batch job runs.
type JobProgress struct {
	ScenariosDone   int `json:"scenarios_done"`
	ScenariosFailed int `json:"scenarios_failed"`
	ScenariosTotal  int `json:"scenarios_total"`
}

// Job is the public view of one submitted batch job.
type Job struct {
	ID          string      `json:"id"`
	Status      JobStatus   `json:"status"`
	BatchName   string      `json:"batch_name,omitempty"`
	SubmittedAt time.Time   `json:"submitted_at"`
	StartedAt   *time.Time  `json:"started_at,omitempty"`
	FinishedAt  *time.Time  `json:"finished_at,omitempty"`
	Progress    JobProgress `json:"progress"`
	// Error is set when Status is JobFailed (or JobCanceled, recording why).
	Error string `json:"error,omitempty"`
	// Result is set when Status is JobDone (and may carry partial results
	// on a mid-batch cancel).
	Result *BatchResult `json:"result,omitempty"`
}

// JobList is the body of GET /v1/jobs: one page of jobs, newest first,
// without embedded result payloads.
type JobList struct {
	Jobs []*Job `json:"jobs"`
	// NextCursor, when non-empty, is the cursor of the next (older) page;
	// pass it back as ?cursor= to continue the walk.
	NextCursor string `json:"next_cursor,omitempty"`
}

// Health is the body of GET /healthz.
type Health struct {
	Status       string `json:"status"`
	Jobs         int    `json:"jobs"`
	FleetJobs    int    `json:"fleet_jobs"`
	CacheEntries int    `json:"cache_entries"`
	CacheHits    int64  `json:"cache_hits"`
	CacheMisses  int64  `json:"cache_misses"`
	// QueuedJobs counts jobs waiting for a runner slot (the backpressure
	// queue); MaxQueued is its capacity (0 = unbounded).
	QueuedJobs int `json:"queued_jobs"`
	MaxQueued  int `json:"max_queued,omitempty"`
	// Watchers counts open SSE event streams.
	Watchers int `json:"watchers"`
	// Persistent reports whether the server runs on a durable job store
	// (-data); false means state dies with the process.
	Persistent bool `json:"persistent"`
	// Surrogates counts ready surrogate models serving queries.
	Surrogates int `json:"surrogates,omitempty"`
}

// ---------------------------------------------------------------------------
// Results.
// ---------------------------------------------------------------------------

// BatchResult is the structured manifest of a finished batch: scenario
// results in input order plus cache and failure accounting.
type BatchResult struct {
	Name      string            `json:"name,omitempty"`
	Scenarios []*ScenarioResult `json:"scenarios"`
	// Workers/SampleWorkers record the effective pool split.
	Workers       int `json:"workers"`
	SampleWorkers int `json:"sample_workers"`
	// Assembly-cache accounting over the run.
	CacheHits    int64   `json:"cache_hits"`
	CacheMisses  int64   `json:"cache_misses"`
	CacheEntries int     `json:"cache_entries"`
	FailedCount  int     `json:"failed_count"`
	ElapsedS     float64 `json:"elapsed_s"`
}

// ScenarioResult is the structured outcome of one scenario: identification,
// cache accounting and a Fig.-7-style summary of the hottest wire against
// the critical temperature.
type ScenarioResult struct {
	Index       int    `json:"index"`
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	OK          bool   `json:"ok"`
	Error       string `json:"error,omitempty"`

	// CacheHit reports whether the mesh assembly was served from the cache.
	CacheHit bool    `json:"cache_hit"`
	ElapsedS float64 `json:"elapsed_s"`

	GridNodes int    `json:"grid_nodes,omitempty"`
	NumWires  int    `json:"num_wires,omitempty"`
	Method    string `json:"method"`
	// Samples counts successful model evaluations for sampling methods,
	// Failures the isolated per-sample failures, Evaluations the
	// quadrature nodes of a collocation run.
	Samples     int `json:"samples,omitempty"`
	Failures    int `json:"failures,omitempty"`
	Evaluations int `json:"evaluations,omitempty"`

	// Streaming-campaign accounting.
	Streamed         bool   `json:"streamed,omitempty"`
	StopReason       string `json:"stop_reason,omitempty"`
	RequestedSamples int    `json:"requested_samples,omitempty"`
	Shards           int    `json:"shards,omitempty"`

	// Hottest-wire summary (expectation for UQ methods, the single
	// trajectory for deterministic runs).
	HotWire     int     `json:"hot_wire"`
	HotWireName string  `json:"hot_wire_name,omitempty"`
	HotWireSide string  `json:"hot_wire_side,omitempty"`
	TEndMaxK    float64 `json:"t_end_max_k,omitempty"`
	SigmaK      float64 `json:"sigma_k,omitempty"`
	ErrorMCK    float64 `json:"error_mc_k,omitempty"`

	// Failure diagnostics against the critical temperature; crossing times
	// are absent when the trajectory never reaches T_crit.
	TCritK      float64  `json:"t_crit_k,omitempty"`
	CrossMeanS  *float64 `json:"cross_mean_s,omitempty"`
	Cross6SigS  *float64 `json:"cross_6sigma_s,omitempty"`
	ExceedProb  float64  `json:"exceed_prob"`
	FailProbEmp *float64 `json:"fail_prob_emp,omitempty"`
	TObsMaxK    float64  `json:"t_obs_max_k,omitempty"`
	DamageHot   float64  `json:"damage_hot,omitempty"`
	PTotalEndW  float64  `json:"p_total_end_w,omitempty"`

	// Rare-event campaign summary (uq.mode == "failure_probability"): the
	// estimator used, the failure-probability estimate with its coefficient
	// of variation, whether the subset run converged, and the per-level
	// telemetry.
	RareEstimator string      `json:"rare_estimator,omitempty"`
	PFail         *float64    `json:"p_fail,omitempty"`
	PFailCoV      float64     `json:"p_fail_cov,omitempty"`
	RareConverged bool        `json:"rare_converged,omitempty"`
	RareLevels    []RareLevel `json:"rare_levels,omitempty"`

	// Hottest-wire series for plotting: mean and standard deviation per
	// recorded time point.
	TimesS    []float64 `json:"times_s,omitempty"`
	HotMeanK  []float64 `json:"hot_mean_k,omitempty"`
	HotSigmaK []float64 `json:"hot_sigma_k,omitempty"`
}

// RareLevel summarizes one subset-simulation level: the temperature
// threshold the level conditioned on, the MCMC acceptance rate of the
// chains that produced it, the conditional exceedance probability and the
// model evaluations spent.
type RareLevel struct {
	Level      int     `json:"level"`
	ThresholdK float64 `json:"threshold_k"`
	Accept     float64 `json:"accept"`
	CondProb   float64 `json:"cond_prob"`
	Evals      int     `json:"evals"`
}

// ---------------------------------------------------------------------------
// Fleet: sharded campaigns leased to worker processes.
// ---------------------------------------------------------------------------

// Shard lease states within a fleet job.
const (
	// ShardPending means the shard waits for a worker.
	ShardPending = "pending"
	// ShardLeased means a worker holds the shard under a live lease.
	ShardLeased = "leased"
	// ShardDone means the shard's result has been accepted.
	ShardDone = "done"
)

// ShardStatus is the public state of one shard of a fleet job.
type ShardStatus struct {
	Shard    int    `json:"shard"`
	Start    int    `json:"start"`
	End      int    `json:"end"`
	Status   string `json:"status"`
	Worker   string `json:"worker,omitempty"`
	Attempts int    `json:"attempts"`
}

// ShardPlan is the deterministic partition of a campaign's sample index
// range [0, MaxSamples) into NumShards contiguous, block-aligned shards.
type ShardPlan struct {
	MaxSamples int `json:"max_samples"`
	BlockSize  int `json:"block_size"`
	NumShards  int `json:"num_shards"`
}

// FleetJob is the public state of a fleet job: the scenario, its shard
// plan and per-shard progress, plus the finalized result when done.
type FleetJob struct {
	ID         string        `json:"id"`
	Status     JobStatus     `json:"status"`
	Error      string        `json:"error,omitempty"`
	Scenario   Scenario      `json:"scenario"`
	Plan       *ShardPlan    `json:"plan"`
	Shards     []ShardStatus `json:"shards"`
	ShardsDone int           `json:"shards_done"`
	// Result is the finalized scenario result (set when Status is done).
	Result *ScenarioResult `json:"result,omitempty"`
}

// FleetLease is what a worker receives from a successful lease call:
// everything needed to run one shard, plus the lease it must keep alive.
type FleetLease struct {
	JobID   string `json:"job_id"`
	LeaseID string `json:"lease_id"`
	Shard   int    `json:"shard"`
	// LeaseTTL is how long the lease stays valid without a heartbeat.
	LeaseTTL time.Duration `json:"lease_ttl_ns"`
	Plan     *ShardPlan    `json:"plan"`
	Scenario Scenario      `json:"scenario"`
}

// ShardResult is the self-contained outcome of one shard: per-block
// accumulator state plus accounting. Blocks carry the engine's serialized
// accumulators verbatim (as raw JSON), so a result round-trips through the
// API without re-encoding and the coordinator's merged campaign stays
// bit-identical to a single-process run.
type ShardResult struct {
	Shard     int    `json:"shard"`
	Start     int    `json:"start"`
	End       int    `json:"end"`
	BlockSize int    `json:"block_size"`
	Sampler   string `json:"sampler"`
	SamplerFP uint64 `json:"sampler_fp,omitempty"`
	Tag       string `json:"tag,omitempty"`

	NumOutputs int `json:"num_outputs"`
	// Evaluated counts samples consumed from [Start, End) including
	// failures; a complete shard has Evaluated == End-Start.
	Evaluated int `json:"evaluated"`
	Failures  int `json:"failures"`
	// Blocks holds one serialized accumulator set per merge block of the
	// shard, in index order.
	Blocks []json.RawMessage `json:"blocks"`
}

// Wire bodies of the worker-facing fleet endpoints.
type (
	// LeaseRequest asks for a shard assignment (POST /v1/fleet/lease).
	LeaseRequest struct {
		Worker string `json:"worker"`
	}
	// HeartbeatRequest extends a lease (POST /v1/fleet/heartbeat).
	HeartbeatRequest struct {
		LeaseID string `json:"lease_id"`
	}
	// ShardResultRequest posts a completed shard under a lease
	// (POST /v1/fleet/result).
	ShardResultRequest struct {
		LeaseID string       `json:"lease_id"`
		Result  *ShardResult `json:"result"`
	}
	// ShardFailRequest reports a failed shard attempt under a lease
	// (POST /v1/fleet/fail).
	ShardFailRequest struct {
		LeaseID string `json:"lease_id"`
		Error   string `json:"error"`
	}
)
