package uq

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"

	"etherm/internal/pool"
	"etherm/internal/stats"
)

// Campaign stop reasons.
const (
	// StopBudget means the sample budget MaxSamples was exhausted.
	StopBudget = "budget"
	// StopTargetSE means the Monte Carlo standard error target was reached.
	StopTargetSE = "target-se"
	// StopTargetCI means the failure-probability confidence target was
	// reached.
	StopTargetCI = "target-ci"
	// StopCanceled means the context was canceled mid-campaign.
	StopCanceled = "canceled"
)

// DefaultBatchSize is the adaptive-stopping check granularity: rules are
// evaluated whenever the folded sample count crosses a multiple of the
// batch size, keeping the stop decision deterministic for any worker count.
const DefaultBatchSize = 64

// DefaultCheckpointEvery is the default folded-sample period between
// checkpoint writes when a checkpoint path is set.
const DefaultCheckpointEvery = 4096

// CampaignOptions controls a streaming sampling campaign.
type CampaignOptions struct {
	// MaxSamples is the sample budget M (the campaign never evaluates past
	// it; adaptive rules may stop earlier).
	MaxSamples int
	// Workers bounds parallel model evaluations; 0 = GOMAXPROCS. Results
	// are bit-identical for any worker count.
	Workers int

	// BatchSize is the adaptive-stopping granularity (default
	// DefaultBatchSize). Stop rules are checked when the folded count
	// reaches a multiple of it, so the stopped sample count is a
	// deterministic function of the sample stream alone.
	BatchSize int
	// TargetSE, when positive, stops the campaign once the largest
	// output-wise Monte Carlo standard error σ_j/√N (eq. 6) drops to it.
	TargetSE float64
	// TargetCI, when positive (with Threshold set), stops once the 95%
	// Wilson half-width of the any-output exceedance probability drops to it.
	TargetCI float64

	// Threshold enables exceedance/failure-probability tracking (T_crit).
	Threshold float64
	// Quantiles lists P² quantile levels sketched per output.
	Quantiles []float64

	// StoreSamples retains every sample's params and outputs in an
	// Ensemble (exact quantiles, PCE fitting) at O(M·NumOutputs) memory.
	// The default streaming path retains O(NumOutputs) accumulator state
	// only. Checkpoint/resume requires the streaming path.
	StoreSamples bool

	// CheckpointPath, when set, periodically persists a JSON Checkpoint
	// (atomic rename) every CheckpointEvery folded samples and at the end
	// of the run, so an interrupted campaign can resume bit-for-bit.
	CheckpointPath  string
	CheckpointEvery int
	// Tag is an opaque caller identity (e.g. a hash of the model
	// configuration that produces the samples). It is recorded in
	// checkpoints and must match on resume, so accumulator state from one
	// model cannot silently absorb samples from another.
	Tag string
	// Resume continues a previous campaign from its checkpoint state: the
	// sampler stream picks up at Checkpoint.Next and the accumulators are
	// preloaded, reproducing the uninterrupted run exactly.
	Resume *Checkpoint

	// OnSample, when non-nil, is invoked after every model evaluation with
	// the sample index and its error (nil on success). Called concurrently
	// from worker goroutines; must be safe for parallel use and fast.
	OnSample func(i int, err error)
}

// CampaignResult is the outcome of a streaming campaign: cumulative
// accumulator state plus accounting. With StoreSamples it also carries the
// stored Ensemble.
type CampaignResult struct {
	SamplerName string
	SamplerFP   uint64 // fingerprint of the sample stream (see Checkpoint)
	Tag         string // caller identity echoed from CampaignOptions.Tag
	NumOutputs  int
	Requested   int // sample budget MaxSamples
	Evaluated   int // samples consumed from the stream (cumulative over resumes, incl. failures)
	Failures    int // failed evaluations (cumulative)
	StopReason  string
	Stats       *stats.StreamStats
	Ensemble    *Ensemble // non-nil only with StoreSamples
}

// Succeeded returns the number of successful evaluations folded so far.
func (c *CampaignResult) Succeeded() int { return c.Evaluated - c.Failures }

// MeanAll returns the running means of all outputs.
func (c *CampaignResult) MeanAll() []float64 { return c.Stats.Moments.MeanAll() }

// StdAll returns the running standard deviations of all outputs.
func (c *CampaignResult) StdAll() []float64 { return c.Stats.Moments.StdAll() }

// Checkpoint captures the campaign state for resumption.
func (c *CampaignResult) Checkpoint() *Checkpoint {
	return &Checkpoint{
		Version:    1,
		Sampler:    c.SamplerName,
		SamplerFP:  c.SamplerFP,
		Tag:        c.Tag,
		NumOutputs: c.NumOutputs,
		Next:       c.Evaluated,
		Failures:   c.Failures,
		Stats:      c.Stats,
	}
}

// Checkpoint is the JSON-serialized resumable state of a streaming
// campaign: the next sample index plus the full accumulator state. Size is
// O(NumOutputs), independent of the samples already folded.
type Checkpoint struct {
	Version    int    `json:"version"`
	Sampler    string `json:"sampler"`
	Dim        int    `json:"dim"`
	NumOutputs int    `json:"num_outputs"`
	// SamplerFP fingerprints the sampler's actual point stream (a hash of
	// the first fingerprintPoints points), catching identity changes a name
	// cannot — a different Monte Carlo seed, QMC shift or scramble, or an
	// LHS design size.
	SamplerFP uint64 `json:"sampler_fp,omitempty"`
	// Tag echoes CampaignOptions.Tag.
	Tag      string             `json:"tag,omitempty"`
	Next     int                `json:"next"`
	Failures int                `json:"failures"`
	Stats    *stats.StreamStats `json:"stats"`
}

// fingerprintPoints is how many leading points samplerFingerprint hashes.
// One point cannot tell apart streams that agree at index 0 and diverge
// after — e.g. two randomized-QMC replicate counts over the same base
// scramble; eight catches every such divergence we ship.
const fingerprintPoints = 8

// samplerFingerprint hashes the first fingerprintPoints sampler points
// (FNV-1a over the raw float64 bits), clamped to the design size for
// bounded samplers. Index-addressable samplers are pure, so the fingerprint
// is stable across runs yet distinguishes seeds, shifts, scrambles and
// stratified design sizes.
func samplerFingerprint(s Sampler) uint64 {
	n := fingerprintPoints
	if b, ok := s.(BoundedSampler); ok && b.Len() < n {
		n = b.Len()
	}
	return fingerprintFirst(s, n)
}

// fingerprintFirst hashes the first n sampler points (FNV-1a over the raw
// float64 bits).
func fingerprintFirst(s Sampler, n int) uint64 {
	u := make([]float64, s.Dim())
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < n; i++ {
		s.Sample(i, u)
		for _, v := range u {
			b := math.Float64bits(v)
			for k := 0; k < 8; k++ {
				h ^= (b >> (8 * k)) & 0xff
				h *= prime64
			}
		}
	}
	if h == 0 {
		h = 1 // keep 0 free as "not fingerprinted"
	}
	return h
}

// checkSamplerFP validates a checkpointed fingerprint against the current
// sampler. A zero stored value (never fingerprinted) passes; anything else
// must match the current stream exactly.
func checkSamplerFP(stored uint64, s Sampler) error {
	if stored == 0 || stored == samplerFingerprint(s) {
		return nil
	}
	return fmt.Errorf("uq: checkpoint was written by a different %s sample stream (changed seed, shift, scramble or design size)", s.Name())
}

// saveAtomicJSON marshals v and writes it atomically (temp file + rename in
// the destination directory), creating parent directories as needed. All
// checkpoint writers share it so a crash mid-write never leaves a torn
// state file behind.
func saveAtomicJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	if dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// loadJSON reads and unmarshals a JSON state file.
func loadJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("uq: checkpoint %s: %w", path, err)
	}
	return nil
}

// Save writes the checkpoint atomically (temp file + rename).
func (c *Checkpoint) Save(path string) error {
	return saveAtomicJSON(path, c)
}

// LoadCheckpoint reads a checkpoint file.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	var c Checkpoint
	if err := loadJSON(path, &c); err != nil {
		return nil, err
	}
	if c.Version != 1 || c.Stats == nil || c.Stats.Moments == nil {
		return nil, fmt.Errorf("uq: checkpoint %s: unsupported or corrupt state", path)
	}
	return &c, nil
}

// LoadCheckpointIfExists loads a checkpoint when the file exists and
// returns (nil, nil) when it does not — the resume-if-present pattern of
// the scenario engine and study front-ends. Errors other than absence
// (unreadable file, corrupt state) are reported, not swallowed.
func LoadCheckpointIfExists(path string) (*Checkpoint, error) {
	c, err := LoadCheckpoint(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	return c, err
}

// sample is one evaluated campaign sample on its way to the fold.
type sample struct {
	params, out []float64
	err         error
}

// sampleWorkers builds the worker models for the given number of remaining
// samples through pool.Build, the probe as worker 0; workers ≤ 0 means
// GOMAXPROCS.
func sampleWorkers(probe Model, factory ModelFactory, workers, remaining int) ([]Model, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return pool.Build(min(workers, remaining), func(k int) (Model, error) {
		if k == 0 {
			return probe, nil
		}
		m, err := factory()
		if err != nil {
			return nil, fmt.Errorf("uq: worker setup: %w", err)
		}
		return m, nil
	})
}

// evalSample returns the pool evaluation of campaign sample i: sampler
// point i through dists into the worker's model. A failing or panicking
// model marks the sample failed instead of stopping the campaign.
func evalSample(s Sampler, dists []Dist, nOut int, onSample func(int, error)) func(Model, int, *sample) error {
	return func(m Model, i int, r *sample) error {
		if r.out == nil {
			r.params, r.out = make([]float64, len(dists)), make([]float64, nOut)
		}
		s.Sample(i, r.params)
		TransformPoint(dists, r.params, r.params)
		r.err = safeEval(m, r.params, r.out)
		if onSample != nil {
			onSample(i, r.err)
		}
		return nil
	}
}

// RunCampaign evaluates up to opt.MaxSamples sampler points through models
// from the factory, folding each sample's outputs into streaming
// accumulators the moment it completes. Sample i is deterministic (sampler
// point i through dists) and results are folded in strict index order, so
// every statistic — including the adaptive stop decision — is bit-identical
// for any worker count. Memory on the streaming path is O(NumOutputs).
//
// On context cancellation the partial result is returned together with the
// context error; a checkpoint (when configured) has been written so the
// campaign can resume. A campaign where every evaluation failed returns an
// error, like RunEnsemble.
func RunCampaign(ctx context.Context, factory ModelFactory, dists []Dist, s Sampler, opt CampaignOptions) (*CampaignResult, error) {
	if opt.MaxSamples <= 0 {
		return nil, fmt.Errorf("uq: campaign needs a positive sample budget")
	}
	if err := CheckBudget(s, opt.MaxSamples); err != nil {
		return nil, err
	}
	if s.Dim() != len(dists) {
		return nil, fmt.Errorf("uq: sampler dimension %d does not match %d distributions", s.Dim(), len(dists))
	}
	probe, err := factory()
	if err != nil {
		return nil, fmt.Errorf("uq: model factory: %w", err)
	}
	if probe.Dim() != len(dists) {
		return nil, fmt.Errorf("uq: model dimension %d does not match %d distributions", probe.Dim(), len(dists))
	}
	nOut := probe.NumOutputs()

	// Resume or fresh accumulator state.
	start, failures := 0, 0
	var st *stats.StreamStats
	fp := samplerFingerprint(s)
	if opt.Resume != nil {
		cp := opt.Resume
		if opt.StoreSamples {
			return nil, fmt.Errorf("uq: checkpoint resume requires the streaming path (StoreSamples off)")
		}
		if cp.Sampler != s.Name() || (cp.Dim != 0 && cp.Dim != s.Dim()) || cp.NumOutputs != nOut {
			return nil, fmt.Errorf("uq: checkpoint (sampler %s, dim %d, %d outputs) does not match campaign (sampler %s, dim %d, %d outputs)",
				cp.Sampler, cp.Dim, cp.NumOutputs, s.Name(), s.Dim(), nOut)
		}
		if err := checkSamplerFP(cp.SamplerFP, s); err != nil {
			return nil, err
		}
		if cp.Tag != opt.Tag {
			return nil, fmt.Errorf("uq: checkpoint tag %q does not match campaign tag %q (model or configuration changed)", cp.Tag, opt.Tag)
		}
		if opt.Threshold > 0 && cp.Stats.Threshold != opt.Threshold {
			return nil, fmt.Errorf("uq: checkpoint threshold %g does not match campaign threshold %g", cp.Stats.Threshold, opt.Threshold)
		}
		if len(opt.Quantiles) > 0 && len(opt.Quantiles) != len(cp.Stats.Probs) {
			return nil, fmt.Errorf("uq: checkpoint sketches %d quantiles, campaign wants %d", len(cp.Stats.Probs), len(opt.Quantiles))
		}
		st = cp.Stats
		start, failures = cp.Next, cp.Failures
	} else {
		st, err = stats.NewStreamStats(nOut, opt.Threshold, opt.Quantiles)
		if err != nil {
			return nil, err
		}
	}

	res := &CampaignResult{
		SamplerName: s.Name(),
		SamplerFP:   fp,
		Tag:         opt.Tag,
		NumOutputs:  nOut,
		Requested:   opt.MaxSamples,
		Evaluated:   start,
		Failures:    failures,
		Stats:       st,
	}
	if start >= opt.MaxSamples {
		res.StopReason = StopBudget
		return res, nil
	}

	batch := opt.BatchSize
	if batch <= 0 {
		batch = DefaultBatchSize
	}
	// Resuming at a batch boundary re-evaluates the stop rules before any
	// work: a campaign that already stopped adaptively (always at a
	// boundary) becomes a no-op on resubmission instead of burning another
	// batch. Mid-batch checkpoints (cancellation) skip this so the resumed
	// run keeps making exactly the boundary decisions of an uninterrupted
	// one.
	if start > 0 && start%batch == 0 {
		if r := stopReason(st, opt); r != "" {
			res.StopReason = r
			return res, nil
		}
	}
	cpEvery := opt.CheckpointEvery
	if cpEvery <= 0 {
		cpEvery = DefaultCheckpointEvery
	}

	ws, err := sampleWorkers(probe, factory, opt.Workers, opt.MaxSamples-start)
	if err != nil {
		return nil, err
	}
	var ens *Ensemble
	if opt.StoreSamples {
		ens = &Ensemble{
			SamplerName: s.Name(),
			M:           opt.MaxSamples,
			NumOutputs:  nOut,
			Params:      make([][]float64, opt.MaxSamples),
			Outputs:     make([][]float64, opt.MaxSamples),
		}
	}

	next := start
	var firstErr, cpErr error
	writeCheckpoint := func() {
		if opt.CheckpointPath == "" || cpErr != nil {
			return
		}
		cp := &Checkpoint{
			Version: 1, Sampler: s.Name(), Dim: s.Dim(), NumOutputs: nOut,
			SamplerFP: fp, Tag: opt.Tag,
			Next: next, Failures: res.Failures, Stats: st,
		}
		cpErr = cp.Save(opt.CheckpointPath)
	}
	// The pool folds samples in strict index order, so the accumulators
	// see exactly the sequence start, start+1, … for any worker count.
	fold := func(i int, r *sample) bool {
		if r.err != nil {
			res.Failures++
			if firstErr == nil {
				firstErr = r.err
			}
		} else {
			st.Add(r.out)
			if ens != nil {
				ens.Params[i] = slices.Clone(r.params)
				ens.Outputs[i] = slices.Clone(r.out)
			}
		}
		next = i + 1
		res.Evaluated = next
		if opt.CheckpointPath != "" && next%cpEvery == 0 {
			writeCheckpoint()
		}
		if next < opt.MaxSamples && next%batch == 0 {
			if r := stopReason(st, opt); r != "" {
				res.StopReason = r
				return false
			}
		}
		return true
	}
	switch err := pool.Run(ctx, ws, start, opt.MaxSamples, evalSample(s, dists, nOut, opt.OnSample), fold); {
	case err == nil:
	case err == ctx.Err():
		res.StopReason = StopCanceled
	default:
		return nil, fmt.Errorf("uq: campaign: %w", err)
	}
	if res.StopReason == "" {
		res.StopReason = StopBudget
	}
	writeCheckpoint()
	if cpErr != nil {
		return res, fmt.Errorf("uq: campaign checkpoint: %w", cpErr)
	}

	if ens != nil {
		ens.M = res.Evaluated
		ens.Params = ens.Params[:res.Evaluated]
		ens.Outputs = ens.Outputs[:res.Evaluated]
		ens.Failures = res.Failures
		res.Ensemble = ens
	}
	if res.Failures == res.Evaluated && res.Evaluated > 0 {
		return nil, fmt.Errorf("uq: every campaign evaluation failed; first error: %w", firstErr)
	}
	if res.StopReason == StopCanceled {
		return res, ctx.Err()
	}
	return res, nil
}

// stopReason evaluates the adaptive stopping rules on the folded prefix.
func stopReason(st *stats.StreamStats, opt CampaignOptions) string {
	if opt.TargetSE > 0 && st.Moments.N >= 2 && st.Moments.MaxSE() <= opt.TargetSE {
		return StopTargetSE
	}
	if opt.TargetCI > 0 && opt.Threshold > 0 && st.ExceedAny.N > 0 &&
		st.ExceedAny.HalfWidth(1.96) <= opt.TargetCI {
		return StopTargetCI
	}
	return ""
}
