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
// evaluated whenever the folded sample count reaches a multiple of it, so
// the stopped sample count is a deterministic function of the sample
// stream alone, for any worker count.
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

	// TargetSE, when positive, stops the campaign once the largest
	// output-wise Monte Carlo standard error σ_j/√N (eq. 6) drops to it,
	// checked every DefaultBatchSize folded samples.
	TargetSE float64
	// TargetCI, when positive (with Threshold set), stops once the 95%
	// Wilson half-width of the any-output exceedance probability drops to it.
	TargetCI float64

	// Threshold enables exceedance/failure-probability tracking (T_crit).
	Threshold float64
	// Quantiles lists P² quantile levels sketched per output.
	Quantiles []float64

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
// accumulator state plus accounting.
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
// returns (nil, nil) when it does not — the scenario engine's
// resume-if-present pattern. Errors other than absence (unreadable file,
// corrupt state) are reported, not swallowed.
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

// fold is the ordered fold of sampler points through worker models that
// RunCampaign and RunShard share. Each sets the fields up to step, calls
// prepare and then run; save writes its checkpoint at next, step decides
// what sample i folds into and whether to go on.
type fold struct {
	factory  ModelFactory
	dists    []Dist
	s        Sampler
	name     string // "campaign" or "shard k", in error messages
	first    int    // index the failure accounting counts from
	end      int    // the fold covers [next, end)
	workers  int    // ≤ 0 means GOMAXPROCS
	onSample func(i int, err error)
	cpPath   string // checkpoint file; "" writes none
	cpEvery  int    // ≤ 0 means DefaultCheckpointEvery
	save     func(path string) error
	step     func(i int, r *sample) bool

	probe Model // worker 0's model, set by prepare with nOut and fp
	nOut  int
	fp    uint64

	// Accounting; a resumed campaign or shard preloads next and failures.
	next, failures int
	firstErr       error
	canceled       bool
}

// prepare checks the sampler, distributions and budget against each other
// and against the factory's first model, which becomes worker 0.
func (f *fold) prepare(budget int) error {
	if f.s.Dim() != len(f.dists) {
		return fmt.Errorf("uq: sampler dimension %d does not match %d distributions", f.s.Dim(), len(f.dists))
	}
	if err := CheckBudget(f.s, budget); err != nil {
		return err
	}
	probe, err := f.factory()
	if err != nil {
		return fmt.Errorf("uq: model factory: %w", err)
	}
	if probe.Dim() != len(f.dists) {
		return fmt.Errorf("uq: model dimension %d does not match %d distributions", probe.Dim(), len(f.dists))
	}
	f.probe, f.nOut, f.fp = probe, probe.NumOutputs(), samplerFingerprint(f.s)
	return nil
}

// checkResume is the resume guard of both checkpoint formats: it rejects
// state that another sample stream, model or threshold wrote, so a resume
// never silently absorbs mixed samples. cp carries the stored identity in
// the campaign checkpoint's fields (a shard checkpoint records no Dim; a
// zero SamplerFP was never fingerprinted and passes), and stored is the
// threshold the state tracked.
func (f *fold) checkResume(cp Checkpoint, stored float64, tag string, threshold float64) error {
	switch {
	case cp.Sampler != f.s.Name():
		return fmt.Errorf("uq: checkpoint sampler %q does not match campaign sampler %q", cp.Sampler, f.s.Name())
	case cp.Dim != 0 && cp.Dim != f.s.Dim():
		return fmt.Errorf("uq: checkpoint sampler dimension %d does not match campaign dimension %d", cp.Dim, f.s.Dim())
	case cp.SamplerFP != 0 && cp.SamplerFP != f.fp:
		return fmt.Errorf("uq: checkpoint was written by a different %s sample stream (changed seed, shift, scramble or design size)", f.s.Name())
	case cp.Tag != tag:
		return fmt.Errorf("uq: checkpoint tag %q does not match campaign tag %q (model or configuration changed)", cp.Tag, tag)
	case cp.NumOutputs != f.nOut:
		return fmt.Errorf("uq: checkpoint has %d outputs, model has %d", cp.NumOutputs, f.nOut)
	case stored != threshold:
		return fmt.Errorf("uq: checkpoint threshold %g does not match campaign threshold %g", stored, threshold)
	}
	return nil
}

// run evaluates sampler points [next, end) through dists into the worker
// models and folds them in strict index order, so every accumulator sees
// the same sequence for any worker count. A failing or panicking model
// marks its sample failed (counted, the first error kept) instead of
// stopping the fold. The checkpoint is written every cpEvery folded
// samples and once at the end.
//
// partial reports that the caller's result goes back with err: the
// context ended the fold (err is ctx.Err()) or the checkpoint write
// failed. Any other error leaves no result, including a fold in which
// every evaluation failed.
func (f *fold) run(ctx context.Context) (partial bool, err error) {
	workers := f.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ws, err := pool.Build(min(workers, f.end-f.next), func(k int) (Model, error) {
		if k == 0 {
			return f.probe, nil
		}
		m, err := f.factory()
		if err != nil {
			return nil, fmt.Errorf("uq: worker setup: %w", err)
		}
		return m, nil
	})
	if err != nil {
		return false, err
	}
	cpEvery := f.cpEvery
	if cpEvery <= 0 {
		cpEvery = DefaultCheckpointEvery
	}
	var cpErr error
	write := func() {
		if f.cpPath != "" && cpErr == nil {
			cpErr = f.save(f.cpPath)
		}
	}
	eval := func(m Model, i int, r *sample) error {
		if r.out == nil {
			r.params, r.out = make([]float64, len(f.dists)), make([]float64, f.nOut)
		}
		f.s.Sample(i, r.params)
		TransformPoint(f.dists, r.params, r.params)
		r.err = safeEval(m, r.params, r.out)
		if f.onSample != nil {
			f.onSample(i, r.err)
		}
		return nil
	}
	runErr := pool.Run(ctx, ws, f.next, f.end, eval, func(i int, r *sample) bool {
		if r.err != nil {
			f.failures++
			if f.firstErr == nil {
				f.firstErr = r.err
			}
		}
		more := f.step(i, r)
		f.next = i + 1
		if f.cpPath != "" && f.next%cpEvery == 0 && f.next < f.end {
			write()
		}
		return more
	})
	if runErr != nil && runErr != ctx.Err() {
		return false, fmt.Errorf("uq: %s: %w", f.name, runErr)
	}
	f.canceled = runErr != nil
	write()
	switch {
	case cpErr != nil:
		return true, fmt.Errorf("uq: %s checkpoint: %w", f.name, cpErr)
	case f.canceled:
		return true, runErr
	case f.failures > 0 && f.failures == f.next-f.first:
		return false, fmt.Errorf("uq: every %s evaluation failed; first error: %w", f.name, f.firstErr)
	}
	return false, nil
}

// RunCampaign evaluates up to opt.MaxSamples sampler points through models
// from the factory, folding each sample's outputs into streaming
// accumulators the moment it completes. Sample i is deterministic (sampler
// point i through dists) and results are folded in strict index order, so
// every statistic — including the adaptive stop decision — is bit-identical
// for any worker count. Memory is O(NumOutputs), whatever the budget.
//
// On context cancellation the partial result is returned together with the
// context error; a checkpoint (when configured) has been written so the
// campaign can resume. A campaign where every evaluation failed returns an
// error.
func RunCampaign(ctx context.Context, factory ModelFactory, dists []Dist, s Sampler, opt CampaignOptions) (*CampaignResult, error) {
	if opt.MaxSamples <= 0 {
		return nil, fmt.Errorf("uq: campaign needs a positive sample budget")
	}
	f := &fold{
		factory: factory, dists: dists, s: s, name: "campaign", end: opt.MaxSamples,
		workers: opt.Workers, onSample: opt.OnSample,
		cpPath: opt.CheckpointPath, cpEvery: opt.CheckpointEvery,
	}
	if err := f.prepare(opt.MaxSamples); err != nil {
		return nil, err
	}

	// Resume or fresh accumulator state.
	var st *stats.StreamStats
	if cp := opt.Resume; cp != nil {
		threshold := opt.Threshold
		if threshold <= 0 {
			threshold = cp.Stats.Threshold // no threshold asked: keep the checkpoint's
		}
		if err := f.checkResume(*cp, cp.Stats.Threshold, opt.Tag, threshold); err != nil {
			return nil, err
		}
		if len(opt.Quantiles) > 0 && len(opt.Quantiles) != len(cp.Stats.Probs) {
			return nil, fmt.Errorf("uq: checkpoint sketches %d quantiles, campaign wants %d", len(cp.Stats.Probs), len(opt.Quantiles))
		}
		st, f.next, f.failures = cp.Stats, cp.Next, cp.Failures
	} else {
		var err error
		if st, err = stats.NewStreamStats(f.nOut, opt.Threshold, opt.Quantiles); err != nil {
			return nil, err
		}
	}

	res := &CampaignResult{
		SamplerName: s.Name(),
		SamplerFP:   f.fp,
		Tag:         opt.Tag,
		NumOutputs:  f.nOut,
		Requested:   opt.MaxSamples,
		Evaluated:   f.next,
		Failures:    f.failures,
		Stats:       st,
	}
	if f.next >= opt.MaxSamples {
		res.StopReason = StopBudget
		return res, nil
	}

	// Resuming at a batch boundary re-evaluates the stop rules before any
	// work: a campaign that already stopped adaptively (always at a
	// boundary) becomes a no-op on resubmission instead of burning another
	// batch. Mid-batch checkpoints (cancellation) skip this so the resumed
	// run keeps making exactly the boundary decisions of an uninterrupted
	// one.
	if f.next > 0 && f.next%DefaultBatchSize == 0 {
		if r := stopReason(st, opt); r != "" {
			res.StopReason = r
			return res, nil
		}
	}

	f.save = func(path string) error {
		res.Evaluated, res.Failures = f.next, f.failures
		cp := res.Checkpoint()
		cp.Dim = s.Dim()
		return cp.Save(path)
	}
	f.step = func(i int, r *sample) bool {
		if r.err == nil {
			st.Add(r.out)
		}
		if n := i + 1; n < opt.MaxSamples && n%DefaultBatchSize == 0 {
			res.StopReason = stopReason(st, opt)
		}
		return res.StopReason == ""
	}
	partial, err := f.run(ctx)
	if err != nil && !partial {
		return nil, err
	}
	res.Evaluated, res.Failures = f.next, f.failures
	switch {
	case f.canceled:
		res.StopReason = StopCanceled
	case res.StopReason == "":
		res.StopReason = StopBudget
	}
	return res, err
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
