// Sharded campaign execution: a deterministic partition of the sample index
// range into K self-contained shards, each runnable on a different process
// or machine, whose merged result is bit-identical for ANY shard count K,
// worker placement or per-shard worker count.
//
// The invariance trick is a fixed merge granularity: the index range is cut
// into blocks of ShardPlan.BlockSize samples (a property of the campaign,
// never of K), every shard folds each of its blocks into a fresh
// stats.StreamStats in strict index order, and MergeShards folds the blocks
// back together in global block order. Because block boundaries and the
// merge sequence do not depend on K, the merged accumulators are the same
// bits no matter how the blocks were grouped into shards or which worker
// computed them. (The merged result is deterministic but not bit-identical
// to the single-fold streaming path of RunCampaign, whose accumulators see
// one unpartitioned stream; compare sharded runs against a 1-shard run.)
package uq

import (
	"context"
	"errors"
	"fmt"
	"io/fs"

	"etherm/internal/stats"
)

// DefaultShardBlockSize is the default merge granularity of a shard plan.
// It must be a property of the campaign alone — deriving it from the shard
// or worker count would break cross-K bit-identity.
const DefaultShardBlockSize = 64

// ShardPlan is the deterministic partition of a campaign's sample index
// range [0, MaxSamples) into NumShards contiguous, block-aligned shards. It
// is pure data (JSON-serializable) so a coordinator can ship it to workers;
// two plans with equal fields describe byte-identical work.
type ShardPlan struct {
	MaxSamples int `json:"max_samples"`
	BlockSize  int `json:"block_size"`
	NumShards  int `json:"num_shards"`
}

// PlanShards partitions maxSamples samples into shards contiguous shards
// aligned to blockSize (0 = DefaultShardBlockSize). Blocks are distributed
// as evenly as possible; when there are fewer blocks than shards the tail
// shards are empty (still valid: they complete immediately).
func PlanShards(maxSamples, shards, blockSize int) (*ShardPlan, error) {
	if maxSamples <= 0 {
		return nil, fmt.Errorf("uq: shard plan needs a positive sample budget, got %d", maxSamples)
	}
	if shards <= 0 {
		return nil, fmt.Errorf("uq: shard plan needs at least one shard, got %d", shards)
	}
	if blockSize < 0 {
		return nil, fmt.Errorf("uq: negative shard block size %d", blockSize)
	}
	if blockSize == 0 {
		blockSize = DefaultShardBlockSize
	}
	return &ShardPlan{MaxSamples: maxSamples, BlockSize: blockSize, NumShards: shards}, nil
}

// Validate checks a plan received over the wire.
func (p *ShardPlan) Validate() error {
	if p.MaxSamples <= 0 || p.BlockSize <= 0 || p.NumShards <= 0 {
		return fmt.Errorf("uq: invalid shard plan %+v", *p)
	}
	return nil
}

// NumBlocks returns the number of merge blocks of the plan.
func (p *ShardPlan) NumBlocks() int {
	return (p.MaxSamples + p.BlockSize - 1) / p.BlockSize
}

// Shard returns the sample index range [start, end) of shard k. Shards are
// contiguous, block-aligned and cover [0, MaxSamples) exactly; an empty
// shard has start == end.
func (p *ShardPlan) Shard(k int) (start, end int) {
	nb := p.NumBlocks()
	base, rem := nb/p.NumShards, nb%p.NumShards
	b0 := k*base + min(k, rem)
	b1 := b0 + base
	if k < rem {
		b1++
	}
	start = min(b0*p.BlockSize, p.MaxSamples)
	end = min(b1*p.BlockSize, p.MaxSamples)
	return start, end
}

// shardBlocks returns how many blocks span [start, next) of a shard whose
// start is block-aligned.
func (p *ShardPlan) shardBlocks(start, next int) int {
	if next <= start {
		return 0
	}
	return (next - start + p.BlockSize - 1) / p.BlockSize
}

// ShardOptions controls one shard execution (and the local sequential
// driver RunShardedCampaign). Unlike CampaignOptions there are no adaptive
// stopping targets: a sharded campaign is budget-only, because a stopping
// decision would need the globally folded prefix no single shard sees.
type ShardOptions struct {
	// Workers bounds parallel model evaluations inside the shard;
	// 0 = GOMAXPROCS. Per-block folding is in strict index order, so shard
	// results are bit-identical for any worker count.
	Workers int
	// Threshold enables exceedance/failure-probability tracking (T_crit).
	Threshold float64
	// Tag is the caller's model identity, recorded in shard results and
	// checkpoints and required to be consistent at merge and resume time.
	Tag string
	// CheckpointPath, when set, is the BASE checkpoint path of the
	// campaign; shard k persists to ShardCheckpointPath(base, k)
	// ("<base>.shard-k"), so concurrent shards never mix state.
	CheckpointPath  string
	CheckpointEvery int
	// Resume loads an existing shard checkpoint file (fingerprint-, tag-
	// and plan-validated) and continues from it; when false an existing
	// file is ignored and overwritten.
	Resume bool
	// OnSample forwards per-evaluation progress; called concurrently from
	// worker goroutines.
	OnSample func(i int, err error)
}

// ShardResult is the self-contained outcome of one shard: per-block
// accumulator state plus accounting. It JSON-round-trips exactly, so a
// worker can post it to a coordinator and the merged campaign stays
// bit-identical to a local run.
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
	// Blocks holds one accumulator set per merge block of the shard, in
	// index order. A block where every sample failed has zero-count
	// accumulators and merges as a no-op.
	Blocks []*stats.StreamStats `json:"blocks"`
}

// Complete reports whether the shard consumed its whole index range.
func (r *ShardResult) Complete() bool { return r.Evaluated == r.End-r.Start }

// ShardCheckpoint is the resumable state of one shard, the per-shard
// analogue of Checkpoint. It lives in its own ".shard-N" file so resumed
// sharded campaigns never mix shard state.
type ShardCheckpoint struct {
	Version   int    `json:"version"`
	Sampler   string `json:"sampler"`
	SamplerFP uint64 `json:"sampler_fp,omitempty"`
	Tag       string `json:"tag,omitempty"`

	Shard      int     `json:"shard"`
	Start      int     `json:"start"`
	End        int     `json:"end"`
	BlockSize  int     `json:"block_size"`
	NumOutputs int     `json:"num_outputs"`
	Threshold  float64 `json:"threshold,omitempty"`

	Next     int                  `json:"next"`
	Failures int                  `json:"failures"`
	Blocks   []*stats.StreamStats `json:"blocks"`
}

// ShardCheckpointPath returns the checkpoint file of shard k under a
// campaign's base checkpoint path: "<base>.shard-<k>".
func ShardCheckpointPath(base string, k int) string {
	return fmt.Sprintf("%s.shard-%d", base, k)
}

// Save writes the shard checkpoint atomically (temp file + rename).
func (c *ShardCheckpoint) Save(path string) error {
	return saveAtomicJSON(path, c)
}

// LoadShardCheckpoint reads a shard checkpoint file.
func LoadShardCheckpoint(path string) (*ShardCheckpoint, error) {
	var c ShardCheckpoint
	if err := loadJSON(path, &c); err != nil {
		return nil, err
	}
	if c.Version != 1 {
		return nil, fmt.Errorf("uq: shard checkpoint %s: unsupported version %d", path, c.Version)
	}
	return &c, nil
}

// RunShard evaluates shard k of the plan: sampler points [start, end)
// through models from the factory, folded in strict index order into one
// fresh stats.StreamStats per merge block. The result is bit-identical for
// any worker count, and — because block boundaries come from the plan, not
// the shard — byte-for-byte the state MergeShards needs for cross-K
// invariance.
//
// With a checkpoint configured the shard persists its state to
// ShardCheckpointPath(opt.CheckpointPath, k) every CheckpointEvery folded
// samples and on return; with opt.Resume an existing (validated) checkpoint
// continues bit-for-bit. On context cancellation the partial result is
// returned together with the context error.
func RunShard(ctx context.Context, factory ModelFactory, dists []Dist, s Sampler, plan *ShardPlan, shard int, opt ShardOptions) (*ShardResult, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if shard < 0 || shard >= plan.NumShards {
		return nil, fmt.Errorf("uq: shard %d outside plan of %d shards", shard, plan.NumShards)
	}
	start, end := plan.Shard(shard)
	f := &fold{
		factory: factory, dists: dists, s: s, name: fmt.Sprintf("shard %d", shard),
		first: start, next: start, end: end,
		workers: opt.Workers, onSample: opt.OnSample, cpEvery: opt.CheckpointEvery,
	}
	if opt.CheckpointPath != "" {
		f.cpPath = ShardCheckpointPath(opt.CheckpointPath, shard)
	}
	if err := f.prepare(plan.MaxSamples); err != nil {
		return nil, err
	}

	var blocks []*stats.StreamStats
	if opt.Resume && f.cpPath != "" {
		cp, err := LoadShardCheckpoint(f.cpPath)
		switch {
		case errors.Is(err, fs.ErrNotExist):
		case err != nil:
			return nil, err
		default:
			id := Checkpoint{Sampler: cp.Sampler, SamplerFP: cp.SamplerFP, Tag: cp.Tag, NumOutputs: cp.NumOutputs}
			if err := f.checkResume(id, cp.Threshold, opt.Tag, opt.Threshold); err != nil {
				return nil, err
			}
			// The plan geometry decides which samples belong to the shard.
			switch {
			case cp.Shard != shard || cp.Start != start || cp.End != end || cp.BlockSize != plan.BlockSize:
				return nil, fmt.Errorf("uq: shard checkpoint covers shard %d [%d,%d) blocks of %d, campaign plans shard %d [%d,%d) blocks of %d (shard plan changed)",
					cp.Shard, cp.Start, cp.End, cp.BlockSize, shard, start, end, plan.BlockSize)
			case cp.Next < start || cp.Next > end:
				return nil, fmt.Errorf("uq: shard checkpoint position %d outside shard range [%d,%d)", cp.Next, start, end)
			case len(cp.Blocks) != plan.shardBlocks(start, cp.Next):
				return nil, fmt.Errorf("uq: shard checkpoint has %d blocks for %d folded samples (corrupt state)", len(cp.Blocks), cp.Next-start)
			}
			f.next, f.failures, blocks = cp.Next, cp.Failures, cp.Blocks
		}
	}
	res := &ShardResult{
		Shard: shard, Start: start, End: end, BlockSize: plan.BlockSize,
		Sampler: s.Name(), SamplerFP: f.fp, Tag: opt.Tag, NumOutputs: f.nOut,
		Evaluated: f.next - start, Failures: f.failures, Blocks: blocks,
	}
	if f.next >= end {
		return res, nil // empty shard or already-complete checkpoint
	}

	// Validate the accumulator construction once, before any worker starts:
	// the step's constructor below then cannot fail (it sketches no
	// quantiles).
	if _, err := stats.NewStreamStats(f.nOut, opt.Threshold, nil); err != nil {
		return nil, err
	}
	f.save = func(path string) error {
		cp := &ShardCheckpoint{
			Version: 1, Sampler: s.Name(), SamplerFP: f.fp, Tag: opt.Tag,
			Shard: shard, Start: start, End: end, BlockSize: plan.BlockSize,
			NumOutputs: f.nOut, Threshold: opt.Threshold,
			Next: f.next, Failures: f.failures, Blocks: blocks,
		}
		return cp.Save(path)
	}
	// Crossing a global block boundary starts a fresh accumulator set, even
	// when the block's first sample failed, so blocks are independent of
	// everything but the sample stream.
	f.step = func(i int, r *sample) bool {
		if i%plan.BlockSize == 0 || len(blocks) == 0 {
			st, _ := stats.NewStreamStats(f.nOut, opt.Threshold, nil) // validated above
			blocks = append(blocks, st)
		}
		if r.err == nil {
			blocks[len(blocks)-1].Add(r.out)
		}
		return true
	}
	partial, err := f.run(ctx)
	if err != nil && !partial {
		return nil, err
	}
	res.Evaluated, res.Failures, res.Blocks = f.next-start, f.failures, blocks
	return res, err
}

// MergeShards folds complete shard results back into one campaign result by
// merging their blocks in global block order. The merge sequence depends
// only on the plan — never on K, worker placement or per-shard worker
// counts — so any partitioning of the same sample stream produces
// bit-identical merged accumulators. Incomplete, inconsistent (mixed
// fingerprint/tag) or missing shards are rejected.
func MergeShards(plan *ShardPlan, results []*ShardResult) (*CampaignResult, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if len(results) != plan.NumShards {
		return nil, fmt.Errorf("uq: merge got %d shard results, plan has %d shards", len(results), plan.NumShards)
	}
	ordered := make([]*ShardResult, plan.NumShards)
	for _, r := range results {
		if r == nil {
			return nil, fmt.Errorf("uq: merge got a nil shard result")
		}
		if r.Shard < 0 || r.Shard >= plan.NumShards {
			return nil, fmt.Errorf("uq: shard index %d outside plan of %d shards", r.Shard, plan.NumShards)
		}
		if ordered[r.Shard] != nil {
			return nil, fmt.Errorf("uq: duplicate result for shard %d", r.Shard)
		}
		ordered[r.Shard] = r
	}

	first := ordered[0]
	res := &CampaignResult{
		SamplerName: first.Sampler,
		SamplerFP:   first.SamplerFP,
		Tag:         first.Tag,
		NumOutputs:  first.NumOutputs,
		Requested:   plan.MaxSamples,
		StopReason:  StopBudget,
	}
	var merged *stats.StreamStats
	for k, r := range ordered {
		start, end := plan.Shard(k)
		if r.Start != start || r.End != end || r.BlockSize != plan.BlockSize {
			return nil, fmt.Errorf("uq: shard %d result covers [%d,%d) blocks of %d, plan says [%d,%d) blocks of %d",
				k, r.Start, r.End, r.BlockSize, start, end, plan.BlockSize)
		}
		if !r.Complete() {
			return nil, fmt.Errorf("uq: shard %d is incomplete (%d of %d samples)", k, r.Evaluated, end-start)
		}
		if r.Sampler != first.Sampler || r.SamplerFP != first.SamplerFP {
			return nil, fmt.Errorf("uq: shard %d came from sampler %q (fp %x), shard 0 from %q (fp %x) — mixed sample streams",
				k, r.Sampler, r.SamplerFP, first.Sampler, first.SamplerFP)
		}
		if r.Tag != first.Tag {
			return nil, fmt.Errorf("uq: shard %d tag %q does not match shard 0 tag %q — mixed models", k, r.Tag, first.Tag)
		}
		if r.NumOutputs != first.NumOutputs {
			return nil, fmt.Errorf("uq: shard %d has %d outputs, shard 0 has %d", k, r.NumOutputs, first.NumOutputs)
		}
		if want := plan.shardBlocks(start, end); len(r.Blocks) != want {
			return nil, fmt.Errorf("uq: shard %d has %d blocks, expected %d", k, len(r.Blocks), want)
		}
		res.Evaluated += r.Evaluated
		res.Failures += r.Failures
		for _, b := range r.Blocks {
			if merged == nil {
				st, err := stats.NewStreamStats(first.NumOutputs, b.Threshold, nil)
				if err != nil {
					return nil, err
				}
				merged = st
			}
			if err := merged.Merge(b); err != nil {
				return nil, fmt.Errorf("uq: merging shard %d: %w", k, err)
			}
		}
	}
	res.Stats = merged // non-nil: a valid plan has at least one block
	if res.Failures == res.Evaluated && res.Evaluated > 0 {
		return nil, fmt.Errorf("uq: every evaluation of the sharded campaign failed")
	}
	return res, nil
}

// RunShardedCampaign is the local driver: it runs every shard of the plan
// in shard order through RunShard and merges the results. It exists for
// single-box sharded runs (parity testing, resumable partitioned jobs) —
// the fleet coordinator and etworker pull loop distribute the same shards
// across processes and merge with the same MergeShards, so both paths are
// bit-identical.
func RunShardedCampaign(ctx context.Context, factory ModelFactory, dists []Dist, s Sampler, plan *ShardPlan, opt ShardOptions) (*CampaignResult, error) {
	results := make([]*ShardResult, plan.NumShards)
	for k := 0; k < plan.NumShards; k++ {
		r, err := RunShard(ctx, factory, dists, s, plan, k, opt)
		if err != nil {
			return nil, fmt.Errorf("uq: shard %d: %w", k, err)
		}
		results[k] = r
	}
	return MergeShards(plan, results)
}
