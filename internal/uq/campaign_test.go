package uq

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"etherm/internal/stats"
)

// slowPolyModel is polyModel with an optional per-eval spin to widen the
// completion-order race window in concurrency tests.
type spinModel struct {
	c    []float64
	spin int
}

func (m *spinModel) Dim() int        { return len(m.c) }
func (m *spinModel) NumOutputs() int { return 1 }
func (m *spinModel) Eval(p, out []float64) error {
	v := 0.0
	for j, cj := range m.c {
		v += cj * p[j]
	}
	s := 0.0
	for i := 0; i < m.spin; i++ {
		s += math.Sqrt(float64(i) + v*v)
	}
	out[0] = v + s*0 // spin result discarded; keeps the loop alive
	return nil
}

// vecModel emits a deterministic multi-output vector per parameter point.
type vecModel struct{ nOut int }

func (m *vecModel) Dim() int        { return 2 }
func (m *vecModel) NumOutputs() int { return m.nOut }
func (m *vecModel) Eval(p, out []float64) error {
	for j := range out {
		out[j] = p[0] + float64(j)*p[1]
	}
	return nil
}

func normDists(d int) []Dist {
	out := make([]Dist, d)
	for i := range out {
		out[i] = Normal{Mu: 0, Sigma: 1}
	}
	return out
}

// unitLaw is the identity law on (0, 1): the model sees the sampler's
// points unchanged.
type unitLaw struct{}

func (unitLaw) Quantile(u float64) float64 { return u }
func (unitLaw) CDF(x float64) float64      { return min(max(x, 0), 1) }

func TestCampaignMatchesStoredEnsembleExactly(t *testing.T) {
	// The streaming fold runs the Welford recurrence in sample order, so
	// its moments must agree bit for bit with the same recurrence over the
	// stored samples, at any worker count.
	dists := normDists(2)
	const m = 4096
	model, s := &vecModel{nOut: 5}, PseudoRandom{D: 2, Seed: 13}
	stored := stats.NewVectorMoments(5)
	p, out := make([]float64, 2), make([]float64, 5)
	for i := 0; i < m; i++ {
		s.Sample(i, p)
		TransformPoint(dists, p, p)
		if err := model.Eval(p, out); err != nil {
			t.Fatal(err)
		}
		stored.Add(out)
	}
	wantMean, wantStd := stored.MeanAll(), stored.StdAll()

	for _, workers := range []int{1, 2, 8} {
		camp, err := RunCampaign(context.Background(), SingleFactory(&vecModel{nOut: 5}), dists,
			PseudoRandom{D: 2, Seed: 13}, CampaignOptions{MaxSamples: m, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if camp.StopReason != StopBudget || camp.Evaluated != m {
			t.Fatalf("workers=%d: unexpected campaign accounting %+v", workers, camp)
		}
		gotMean, gotStd := camp.MeanAll(), camp.StdAll()
		for j := range wantMean {
			if gotMean[j] != wantMean[j] {
				t.Errorf("workers=%d output %d: streaming mean %g != stored %g", workers, j, gotMean[j], wantMean[j])
			}
			if gotStd[j] != wantStd[j] {
				t.Errorf("workers=%d output %d: streaming std %g != stored %g", workers, j, gotStd[j], wantStd[j])
			}
		}
	}
}

func TestCampaignWorkerInvarianceWithFailures(t *testing.T) {
	dists := []Dist{unitLaw{}}
	run := func(workers int) *CampaignResult {
		camp, err := RunCampaign(context.Background(), SingleFactory(&failingModel{failAbove: 0.7}), dists,
			PseudoRandom{D: 1, Seed: 3}, CampaignOptions{
				MaxSamples: 600, Workers: workers, Threshold: 0.5, Quantiles: []float64{0.5, 0.9},
			})
		if err != nil {
			t.Fatal(err)
		}
		return camp
	}
	a := run(1)
	for _, workers := range []int{2, 8} {
		b := run(workers)
		if a.Failures != b.Failures || a.Evaluated != b.Evaluated {
			t.Fatalf("workers=%d changed accounting: %d/%d vs %d/%d",
				workers, b.Evaluated, b.Failures, a.Evaluated, a.Failures)
		}
		if a.Stats.Moments.Mean[0] != b.Stats.Moments.Mean[0] || a.Stats.Moments.M2[0] != b.Stats.Moments.M2[0] {
			t.Errorf("workers=%d changed the moments bit pattern", workers)
		}
		if a.Stats.ExceedAny.Count != b.Stats.ExceedAny.Count {
			t.Errorf("workers=%d changed the exceedance count", workers)
		}
		qa, _ := a.Stats.Quantile(0.9, 0)
		qb, _ := b.Stats.Quantile(0.9, 0)
		if qa != qb {
			t.Errorf("workers=%d changed the P² sketch: %g vs %g", workers, qb, qa)
		}
	}
	if a.Failures == 0 {
		t.Fatal("test model produced no failures; race window untested")
	}
}

func TestCampaignAdaptiveStopDeterministic(t *testing.T) {
	// A generous SE target must stop well before the budget, at a batch
	// boundary, at the same sample count for every worker count.
	dists := normDists(1)
	run := func(workers int) *CampaignResult {
		camp, err := RunCampaign(context.Background(), SingleFactory(&spinModel{c: []float64{1}, spin: 50}), dists,
			PseudoRandom{D: 1, Seed: 8}, CampaignOptions{
				MaxSamples: 100000, Workers: workers, TargetSE: 0.05,
			})
		if err != nil {
			t.Fatal(err)
		}
		return camp
	}
	a := run(1)
	if a.StopReason != StopTargetSE {
		t.Fatalf("stop reason %q, want %q", a.StopReason, StopTargetSE)
	}
	if a.Evaluated >= 100000 || a.Evaluated%DefaultBatchSize != 0 {
		t.Fatalf("stopped at %d — not an early batch boundary", a.Evaluated)
	}
	if se := a.Stats.Moments.MaxSE(); se > 0.05 {
		t.Errorf("claimed target-se stop but SE is %g", se)
	}
	for _, workers := range []int{3, 8} {
		b := run(workers)
		if b.Evaluated != a.Evaluated || b.Stats.Moments.Mean[0] != a.Stats.Moments.Mean[0] {
			t.Errorf("workers=%d: stopped at %d (mean %g), serial stopped at %d (mean %g)",
				workers, b.Evaluated, b.Stats.Moments.Mean[0], a.Evaluated, a.Stats.Moments.Mean[0])
		}
	}
}

func TestCampaignTargetCIStop(t *testing.T) {
	dists := []Dist{unitLaw{}}
	camp, err := RunCampaign(context.Background(), SingleFactory(&failingModel{failAbove: 2}), dists,
		PseudoRandom{D: 1, Seed: 2}, CampaignOptions{
			MaxSamples: 1 << 20, Threshold: 0.9, TargetCI: 0.02,
		})
	if err != nil {
		t.Fatal(err)
	}
	if camp.StopReason != StopTargetCI {
		t.Fatalf("stop reason %q, want %q", camp.StopReason, StopTargetCI)
	}
	if camp.Stats.ExceedAny.HalfWidth(1.96) > 0.02 {
		t.Errorf("stopped above the CI target: %g", camp.Stats.ExceedAny.HalfWidth(1.96))
	}
	// P(U ≥ 0.9) = 0.1 within the interval.
	lo, hi := camp.Stats.ExceedAny.Wilson(1.96)
	if !(lo < 0.1 && 0.1 < hi) {
		t.Errorf("failure probability interval [%g, %g] excludes 0.1", lo, hi)
	}
}

func TestCampaignCheckpointResumeBitIdentical(t *testing.T) {
	dists := normDists(2)
	const budget = 3000
	copt := func(workers int) CampaignOptions {
		return CampaignOptions{
			MaxSamples: budget, Workers: workers,
			Threshold: 0.5, Quantiles: []float64{0.5, 0.95},
		}
	}
	whole, err := RunCampaign(context.Background(), SingleFactory(&vecModel{nOut: 4}), dists,
		PseudoRandom{D: 2, Seed: 6}, copt(2))
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 8} {
		dir := t.TempDir()
		path := filepath.Join(dir, "campaign.ckpt")
		// Phase 1: run only part of the budget, persisting a checkpoint.
		o := copt(workers)
		o.MaxSamples = 1100
		o.CheckpointPath = path
		o.CheckpointEvery = 256
		if _, err := RunCampaign(context.Background(), SingleFactory(&vecModel{nOut: 4}), dists,
			PseudoRandom{D: 2, Seed: 6}, o); err != nil {
			t.Fatal(err)
		}
		cp, err := LoadCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		if cp.Next != 1100 {
			t.Fatalf("workers=%d: checkpoint at %d, want 1100", workers, cp.Next)
		}
		// Phase 2: resume to the full budget.
		o = copt(workers)
		o.Resume = cp
		resumed, err := RunCampaign(context.Background(), SingleFactory(&vecModel{nOut: 4}), dists,
			PseudoRandom{D: 2, Seed: 6}, o)
		if err != nil {
			t.Fatal(err)
		}
		if resumed.Evaluated != budget {
			t.Fatalf("workers=%d: resumed run evaluated %d", workers, resumed.Evaluated)
		}
		for j := 0; j < 4; j++ {
			if resumed.Stats.Moments.Mean[j] != whole.Stats.Moments.Mean[j] ||
				resumed.Stats.Moments.M2[j] != whole.Stats.Moments.M2[j] {
				t.Errorf("workers=%d output %d: resumed moments differ from uninterrupted run", workers, j)
			}
			if resumed.Stats.Ext.Max[j] != whole.Stats.Ext.Max[j] {
				t.Errorf("workers=%d output %d: resumed extrema differ", workers, j)
			}
			for _, p := range []float64{0.5, 0.95} {
				qa, _ := resumed.Stats.Quantile(p, j)
				qb, _ := whole.Stats.Quantile(p, j)
				if qa != qb {
					t.Errorf("workers=%d output %d p=%g: resumed sketch %g != %g", workers, j, p, qa, qb)
				}
			}
		}
		if resumed.Stats.ExceedAny.Count != whole.Stats.ExceedAny.Count {
			t.Errorf("workers=%d: resumed exceedance differs", workers)
		}
	}
}

func TestCampaignResumeValidation(t *testing.T) {
	dists := normDists(2)
	camp, err := RunCampaign(context.Background(), SingleFactory(&vecModel{nOut: 4}), dists,
		PseudoRandom{D: 2, Seed: 6}, CampaignOptions{MaxSamples: 100})
	if err != nil {
		t.Fatal(err)
	}
	cp := camp.Checkpoint()

	// Wrong sampler.
	if _, err := RunCampaign(context.Background(), SingleFactory(&vecModel{nOut: 4}), dists,
		NewMustLHS(t, 2, 200, 1), CampaignOptions{MaxSamples: 200, Resume: cp}); err == nil {
		t.Error("sampler-mismatched resume accepted")
	}
	// Same sampler name, different seed: the point-stream fingerprint must
	// catch what the name cannot.
	if _, err := RunCampaign(context.Background(), SingleFactory(&vecModel{nOut: 4}), dists,
		PseudoRandom{D: 2, Seed: 7}, CampaignOptions{MaxSamples: 200, Resume: cp}); err == nil {
		t.Error("seed-changed resume accepted")
	}
	// Changed caller tag (a different model configuration).
	if _, err := RunCampaign(context.Background(), SingleFactory(&vecModel{nOut: 4}), dists,
		PseudoRandom{D: 2, Seed: 6}, CampaignOptions{MaxSamples: 200, Resume: cp, Tag: "other-model"}); err == nil {
		t.Error("tag-mismatched resume accepted")
	}
	// Wrong output count.
	if _, err := RunCampaign(context.Background(), SingleFactory(&vecModel{nOut: 5}), dists,
		PseudoRandom{D: 2, Seed: 6}, CampaignOptions{MaxSamples: 200, Resume: cp}); err == nil {
		t.Error("output-mismatched resume accepted")
	}
	// Budget already met: returns the checkpointed state unchanged.
	done, err := RunCampaign(context.Background(), SingleFactory(&vecModel{nOut: 4}), dists,
		PseudoRandom{D: 2, Seed: 6}, CampaignOptions{MaxSamples: 100, Resume: cp})
	if err != nil {
		t.Fatal(err)
	}
	if done.Evaluated != 100 || done.StopReason != StopBudget {
		t.Errorf("already-complete resume: %+v", done)
	}
}

// TestResumeRejectsOnePointFingerprint: a checkpoint carrying the
// single-point sampler hash (the pre-8-point scheme) gets the ordinary
// stream-mismatch error on both resume paths, campaign and shard.
func TestResumeRejectsOnePointFingerprint(t *testing.T) {
	dists := normDists(2)
	s := PseudoRandom{D: 2, Seed: 6}
	onePoint := fingerprintFirst(s, 1)
	if onePoint == samplerFingerprint(s) {
		t.Fatal("one-point and 8-point fingerprints coincide")
	}
	const want = "different monte-carlo sample stream"

	camp, err := RunCampaign(context.Background(), SingleFactory(&vecModel{nOut: 4}), dists, s,
		CampaignOptions{MaxSamples: 100})
	if err != nil {
		t.Fatal(err)
	}
	cp := camp.Checkpoint()
	cp.SamplerFP = onePoint
	if _, err := RunCampaign(context.Background(), SingleFactory(&vecModel{nOut: 4}), dists, s,
		CampaignOptions{MaxSamples: 200, Resume: cp}); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("campaign resume: want error containing %q, got %v", want, err)
	}

	plan, err := PlanShards(64, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(t.TempDir(), "c.ckpt")
	opt := ShardOptions{Workers: 1, Tag: "t", CheckpointPath: base, Resume: true}
	if _, err := RunShard(context.Background(), SingleFactory(&vecModel{nOut: 2}), dists, s, plan, 0, opt); err != nil {
		t.Fatal(err)
	}
	path := ShardCheckpointPath(base, 0)
	scp, err := LoadShardCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	scp.SamplerFP = onePoint
	if err := scp.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := RunShard(context.Background(), SingleFactory(&vecModel{nOut: 2}), dists, s, plan, 0, opt); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("shard resume: want error containing %q, got %v", want, err)
	}
}

// NewMustLHS builds an LHS sampler or fails the test.
func NewMustLHS(t *testing.T, d, m int, seed uint64) Sampler {
	t.Helper()
	s, err := NewLatinHypercube(d, m, seed)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCampaignResumeOfStoppedCampaignIsNoOp(t *testing.T) {
	// An adaptively stopped campaign checkpoints at a batch boundary;
	// resubmitting it must re-evaluate the rule on the preloaded prefix and
	// return without a single new model evaluation.
	dists := normDists(1)
	opt := CampaignOptions{MaxSamples: 100000, TargetSE: 0.05}
	first, err := RunCampaign(context.Background(), SingleFactory(&spinModel{c: []float64{1}}), dists,
		PseudoRandom{D: 1, Seed: 8}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if first.StopReason != StopTargetSE {
		t.Fatalf("stop reason %q", first.StopReason)
	}
	var evals atomic.Int64
	opt.Resume = first.Checkpoint()
	opt.OnSample = func(int, error) { evals.Add(1) }
	second, err := RunCampaign(context.Background(), SingleFactory(&spinModel{c: []float64{1}}), dists,
		PseudoRandom{D: 1, Seed: 8}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if n := evals.Load(); n != 0 {
		t.Errorf("resume of a satisfied campaign evaluated %d samples", n)
	}
	if second.Evaluated != first.Evaluated || second.StopReason != StopTargetSE ||
		second.Stats.Moments.Mean[0] != first.Stats.Moments.Mean[0] {
		t.Errorf("no-op resume changed the result: %+v vs %+v", second, first)
	}
}

func TestCampaignCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var evals atomic.Int64
	camp, err := RunCampaign(ctx, SingleFactory(&spinModel{c: []float64{1}, spin: 2000}), normDists(1),
		PseudoRandom{D: 1, Seed: 1}, CampaignOptions{
			MaxSamples: 1 << 30, Workers: 2,
			OnSample: func(i int, err error) {
				if evals.Add(1) == 50 {
					cancel()
				}
			},
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled campaign returned err=%v", err)
	}
	if camp == nil || camp.StopReason != StopCanceled {
		t.Fatalf("partial result missing or mislabeled: %+v", camp)
	}
	if camp.Evaluated < 50 || camp.Evaluated > 10000 {
		t.Errorf("canceled after %d samples — cancellation not prompt", camp.Evaluated)
	}
	if camp.Stats.Moments.N != camp.Succeeded() {
		t.Error("accumulator count disagrees with accounting")
	}
}

func TestCampaignAllFailuresErrors(t *testing.T) {
	dists := []Dist{unitLaw{}}
	if _, err := RunCampaign(context.Background(), SingleFactory(&failingModel{failAbove: -1}), dists,
		PseudoRandom{D: 1, Seed: 3}, CampaignOptions{MaxSamples: 10}); err == nil {
		t.Error("fully failed campaign should error")
	}
}

// TestCampaignStreamingMemoryBound is the campaign-memory gate: a
// campaign must retain O(NumOutputs) accumulator state, not O(M·NumOutputs)
// sample storage. With M=50000 and 64 outputs, stored samples would take
// ≥ 25 MB of outputs alone; the gate allows 4 MB for accumulators, pools
// and noise.
func TestCampaignStreamingMemoryBound(t *testing.T) {
	dists := normDists(2)
	measure := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := measure()
	camp, err := RunCampaign(context.Background(), SingleFactory(&vecModel{nOut: 64}), dists,
		PseudoRandom{D: 2, Seed: 9}, CampaignOptions{
			MaxSamples: 50000, Workers: 4, Threshold: 1.0, Quantiles: []float64{0.5, 0.99},
		})
	if err != nil {
		t.Fatal(err)
	}
	after := measure()
	if camp.Evaluated != 50000 {
		t.Fatalf("campaign accounting wrong: %+v", camp)
	}
	retained := int64(after) - int64(before)
	const limit = 4 << 20
	if retained > limit {
		t.Errorf("campaign retained %d bytes (> %d): sample storage leaked into the fold", retained, limit)
	}
	// The statistics must still be live and sane.
	if camp.Stats.Moments.N != 50000 || math.IsNaN(camp.Stats.Moments.Mean[0]) {
		t.Error("accumulator state incomplete")
	}
}
