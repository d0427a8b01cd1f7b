package rare

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"etherm/internal/panicsafe"
	"etherm/internal/uq"
)

// linearLimit is the classic benchmark limit state g(z) = a·z/‖a‖ with the
// exact tail P(g ≥ β) = Φ(−β) — the oracle for planted-probability tests.
func linearLimit(a []float64) LimitStateFactory {
	norm := 0.0
	for _, v := range a {
		norm += v * v
	}
	norm = math.Sqrt(norm)
	return func() (LimitState, error) {
		return func(z []float64) (float64, error) {
			s := 0.0
			for j := range z {
				s += a[j] * z[j]
			}
			return s / norm, nil
		}, nil
	}
}

// stdNormalTail returns Φ(−β).
func stdNormalTail(beta float64) float64 {
	return uq.Normal{Mu: 0, Sigma: 1}.CDF(-beta)
}

// betaFor returns the threshold with planted tail probability p.
func betaFor(p float64) float64 {
	return -uq.Normal{Mu: 0, Sigma: 1}.Quantile(p)
}

// TestSubsetPlantedProbability is the acceptance gate of the subsystem: on
// an analytic limit state with a planted P(fail) = 1e-6, subset simulation
// must land within a factor of 2 using ≤ 1e5 evaluations — where plain MC
// at the same CoV needs ~1e8.
func TestSubsetPlantedProbability(t *testing.T) {
	const want = 1e-6
	beta := betaFor(want)
	cfg := SubsetConfig{
		Threshold: beta,
		Dim:       6,
		N:         2000,
		Seed:      2016,
		Workers:   4,
	}
	res, err := RunSubset(context.Background(), linearLimit([]float64{1, 1, 1, 1, 1, 1}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not reach the target threshold in %d levels", len(res.Levels))
	}
	if res.Evals > 1e5 {
		t.Fatalf("used %d evaluations, budget is 1e5", res.Evals)
	}
	if res.PF < want/2 || res.PF > want*2 {
		t.Fatalf("PF = %.3g, planted %.3g (outside factor 2); CoV %.2f, %d levels, %d evals",
			res.PF, want, res.CoV, len(res.Levels), res.Evals)
	}
	if res.CoV <= 0 || math.IsInf(res.CoV, 0) || math.IsNaN(res.CoV) {
		t.Fatalf("broken CoV diagnostic %v", res.CoV)
	}
	for i, lv := range res.Levels {
		if lv.Level != i {
			t.Fatalf("level %d reported as %d", i, lv.Level)
		}
		if lv.Exceed.N != cfg.N {
			t.Fatalf("level %d counter over %d samples, want %d", i, lv.Exceed.N, cfg.N)
		}
		if i > 0 && (lv.Accept <= 0 || lv.Accept > 1) {
			t.Fatalf("level %d acceptance %v outside (0,1]", i, lv.Accept)
		}
	}
	t.Logf("PF %.3g (planted %.3g), CoV %.2f, %d levels, %d evals", res.PF, want, res.CoV, len(res.Levels), res.Evals)
}

// TestSubsetBitIdentity: the same configuration must produce byte-identical
// results across reruns and across worker counts: every chain's randomness
// is keyed by (Seed, level, chain), not by execution order.
func TestSubsetBitIdentity(t *testing.T) {
	base := SubsetConfig{
		Threshold: betaFor(1e-4),
		Dim:       4,
		N:         500,
		Seed:      99,
	}
	lsf := linearLimit([]float64{3, 1, 2, 0.5})
	var ref []byte
	for _, variant := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"rerun", 1},
		{"workers4", 4},
	} {
		cfg := base
		cfg.Workers = variant.workers
		res, err := RunSubset(context.Background(), lsf, cfg)
		if err != nil {
			t.Fatalf("%s: %v", variant.name, err)
		}
		got, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = got
			continue
		}
		if string(got) != string(ref) {
			t.Fatalf("%s diverged from serial run:\n%s\nvs\n%s", variant.name, got, ref)
		}
	}
}

// TestSubsetLevelTelemetry: the OnLevel hook sees every level, in order,
// with thresholds monotonically increasing toward the target.
func TestSubsetLevelTelemetry(t *testing.T) {
	var seen []SubsetLevel
	cfg := SubsetConfig{
		Threshold: betaFor(1e-5),
		Dim:       3,
		N:         1000,
		Seed:      7,
		Workers:   2,
		OnLevel:   func(lv SubsetLevel) { seen = append(seen, lv) },
	}
	res, err := RunSubset(context.Background(), linearLimit([]float64{1, 2, 3}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(res.Levels) {
		t.Fatalf("hook saw %d levels, result has %d", len(seen), len(res.Levels))
	}
	for i := 1; i < len(seen); i++ {
		if seen[i].Threshold <= seen[i-1].Threshold {
			t.Fatalf("thresholds not increasing: level %d %.4f after %.4f", i, seen[i].Threshold, seen[i-1].Threshold)
		}
	}
	last := seen[len(seen)-1]
	if last.Threshold != cfg.Threshold {
		t.Fatalf("final level threshold %.4f, want target %.4f", last.Threshold, cfg.Threshold)
	}
}

// TestSubsetConfigValidation: bad configurations are returned errors, not
// mid-run surprises.
func TestSubsetConfigValidation(t *testing.T) {
	lsf := linearLimit([]float64{1})
	for name, cfg := range map[string]SubsetConfig{
		"zero dim":      {Threshold: 1, N: 100},
		"bad p0":        {Threshold: 1, Dim: 1, N: 100, P0: 0.7},
		"indivisible N": {Threshold: 1, Dim: 1, N: 101},
		"tiny N":        {Threshold: 1, Dim: 1, N: 10, P0: 0.1},
		"negative step": {Threshold: 1, Dim: 1, N: 100, Step: -1},
	} {
		if _, err := RunSubset(context.Background(), lsf, cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestImportanceSampling: with the shift placed at the planted design
// point, mean-shift IS recovers a 1e-5 tail probability tightly.
func TestImportanceSampling(t *testing.T) {
	const want = 1e-5
	beta := betaFor(want)
	a := []float64{2, 1, 1}
	norm := math.Sqrt(6.0)
	shift := make([]float64, len(a))
	for j := range a {
		shift[j] = beta * a[j] / norm
	}
	res, err := RunImportance(context.Background(), linearLimit(a), ISConfig{
		Threshold: beta,
		Shift:     shift,
		N:         4000,
		Seed:      11,
		Workers:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.PF-want) > 3*res.SE {
		t.Fatalf("PF %.3g outside 3·SE (%.3g) of planted %.3g", res.PF, res.SE, want)
	}
	if res.PF < want/1.5 || res.PF > want*1.5 {
		t.Fatalf("PF %.3g, planted %.3g (outside factor 1.5)", res.PF, want)
	}
	if res.ESS < float64(res.N)/20 {
		t.Fatalf("effective sample size %.0f of %d suspiciously low for an on-target shift", res.ESS, res.N)
	}
	// Bit-identity across worker counts.
	again, err := RunImportance(context.Background(), linearLimit(a), ISConfig{
		Threshold: beta, Shift: shift, N: 4000, Seed: 11, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(again.PF) != math.Float64bits(res.PF) || math.Float64bits(again.SE) != math.Float64bits(res.SE) {
		t.Fatalf("workers change the IS estimate: %v vs %v", again, res)
	}
}

// TestMaxOutputFactory: the campaign-seam adapter maps the germ through
// the distribution quantiles and takes the output maximum.
func TestMaxOutputFactory(t *testing.T) {
	lsf := MaxOutputFactory(uq.SingleFactory(finUQModel{}), []uq.Dist{uq.Normal{Mu: 0, Sigma: 1}})
	ls, err := lsf()
	if err != nil {
		t.Fatal(err)
	}
	for _, z := range []float64{-2, 0, 1.5} {
		got, err := ls([]float64{z})
		if err != nil {
			t.Fatal(err)
		}
		want := finTemp(clampDelta(lawMu + lawSigma*roundTrip(z)))
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("z=%g: g=%.6f, want %.6f", z, got, want)
		}
	}
}

// roundTrip mirrors the z→Φ(z)→quantile mapping of the adapter.
func roundTrip(z float64) float64 {
	std := uq.Normal{Mu: 0, Sigma: 1}
	return std.Quantile(clamp01(std.CDF(z)))
}

func clampDelta(d float64) float64 {
	if d < 0 {
		return 0
	}
	if d > 0.9 {
		return 0.9
	}
	return d
}

// finUQModel exposes the analytic fin through the uq.Model interface.
type finUQModel struct{}

func (finUQModel) Dim() int        { return 1 }
func (finUQModel) NumOutputs() int { return 1 }
func (finUQModel) Eval(p, out []float64) error {
	out[0] = finTemp(clampDelta(lawMu + lawSigma*p[0]))
	return nil
}

// panicModel is a stateless model that panics for p[0] > 0.5, as a solver
// bug or an injected chaos fault would.
type panicModel struct{}

func (panicModel) Dim() int        { return 2 }
func (panicModel) NumOutputs() int { return 1 }
func (panicModel) Eval(p, out []float64) error {
	if p[0] > 0.5 {
		panic("limit state blew up")
	}
	out[0] = p[0] + p[1]
	return nil
}

// TestWorkerErrorDoesNotDeadlock pins the fix for a feeder deadlock: a
// worker that hits an eval or factory error used to exit without draining
// the unbuffered work channel, hanging RunSubset/RunImportance forever
// with Workers=1 (or whenever all workers errored). Each case must return
// the error promptly instead of wedging the calling goroutine. A panicking
// limit state, which used to kill the process from a worker goroutine,
// must come back as an error carrying the recovered panic.
func TestWorkerErrorDoesNotDeadlock(t *testing.T) {
	erroringEval := func() (LimitState, error) {
		return func(z []float64) (float64, error) {
			return 0, errors.New("boom")
		}, nil
	}
	erroringFactory := func() (LimitState, error) {
		return nil, errors.New("factory boom")
	}
	// Fails only once chains start (level ≥ 1), exercising runChains. The
	// counter is shared across factory instances so level 0's 2000 iid
	// evaluations pass and a later chain evaluation trips.
	late := func(fail func() (float64, error)) LimitStateFactory {
		var count atomic.Int64
		return func() (LimitState, error) {
			return func(z []float64) (float64, error) {
				if count.Add(1) > 2100 {
					return fail()
				}
				s := 0.0
				for _, v := range z {
					s += v
				}
				return s, nil
			}, nil
		}
	}
	lateError := func() (float64, error) { return 0, errors.New("late boom") }
	latePanic := func() (float64, error) { panic("late limit state blew up") }
	panicking := MaxOutputFactory(uq.SingleFactory(panicModel{}), []uq.Dist{uq.Normal{Mu: 0, Sigma: 1}, uq.Normal{Mu: 0, Sigma: 1}})
	cases := []struct {
		name   string
		panics bool
		run    func() error
	}{
		{"subset eval error", false, func() error {
			_, err := RunSubset(context.Background(), erroringEval, SubsetConfig{Threshold: 10, Dim: 2, N: 2000, Seed: 1, Workers: 1})
			return err
		}},
		{"subset factory error", false, func() error {
			_, err := RunSubset(context.Background(), erroringFactory, SubsetConfig{Threshold: 10, Dim: 2, N: 2000, Seed: 1, Workers: 2})
			return err
		}},
		{"subset chain-level error", false, func() error {
			_, err := RunSubset(context.Background(), late(lateError), SubsetConfig{Threshold: 100, Dim: 2, N: 2000, Seed: 1, Workers: 1})
			return err
		}},
		{"importance eval error", false, func() error {
			_, err := RunImportance(context.Background(), erroringEval, ISConfig{Threshold: 3, Shift: []float64{1, 1}, N: 1000, Seed: 1, Workers: 1})
			return err
		}},
		{"importance factory error", false, func() error {
			_, err := RunImportance(context.Background(), erroringFactory, ISConfig{Threshold: 3, Shift: []float64{1, 1}, N: 1000, Seed: 1, Workers: 2})
			return err
		}},
		{"subset level-0 panic", true, func() error {
			_, err := RunSubset(context.Background(), panicking, SubsetConfig{Threshold: 10, Dim: 2, N: 2000, Seed: 1, Workers: 2})
			return err
		}},
		{"subset chain-level panic", true, func() error {
			_, err := RunSubset(context.Background(), late(latePanic), SubsetConfig{Threshold: 100, Dim: 2, N: 2000, Seed: 1, Workers: 2})
			return err
		}},
		{"importance panic", true, func() error {
			_, err := RunImportance(context.Background(), panicking, ISConfig{Threshold: 3, Shift: []float64{1, 1}, N: 1000, Seed: 1, Workers: 2})
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			done := make(chan error, 1)
			go func() { done <- tc.run() }()
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("expected an error, got nil")
				}
				var pe *panicsafe.Error
				if got := errors.As(err, &pe); got != tc.panics {
					t.Fatalf("error %v carries a recovered panic: %v, want %v", err, got, tc.panics)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("run deadlocked on worker error")
			}
		})
	}
}

// TestWorkersBuiltBeforeFirstEvaluation: RunSubset, RunImportance and
// uq.RunCampaign build all their worker models before the first
// evaluation. A factory typically clones a shared simulator that worker 0's
// first evaluation mutates (wire geometry), so a factory call after an
// evaluation has started is a data race; this factory fails instead.
func TestWorkersBuiltBeforeFirstEvaluation(t *testing.T) {
	var started atomic.Bool
	factory := func() (uq.Model, error) {
		if started.Load() {
			return nil, errors.New("factory called after an evaluation started")
		}
		return startedModel{&started}, nil
	}
	dists := []uq.Dist{uq.Normal{Mu: 0, Sigma: 1}, uq.Normal{Mu: 0, Sigma: 1}}
	lsf := MaxOutputFactory(factory, dists)
	runs := map[string]func() error{
		"subset": func() error {
			// Threshold 3σ: three levels, so chains run after level 0.
			res, err := RunSubset(context.Background(), lsf, SubsetConfig{Threshold: 3, Dim: 2, N: 200, Seed: 1, Workers: 2})
			if err == nil && len(res.Levels) < 2 {
				t.Errorf("subset run stopped at level 0; chains never ran")
			}
			return err
		},
		"importance": func() error {
			_, err := RunImportance(context.Background(), lsf, ISConfig{Threshold: 3, Shift: []float64{2, 2}, N: 200, Seed: 1, Workers: 2})
			return err
		},
		"campaign": func() error {
			_, err := uq.RunCampaign(context.Background(), factory, dists, uq.PseudoRandom{D: 2, Seed: 1},
				uq.CampaignOptions{MaxSamples: 200, Workers: 2})
			return err
		},
	}
	for name, run := range runs {
		t.Run(name, func(t *testing.T) {
			started.Store(false)
			if err := run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// startedModel sums its inputs and flags that an evaluation has started.
type startedModel struct{ started *atomic.Bool }

func (startedModel) Dim() int        { return 2 }
func (startedModel) NumOutputs() int { return 1 }
func (m startedModel) Eval(p, out []float64) error {
	m.started.Store(true)
	out[0] = (p[0] + p[1]) / math.Sqrt2
	return nil
}
