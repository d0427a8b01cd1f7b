package uq

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestNormalQuantileCDFRoundTrip(t *testing.T) {
	n := Normal{Mu: 0.17, Sigma: 0.048}
	for _, u := range []float64{0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.999} {
		x := n.Quantile(u)
		if got := n.CDF(x); math.Abs(got-u) > 1e-12 {
			t.Errorf("CDF(Quantile(%g)) = %g", u, got)
		}
	}
	if math.Abs(n.Quantile(0.5)-0.17) > 1e-15 {
		t.Error("median ≠ µ")
	}
}

func TestGaussHermiteExactness(t *testing.T) {
	// n-point Gauss–Hermite integrates monomials up to degree 2n−1 exactly
	// against N(0,1); E[Z^k] = (k−1)!! for even k, 0 for odd.
	doubleFact := func(k int) float64 {
		f := 1.0
		for i := k; i > 1; i -= 2 {
			f *= float64(i)
		}
		return f
	}
	for n := 1; n <= 12; n++ {
		r, err := GaussHermite(n)
		if err != nil {
			t.Fatal(err)
		}
		wsum := 0.0
		for _, w := range r.Weights {
			wsum += w
		}
		if math.Abs(wsum-1) > 1e-12 {
			t.Fatalf("n=%d: weights sum to %g", n, wsum)
		}
		for k := 0; k <= 2*n-1; k++ {
			got := 0.0
			for i := range r.Nodes {
				got += r.Weights[i] * math.Pow(r.Nodes[i], float64(k))
			}
			want := 0.0
			if k%2 == 0 {
				want = doubleFact(k - 1)
			}
			// Odd moments vanish by cancellation of terms of size ≈ (k+1)!!,
			// so the tolerance must scale with that magnitude.
			tol := 1e-10 * (1 + doubleFact(k+1))
			if math.Abs(got-want) > tol {
				t.Fatalf("n=%d: E[Z^%d] = %g, want %g", n, k, got, want)
			}
		}
	}
}

func TestSobolValidityConstraints(t *testing.T) {
	for d, p := range sobolPoly {
		for k, mk := range p.m {
			if mk%2 == 0 {
				t.Errorf("dim %d: m_%d = %d is even", d+2, k+1, mk)
			}
			if mk >= 1<<uint(k+1) {
				t.Errorf("dim %d: m_%d = %d ≥ 2^%d", d+2, k+1, mk, k+1)
			}
		}
		if int(p.s) != len(p.m) {
			t.Errorf("dim %d: degree %d but %d initial values", d+2, p.s, len(p.m))
		}
	}
}

func TestSobolStratification(t *testing.T) {
	// The first 2^k points of every Sobol' dimension must hit each dyadic
	// cell [i/2^k, (i+1)/2^k) exactly once — the defining (t,m,s)-net
	// property for valid direction numbers.
	d := MaxSobolDim()
	s, err := NewSobol(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []uint{4, 6} {
		n := 1 << k
		counts := make([][]int, d)
		for j := range counts {
			counts[j] = make([]int, n)
		}
		dst := make([]float64, d)
		// Each dimension is a base-2 (0,1)-sequence, so the dyadic index
		// block [n, 2n) is stratified; Sample(i) maps to sequence index i+1
		// (the degenerate origin is skipped), hence arguments [n−1, 2n−1).
		for i := n - 1; i < 2*n-1; i++ {
			s.Sample(i, dst)
			for j, v := range dst {
				if v < 0 || v >= 1 {
					t.Fatalf("point outside [0,1): %g", v)
				}
				counts[j][int(v*float64(n))]++
			}
		}
		for j := range counts {
			for c, cnt := range counts[j] {
				if cnt != 1 {
					t.Fatalf("dim %d: dyadic cell %d/%d hit %d times", j, c, n, cnt)
				}
			}
		}
	}
}

func TestHaltonStratificationDim0(t *testing.T) {
	h, err := NewHalton(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Base-2 radical inverse: first 8 points fill eighths exactly once.
	counts := make([]int, 8)
	dst := make([]float64, 3)
	for i := 0; i < 8; i++ {
		h.Sample(i, dst)
		counts[int(dst[0]*8)]++
	}
	for c, cnt := range counts {
		if cnt != 1 {
			t.Errorf("octant %d hit %d times", c, cnt)
		}
	}
}

func TestLatinHypercubeStratification(t *testing.T) {
	const m = 64
	l, err := NewLatinHypercube(5, m, 7)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([][]int, 5)
	for j := range counts {
		counts[j] = make([]int, m)
	}
	dst := make([]float64, 5)
	for i := 0; i < m; i++ {
		l.Sample(i, dst)
		for j, v := range dst {
			counts[j][int(v*float64(m))]++
		}
	}
	for j := range counts {
		for b, c := range counts[j] {
			if c != 1 {
				t.Fatalf("dim %d bin %d hit %d times — not a Latin hypercube", j, b, c)
			}
		}
	}
}

func TestPseudoRandomDeterministicPerIndex(t *testing.T) {
	s := PseudoRandom{D: 4, Seed: 99}
	a := make([]float64, 4)
	b := make([]float64, 4)
	s.Sample(17, a)
	s.Sample(17, b)
	for j := range a {
		if a[j] != b[j] {
			t.Fatal("same index produced different points")
		}
	}
	s.Sample(18, b)
	same := true
	for j := range a {
		if a[j] != b[j] {
			same = false
		}
	}
	if same {
		t.Fatal("different indices produced identical points")
	}
}

// TestPseudoRandomStreamUnchanged pins the allocation-free Sample to the
// rand.New(rand.NewPCG(…)).Float64 stream it replaced, bit for bit, so
// sampler fingerprints and checkpoints stay valid.
func TestPseudoRandomStreamUnchanged(t *testing.T) {
	const d = 3
	s := PseudoRandom{D: d, Seed: 2016}
	got := make([]float64, d)
	for i := 0; i < 100000; i++ {
		s.Sample(i, got)
		rng := rand.New(rand.NewPCG(s.Seed, 0x9e3779b97f4a7c15^uint64(i)*0xbf58476d1ce4e5b9))
		for j := range got {
			if want := rng.Float64(); math.Float64bits(got[j]) != math.Float64bits(want) {
				t.Fatalf("index %d coordinate %d: %v, want %v", i, j, got[j], want)
			}
		}
	}
	if a := testing.AllocsPerRun(100, func() { s.Sample(12345, got) }); a != 0 {
		t.Errorf("PseudoRandom.Sample allocates %v times per call, want 0", a)
	}
}

// polyModel is an analytic test model: f(x) = Σ c_j x_j + q·x_0·x_1.
type polyModel struct {
	c []float64
	q float64
}

func (m *polyModel) Dim() int        { return len(m.c) }
func (m *polyModel) NumOutputs() int { return 1 }
func (m *polyModel) Eval(p, out []float64) error {
	v := 0.0
	for j, cj := range m.c {
		v += cj * p[j]
	}
	v += m.q * p[0] * p[1]
	out[0] = v
	return nil
}

// runCampaign runs a budget-m campaign on workers workers and fails the
// test on error.
func runCampaign(t *testing.T, model Model, dists []Dist, s Sampler, m, workers int) *CampaignResult {
	t.Helper()
	camp, err := RunCampaign(context.Background(), SingleFactory(model), dists, s,
		CampaignOptions{MaxSamples: m, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return camp
}

func TestEnsembleLinearModelStatistics(t *testing.T) {
	// f = 2x₀ + 3x₁ with independent normals: exact mean and variance known.
	dists := []Dist{Normal{1, 0.5}, Normal{-2, 0.25}}
	model := &polyModel{c: []float64{2, 3}}
	camp := runCampaign(t, model, dists, PseudoRandom{D: 2, Seed: 4}, 20000, 0)
	wantMean := 2.0*1 + 3.0*(-2)
	wantStd := math.Sqrt(4*0.25 + 9*0.0625)
	mean, std := camp.MeanAll()[0], camp.StdAll()[0]
	if math.Abs(mean-wantMean) > 0.03 {
		t.Errorf("mean %g, want %g", mean, wantMean)
	}
	if math.Abs(std-wantStd) > 0.03 {
		t.Errorf("std %g, want %g", std, wantStd)
	}
	if math.Abs(camp.Stats.Moments.MaxSE()-std/math.Sqrt(20000)) > 1e-12 {
		t.Error("MC error estimator inconsistent with eq. (6)")
	}
}

func TestEnsembleWorkerCountInvariance(t *testing.T) {
	dists := []Dist{Normal{0, 1}, Normal{0, 1}, Normal{0, 1}}
	model := &polyModel{c: []float64{1, 2, 3}, q: 0.5}
	run := func(workers int) []float64 {
		camp := runCampaign(t, model, dists, PseudoRandom{D: 3, Seed: 11}, 500, workers)
		return []float64{camp.MeanAll()[0], camp.StdAll()[0]}
	}
	// Note: SingleFactory shares the (stateless) model; the campaign folds
	// in sample order, so the statistics are exactly order independent.
	a := run(1)
	b := run(4)
	if a[0] != b[0] || a[1] != b[1] {
		t.Errorf("worker count changed results: %v vs %v", a, b)
	}
}

func TestQMCBeatsMCOnSmoothModel(t *testing.T) {
	// Integration error of Sobol' QMC should be well below MC at equal M.
	dists := []Dist{unitLaw{}, unitLaw{}, unitLaw{}}
	model := &polyModel{c: []float64{1, 1, 1}}
	exact := 1.5
	const m = 4096
	sob, err := NewSobol(3)
	if err != nil {
		t.Fatal(err)
	}
	run := func(s Sampler) float64 {
		return math.Abs(runCampaign(t, model, dists, s, m, 0).MeanAll()[0] - exact)
	}
	errMC := run(PseudoRandom{D: 3, Seed: 5})
	errQMC := run(sob)
	if errQMC > errMC {
		t.Errorf("Sobol' error %g should beat MC error %g at M=%d", errQMC, errMC, m)
	}
	if errQMC > 1e-3 {
		t.Errorf("Sobol' error %g suspiciously large", errQMC)
	}
}

func TestTensorCollocationExactForPolynomial(t *testing.T) {
	// f = 2x₀ + 3x₁ + 0.5x₀x₁ with normals: 3-point tensor Gauss is exact.
	dists := []Dist{Normal{1, 0.5}, Normal{-2, 0.25}}
	model := &polyModel{c: []float64{2, 3}, q: 0.5}
	res, err := TensorCollocation(SingleFactory(model), dists, 3)
	if err != nil {
		t.Fatal(err)
	}
	// E[f] = 2µ₀ + 3µ₁ + 0.5µ₀µ₁.
	wantMean := 2.0*1 + 3.0*(-2) + 0.5*1*(-2)
	if math.Abs(res.Mean[0]-wantMean) > 1e-10 {
		t.Errorf("mean %g, want %g", res.Mean[0], wantMean)
	}
	// Var[f] = a²σ₀² + b²σ₁² + q²(σ₀²σ₁² + µ₀²σ₁² + µ₁²σ₀²) + cross terms:
	// f = (2 + 0.5x₁)x₀ + 3x₁ ⇒ exact variance via law of total variance.
	// Computed symbolically: Var = E[(2+0.5x₁)²]σ₀² + Var[(2+0.5x₁)µ₀ + 3x₁].
	ex1 := (2.0 + 0.5*(-2))
	varInner := ex1*ex1 + 0.5*0.5*0.0625 // E[(2+0.5x₁)²] = (2+0.5µ₁)² + 0.25σ₁²
	varOuter := (0.5*1 + 3) * (0.5*1 + 3) * 0.0625
	wantVar := varInner*0.25 + varOuter
	if math.Abs(res.Variance[0]-wantVar) > 1e-10 {
		t.Errorf("variance %g, want %g", res.Variance[0], wantVar)
	}
}

// TestCollocationRejectsNonNormalLaw: the collocation rules are
// Gauss–Hermite only, so both the tensor and the sparse grid refuse any
// other input law instead of integrating against the wrong weight.
func TestCollocationRejectsNonNormalLaw(t *testing.T) {
	model := &polyModel{c: []float64{1, 2}}
	for name, dists := range map[string][]Dist{
		"all non-normal": {unitLaw{}, unitLaw{}},
		"one non-normal": {Normal{0, 1}, unitLaw{}},
	} {
		if _, err := TensorCollocation(SingleFactory(model), dists, 3); err == nil {
			t.Errorf("%s: TensorCollocation accepted a non-normal law", name)
		}
		if _, err := SmolyakDesign(dists, 2); err == nil {
			t.Errorf("%s: SmolyakDesign accepted a non-normal law", name)
		}
	}
}

func TestSmolyakMatchesTensorOnSmoothModel(t *testing.T) {
	dists := []Dist{Normal{0.17, 0.048}, Normal{0.17, 0.048}, Normal{0.17, 0.048}}
	model := &polyModel{c: []float64{1, 2, 3}, q: 1.5}
	tens, err := TensorCollocation(SingleFactory(model), dists, 4)
	if err != nil {
		t.Fatal(err)
	}
	des, err := SmolyakDesign(dists, 2)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := des.Eval(context.Background(), SingleFactory(model))
	if err != nil {
		t.Fatal(err)
	}
	smol, err := des.Moments(outs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(smol.Mean[0]-tens.Mean[0]) > 1e-8 {
		t.Errorf("Smolyak mean %g vs tensor %g", smol.Mean[0], tens.Mean[0])
	}
	if math.Abs(smol.Variance[0]-tens.Variance[0]) > 1e-6*(1+tens.Variance[0]) {
		t.Errorf("Smolyak var %g vs tensor %g", smol.Variance[0], tens.Variance[0])
	}
	if smol.Evaluations >= tens.Evaluations {
		t.Errorf("Smolyak used %d evals, tensor only %d", smol.Evaluations, tens.Evaluations)
	}
}

func TestPCERecoverLinearModel(t *testing.T) {
	dists := []Dist{Normal{1, 0.5}, Normal{-2, 0.25}}
	model := &polyModel{c: []float64{2, 3}}
	// Training data: sampler points through the laws, as a campaign
	// evaluates them.
	s := PseudoRandom{D: 2, Seed: 21}
	params, outputs := make([][]float64, 200), make([][]float64, 200)
	for i := range params {
		params[i], outputs[i] = make([]float64, 2), make([]float64, 1)
		s.Sample(i, params[i])
		TransformPoint(dists, params[i], params[i])
		if err := model.Eval(params[i], outputs[i]); err != nil {
			t.Fatal(err)
		}
	}
	pce, err := FitPCE(dists, params, outputs, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantMean := -4.0
	wantVar := 4*0.25 + 9*0.0625
	if math.Abs(pce.Mean(0)-wantMean) > 1e-6 {
		t.Errorf("PCE mean %g, want %g", pce.Mean(0), wantMean)
	}
	if math.Abs(pce.Variance(0)-wantVar) > 1e-6 {
		t.Errorf("PCE var %g, want %g", pce.Variance(0), wantVar)
	}
	// Sobol indices of the additive model: S_j = c_j²σ_j²/Var.
	s0 := 4 * 0.25 / wantVar
	s1 := 9 * 0.0625 / wantVar
	if math.Abs(pce.MainSobol(0, 0)-s0) > 1e-6 || math.Abs(pce.MainSobol(0, 1)-s1) > 1e-6 {
		t.Errorf("PCE Sobol (%g, %g), want (%g, %g)", pce.MainSobol(0, 0), pce.MainSobol(0, 1), s0, s1)
	}
	// Additive model: total == main.
	if math.Abs(pce.TotalSobol(0, 0)-s0) > 1e-6 {
		t.Errorf("total Sobol %g, want %g", pce.TotalSobol(0, 0), s0)
	}
	// Surrogate reproduces the model.
	x := []float64{1.3, -1.7}
	if got := pce.Eval(dists, x, 0); math.Abs(got-(2*1.3+3*-1.7)) > 1e-6 {
		t.Errorf("surrogate eval %g", got)
	}
}

func TestTransformPointClampsEndpoints(t *testing.T) {
	dst := make([]float64, 1)
	TransformPoint([]Dist{Normal{0, 1}}, []float64{0}, dst)
	if math.IsNaN(dst[0]) || math.IsInf(dst[0], 0) {
		t.Error("endpoint not clamped")
	}
}

func TestHermiteOrthonormality(t *testing.T) {
	// Check ⟨He_m, He_n⟩ = δ_mn under N(0,1) via high-order quadrature.
	r, err := GaussHermite(30)
	if err != nil {
		t.Fatal(err)
	}
	f := func(m, n uint8) bool {
		mm, nn := int(m%6), int(n%6)
		got := 0.0
		for i := range r.Nodes {
			got += r.Weights[i] * hermiteProb(mm, r.Nodes[i]) * hermiteProb(nn, r.Nodes[i])
		}
		want := 0.0
		if mm == nn {
			want = 1
		}
		return math.Abs(got-want) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
