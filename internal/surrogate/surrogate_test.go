package surrogate

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"

	"etherm/internal/analytic"
	"etherm/internal/material"
	"etherm/internal/uq"
)

// Test law: the paper's elongation statistics.
const (
	lawMu    = 0.17
	lawSigma = 0.048
)

// finModel is a closed-form study stand-in: a single bond wire whose
// relative elongation δ follows the law δ = µ + σ·ξ on a one-dimensional
// germ (ρ = 1), evaluated through the analytic fin solution. Smooth in ξ,
// with an exact reference at any δ — the accuracy oracle of the package.
type finModel struct{}

func finWire(delta float64) analytic.FinWire {
	return analytic.FinWire{
		Length:   1e-3 * (1 + delta),
		Diameter: 25e-6,
		Mat:      material.Copper(),
		Current:  0.5,
		TEndA:    300, TEndB: 300,
		TInf: 300,
	}
}

func finTemp(delta float64) float64 {
	tmax, _ := finWire(delta).MaxTemperature(300)
	return tmax
}

func (finModel) Dim() int        { return 1 }
func (finModel) NumOutputs() int { return 1 }
func (finModel) Eval(p, out []float64) error {
	delta := lawMu + lawSigma*p[0]
	if delta < 0 {
		delta = 0
	} else if delta > 0.9 {
		delta = 0.9
	}
	out[0] = finTemp(delta)
	return nil
}

func finConfig(level int) Config {
	return Config{
		ID: "sg-test", GeometryKey: "geom-test", Scenario: "fin",
		Level: level, NWires: 1, Times: []float64{10},
		Mu: lawMu, Sigma: lawSigma, Rho: 1, TCritK: 523,
		Samples: 512,
	}
}

func buildFin(t *testing.T, level int) *Model {
	t.Helper()
	m, err := Build(context.Background(), uq.SingleFactory(finModel{}), []uq.Dist{uq.Normal{Mu: 0, Sigma: 1}}, finConfig(level))
	if err != nil {
		t.Fatalf("level %d build: %v", level, err)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("level %d model invalid: %v", level, err)
	}
	return m
}

// TestAccuracyVsAnalytic gates the surrogate against the closed-form fin
// solution: sparse-grid moments must match a dense tensor reference, and
// what-if answers must match direct analytic evaluation, across levels
// 2–4. This is the accuracy acceptance of the serving path — an answer in
// microseconds is worthless if it drifts from the physics.
func TestAccuracyVsAnalytic(t *testing.T) {
	ref, err := uq.TensorCollocation(uq.SingleFactory(finModel{}), []uq.Dist{uq.Normal{Mu: 0, Sigma: 1}}, 20)
	if err != nil {
		t.Fatal(err)
	}
	for level := 2; level <= 4; level++ {
		m := buildFin(t, level)
		if math.Abs(m.MeanK[0]-ref.Mean[0]) > 0.01 {
			t.Errorf("level %d: mean %.4f K vs tensor reference %.4f K", level, m.MeanK[0], ref.Mean[0])
		}
		if math.Abs(m.StdK[0]-ref.StdDev(0)) > 0.01 {
			t.Errorf("level %d: std %.4f K vs tensor reference %.4f K", level, m.StdK[0], ref.StdDev(0))
		}
		if m.LOLO[0] < 0 || math.IsNaN(m.LOLO[0]) || math.IsInf(m.LOLO[0], 0) {
			t.Errorf("level %d: broken error indicator %g", level, m.LOLO[0])
		}
		// What-if answers across the trained domain against the closed form.
		lo, hi := m.DeltaDomain()
		for _, frac := range []float64{0.1, 0.5, 0.9} {
			delta := lo + frac*(hi-lo)
			ans, err := m.Answer(Query{Delta: &delta})
			if err != nil {
				t.Fatalf("level %d: what-if at δ=%.3f: %v", level, delta, err)
			}
			want := finTemp(delta)
			if math.Abs(ans.Delta.TK-want) > 0.05 {
				t.Errorf("level %d: what-if δ=%.3f gives %.4f K, analytic %.4f K", level, delta, ans.Delta.TK, want)
			}
		}
	}
}

// TestAnswerContract: every answer carries the error indicator and the
// evaluation count, quantiles come back ordered, and the failure
// probability respects the critical-temperature override.
func TestAnswerContract(t *testing.T) {
	m := buildFin(t, 3)
	ans, err := m.Answer(Query{Quantiles: []float64{0.05, 0.5, 0.95}})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Evaluations != m.Evaluations || ans.Evaluations == 0 {
		t.Errorf("answer evaluations %d, model %d", ans.Evaluations, m.Evaluations)
	}
	if ans.ErrIndicatorK != m.LOLO[0] {
		t.Errorf("answer indicator %g, model %g", ans.ErrIndicatorK, m.LOLO[0])
	}
	if len(ans.Quantiles) != 3 || !(ans.Quantiles[0].TK <= ans.Quantiles[1].TK && ans.Quantiles[1].TK <= ans.Quantiles[2].TK) {
		t.Errorf("quantiles unordered: %+v", ans.Quantiles)
	}
	if ans.FailProb < 0 || ans.FailProb > 1 {
		t.Errorf("failure probability %g outside [0, 1]", ans.FailProb)
	}
	// A critical temperature below the whole distribution must saturate.
	sure, err := m.Answer(Query{TCritK: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sure.TCritK != 1 || sure.FailProb != 1 {
		t.Errorf("T_crit=1 K: want certain failure, got P=%g at %g K", sure.FailProb, sure.TCritK)
	}
	// Far above: the normal-tail approximation must be ~0.
	never, err := m.Answer(Query{TCritK: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if never.FailProb > 1e-6 {
		t.Errorf("T_crit=5000 K: want vanishing failure probability, got %g", never.FailProb)
	}
}

// TestOutOfDomain: what-ifs beyond the trained germ extent or the physical
// clamp range come back as typed DomainErrors, never silent clamps.
func TestOutOfDomain(t *testing.T) {
	m := buildFin(t, 2)
	_, hi := m.DeltaDomain()
	for _, delta := range []float64{hi + 0.05, -0.1, 0.95} {
		_, err := m.Answer(Query{Delta: &delta})
		if !IsDomainError(err) {
			t.Errorf("δ=%.3f: want DomainError, got %v", delta, err)
		}
	}
	// A sweep touching the boundary from inside must succeed.
	lo, hi := m.DeltaDomain()
	if _, err := m.Answer(Query{Sweep: &Sweep{From: lo, To: hi, Steps: 8}}); err != nil {
		t.Errorf("in-domain sweep rejected: %v", err)
	}
	// Validation errors are plain, not domain errors.
	if _, err := m.Answer(Query{Quantiles: []float64{1.5}}); err == nil || IsDomainError(err) {
		t.Errorf("bad quantile: want plain error, got %v", err)
	}
	if _, err := m.Answer(Query{Sweep: &Sweep{From: 0.2, To: 0.1, Steps: 4}}); err == nil || IsDomainError(err) {
		t.Errorf("inverted sweep: want plain error, got %v", err)
	}
}

// TestGermForMultiWire: the minimum-norm germ construction must reproduce
// a common elongation δ on EVERY wire under the correlated law, across the
// ρ regimes (shared germ, independent germs, and the mixed case).
func TestGermForMultiWire(t *testing.T) {
	const nWires = 3
	for _, rho := range []float64{0, 0.3, 1} {
		dim := nWires + 1
		if rho >= 1 {
			dim = 1
		} else if rho <= 0 {
			dim = nWires
		}
		// The model outputs each wire's δ_j directly: linear in the germ, so
		// the order-≥1 PCE reproduces it exactly and a what-if answer must
		// return δ itself.
		lawModel := deltaLawModel{n: nWires, rho: rho, dim: dim}
		dists := make([]uq.Dist, dim)
		for i := range dists {
			dists[i] = uq.Normal{Mu: 0, Sigma: 1}
		}
		cfg := Config{
			ID: "sg-law", Level: 2, NWires: nWires, Times: []float64{1},
			Mu: lawMu, Sigma: lawSigma, Rho: rho, TCritK: 523, Samples: 64,
		}
		m, err := Build(context.Background(), uq.SingleFactory(lawModel), dists, cfg)
		if err != nil {
			t.Fatalf("rho=%g: %v", rho, err)
		}
		lo, hi := m.DeltaDomain()
		delta := lo + 0.5*(hi-lo)
		ans, err := m.Answer(Query{Delta: &delta})
		if err != nil {
			t.Fatalf("rho=%g: what-if: %v", rho, err)
		}
		if math.Abs(ans.Delta.TK-delta) > 1e-6 {
			t.Errorf("rho=%g: germ for δ=%.4f reproduces %.6f", rho, delta, ans.Delta.TK)
		}
	}
}

// deltaLawModel emits each wire's elongation under the correlated law —
// the identity study for germ-mapping tests.
type deltaLawModel struct {
	n, dim int
	rho    float64
}

func (m deltaLawModel) Dim() int        { return m.dim }
func (m deltaLawModel) NumOutputs() int { return m.n }
func (m deltaLawModel) Eval(p, out []float64) error {
	for j := 0; j < m.n; j++ {
		var g float64
		switch {
		case m.rho >= 1:
			g = p[0]
		case m.rho <= 0:
			g = p[j]
		default:
			g = math.Sqrt(m.rho)*p[0] + math.Sqrt(1-m.rho)*p[1+j]
		}
		out[j] = lawMu + lawSigma*g
	}
	return nil
}

// TestSerializationBitStable: marshal → unmarshal → marshal must be
// byte-identical — the property that lets a model ride the jobstore WAL
// and serve identical answers after a restart.
func TestSerializationBitStable(t *testing.T) {
	m := buildFin(t, 3)
	first, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back Model
	if err := json.Unmarshal(first, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("deserialized model invalid: %v", err)
	}
	second, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("marshal → unmarshal → marshal is not byte-identical")
	}
	// And the served answers must match bit for bit too.
	q := Query{Quantiles: []float64{0.1, 0.9}}
	a1, err := m.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := back.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(a1)
	b2, _ := json.Marshal(a2)
	if !bytes.Equal(b1, b2) {
		t.Fatal("answers diverge after a serialization round trip")
	}
}

// TestValidateRejectsCorrupt: structurally broken deserialized models are
// refused before they can panic the query path.
func TestValidateRejectsCorrupt(t *testing.T) {
	base := buildFin(t, 2)
	raw, _ := json.Marshal(base)
	corrupt := func(mut func(*Model)) error {
		var m Model
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		mut(&m)
		return m.Validate()
	}
	cases := map[string]func(*Model){
		"nil pce":         func(m *Model) { m.PCE = nil },
		"dim mismatch":    func(m *Model) { m.Dim = 7 },
		"hot wire range":  func(m *Model) { m.HotWire = 5 },
		"moments shape":   func(m *Model) { m.MeanK = nil },
		"unsorted sample": func(m *Model) { m.EndMaxK[0] = m.EndMaxK[len(m.EndMaxK)-1] + 1 },
		"zero sigma":      func(m *Model) { m.Sigma = 0 },
	}
	for name, mut := range cases {
		if corrupt(mut) == nil {
			t.Errorf("%s: corrupt model validated", name)
		}
	}
}
