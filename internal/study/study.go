// Package study wires the coupled simulator into the UQ machinery: the
// forward model "12 uncertain wire elongations → wire temperatures over
// time", the ensemble post-processing that reproduces the paper's Fig. 7
// (expected temperature of the hottest wire with its 6σ band against
// T_crit), and the sensitivity/failure summaries built on top.
package study

import (
	"context"
	"fmt"
	"math"
	"sync"

	"etherm/internal/chipmodel"
	"etherm/internal/core"
	"etherm/internal/degrade"
	"etherm/internal/stats"
	"etherm/internal/uq"
)

// WireTempModel adapts the coupled simulator to uq.Model. The uncertain
// inputs are standard-normal germs z that drive the wire elongations through
// an equicorrelated Gaussian process model
//
//	δ_j = µ + σ·(√ρ·z₀ + √(1−ρ)·z_j),   clamped to [0, 0.9),
//
// where ρ ∈ [0, 1] is the wire-to-wire correlation: ρ = 0 means fully
// independent elongations (dim = nWires), ρ = 1 a single shared draw
// (dim = 1), and 0 < ρ < 1 a common bonding-process component plus per-wire
// scatter (dim = nWires + 1).
//
// The paper's description ("the random elongations for all bonding wires ...
// are determined by the probability density function for δ") does not pin ρ
// down. The choice matters for the output spread: on the calibrated chip,
// ρ = 0 yields σ_MC ≈ 1.6 K (the 12 wires' power fluctuations average out),
// ρ = 1 yields ≈ 8.3 K, and ρ ≈ 0.3 reproduces the paper's σ_MC = 4.65 K.
// The default is the matching ρ = 0.3; the correlation ablation bench sweeps
// it. Outputs are the end-point-average wire temperatures T_bw,j(t_i)
// flattened time-major (index t·nWires + j).
type WireTempModel struct {
	sim    *core.Simulator
	nWires int
	nTimes int
	Mu     float64 // elongation mean; default 0.17
	Sigma  float64 // elongation std; default 0.048
	Rho    float64 // wire-to-wire correlation; default DefaultRho
}

// DefaultRho is the bonding-process correlation that reproduces the paper's
// σ_MC on the calibrated chip model.
const DefaultRho = 0.3

// NewWireTempModel wraps an existing simulator (which defines geometry,
// options and mesh) with the paper's elongation law and the default
// process correlation.
func NewWireTempModel(sim *core.Simulator) *WireTempModel {
	return &WireTempModel{
		sim:    sim,
		nWires: len(sim.Wires()),
		nTimes: sim.Options().NumSteps + 1,
		Mu:     0.17,
		Sigma:  0.048,
		Rho:    DefaultRho,
	}
}

// GermDim returns the number of standard-normal germs driving nWires
// equicorrelated elongations at correlation rho: one shared draw at ρ = 1,
// one per wire at ρ = 0, and a common component plus per-wire scatter in
// between.
func GermDim(nWires int, rho float64) int {
	switch {
	case rho >= 1:
		return 1
	case rho <= 0:
		return nWires
	default:
		return nWires + 1
	}
}

// GermDists returns the standard-normal distributions of the germ vector —
// the sampler inputs for any study over the equicorrelated elongation law.
func GermDists(nWires int, rho float64) []uq.Dist {
	out := make([]uq.Dist, GermDim(nWires, rho))
	for i := range out {
		out[i] = uq.Normal{Mu: 0, Sigma: 1}
	}
	return out
}

// Dim implements uq.Model.
func (m *WireTempModel) Dim() int { return GermDim(m.nWires, m.Rho) }

// Deltas maps the standard-normal germ vector to the wire elongations.
func (m *WireTempModel) Deltas(z []float64) []float64 {
	out := make([]float64, m.nWires)
	for j := 0; j < m.nWires; j++ {
		var g float64
		switch {
		case m.Rho >= 1:
			g = z[0]
		case m.Rho <= 0:
			g = z[j]
		default:
			g = math.Sqrt(m.Rho)*z[0] + math.Sqrt(1-m.Rho)*z[j+1]
		}
		d := m.Mu + m.Sigma*g
		if d < 0 {
			d = 0
		}
		if d > 0.9 {
			d = 0.9
		}
		out[j] = d
	}
	return out
}

// NumOutputs implements uq.Model.
func (m *WireTempModel) NumOutputs() int { return m.nWires * m.nTimes }

// NumWires returns the number of wires.
func (m *WireTempModel) NumWires() int { return m.nWires }

// NumTimes returns the number of recorded time points (steps + 1).
func (m *WireTempModel) NumTimes() int { return m.nTimes }

// Eval implements uq.Model: maps the germs to elongations, applies them and
// runs the transient coupled simulation.
func (m *WireTempModel) Eval(params, out []float64) error {
	if len(params) != m.Dim() {
		return fmt.Errorf("study: got %d germs for model dimension %d", len(params), m.Dim())
	}
	for j, delta := range m.Deltas(params) {
		if err := m.sim.SetWireElongation(j, delta); err != nil {
			return err
		}
	}
	res, err := m.sim.Run()
	if err != nil {
		return err
	}
	if len(res.Times) != m.nTimes {
		return fmt.Errorf("study: result has %d time points, expected %d", len(res.Times), m.nTimes)
	}
	for t := 0; t < m.nTimes; t++ {
		for j := 0; j < m.nWires; j++ {
			out[t*m.nWires+j] = res.WireTemp[t][j]
		}
	}
	return nil
}

// Params bundles the elongation-law parameters applied to every model a
// factory hands out: the mean and standard deviation of the relative
// elongation δ and the wire-to-wire process correlation ρ. Zero-valued Mu
// and Sigma select the paper's fitted 0.17 and 0.048 (an exactly-zero law
// is not expressible, by the same zero-means-default convention as the
// scenario uq block); ρ = 0 is meaningful and kept as given.
type Params struct {
	Mu    float64 // elongation mean; zero means the paper's 0.17
	Sigma float64 // elongation std; zero means the paper's 0.048
	Rho   float64 // wire-to-wire correlation in [0, 1]
}

// Effective returns the params with the paper's fitted defaults filled
// into zero fields — the law a ParamFactory model actually runs with,
// which surrogate metadata must record verbatim.
func (p Params) Effective() Params { return p.withDefaults() }

// withDefaults fills zero fields with the paper's fitted values.
func (p Params) withDefaults() Params {
	if p.Mu == 0 {
		p.Mu = 0.17
	}
	if p.Sigma == 0 {
		p.Sigma = 0.048
	}
	return p
}

// ParamFactory returns a uq.ModelFactory producing one model per parallel
// worker under the elongation law p. The first model handed out wraps base
// itself; later calls wrap clones sharing the immutable mesh assembly, so
// every worker model carries identical Mu, Sigma and Rho.
func ParamFactory(base *core.Simulator, p Params) uq.ModelFactory {
	p = p.withDefaults()
	var mu sync.Mutex
	first := true
	return func() (uq.Model, error) {
		mu.Lock()
		useBase := first
		first = false
		mu.Unlock()
		sim := base
		if !useBase {
			clone, err := base.Clone()
			if err != nil {
				return nil, err
			}
			sim = clone
		}
		m := NewWireTempModel(sim)
		m.Mu = p.Mu
		m.Sigma = p.Sigma
		m.Rho = p.Rho
		return m, nil
	}
}

// Fig7 is the paper's headline result: per-wire expectation series, the
// hottest-wire envelope E_max(t) (eq. 7) and its Monte Carlo statistics.
type Fig7 struct {
	Times   []float64
	EWire   [][]float64 // [time][wire] expectation E_j(t)
	SWire   [][]float64 // [time][wire] standard deviation
	EMax    []float64   // max_j E_j(t)
	HotWire int         // wire attaining E_max at the end time

	SigmaHot []float64 // σ(t) of the hottest wire
	SigmaMC  float64   // σ of the hottest wire at the end time
	ErrorMC  float64   // eq. (6): σ_MC/√M

	TCritical  float64
	Cross6Sig  float64 // first time E_max + 6σ ≥ T_crit (NaN if never)
	CrossMean  float64 // first time E_max ≥ T_crit (NaN if never)
	ExceedProb float64 // P(T_hot(end) ≥ T_crit), normal approximation
	// FailProbEmp is the empirical failure probability P(any wire reaches
	// T_crit at any time), available only from streaming campaigns that
	// track exceedance (NaN otherwise).
	FailProbEmp float64
	Samples     int
}

// BuildFig7FromMoments aggregates per-output means and standard deviations
// (laid out time-major like WireTempModel outputs) into the Fig. 7
// statistics. This is the moment-based core shared by the Monte Carlo path
// (BuildFig7FromCampaign) and collocation/PCE studies, whose results arrive
// as moments rather than sample sets. samples is only used for the eq. (6)
// error estimate and may be zero for deterministic quadratures.
func BuildFig7FromMoments(times, means, stds []float64, nWires int, tCrit float64, samples int) (*Fig7, error) {
	nTimes := len(times)
	if len(means) != nTimes*nWires || len(stds) != nTimes*nWires {
		return nil, fmt.Errorf("study: got %d means and %d stds, expected %d×%d", len(means), len(stds), nTimes, nWires)
	}

	f := &Fig7{
		Times:       append([]float64(nil), times...),
		EWire:       make([][]float64, nTimes),
		SWire:       make([][]float64, nTimes),
		EMax:        make([]float64, nTimes),
		TCritical:   tCrit,
		FailProbEmp: math.NaN(),
		Samples:     samples,
	}
	for t := 0; t < nTimes; t++ {
		f.EWire[t] = means[t*nWires : (t+1)*nWires]
		f.SWire[t] = stds[t*nWires : (t+1)*nWires]
		m := math.Inf(-1)
		for _, v := range f.EWire[t] {
			if v > m {
				m = v
			}
		}
		f.EMax[t] = m
	}
	// Hottest wire at the end time (the paper plots this wire's series).
	last := nTimes - 1
	f.HotWire = 0
	for j := 1; j < nWires; j++ {
		if f.EWire[last][j] > f.EWire[last][f.HotWire] {
			f.HotWire = j
		}
	}
	f.SigmaHot = make([]float64, nTimes)
	for t := 0; t < nTimes; t++ {
		f.SigmaHot[t] = f.SWire[t][f.HotWire]
	}
	f.SigmaMC = f.SigmaHot[last]
	f.ErrorMC = 0 // eq. (6) applies to sampling studies only
	if f.Samples > 0 {
		f.ErrorMC = stats.MCError(f.SigmaMC, f.Samples)
	}

	// Crossing diagnostics against T_crit.
	upper := make([]float64, nTimes)
	hotMean := make([]float64, nTimes)
	for t := 0; t < nTimes; t++ {
		hotMean[t] = f.EWire[t][f.HotWire]
		upper[t] = hotMean[t] + 6*f.SigmaHot[t]
	}
	f.Cross6Sig = math.NaN()
	if tc, ok := degrade.CrossingTime(f.Times, upper, tCrit); ok {
		f.Cross6Sig = tc
	}
	f.CrossMean = math.NaN()
	if tc, ok := degrade.CrossingTime(f.Times, hotMean, tCrit); ok {
		f.CrossMean = tc
	}
	f.ExceedProb = degrade.ExceedanceProbability(hotMean[last], f.SigmaMC, tCrit)
	return f, nil
}

// HotSeries returns the hottest wire's mean temperature series.
func (f *Fig7) HotSeries() []float64 {
	out := make([]float64, len(f.Times))
	for t := range out {
		out[t] = f.EWire[t][f.HotWire]
	}
	return out
}

// Stationary reports whether the hottest-wire series has stabilized: the
// change over the final fraction of the horizon stays below tol kelvin.
func (f *Fig7) Stationary(tol float64) bool {
	s := f.HotSeries()
	n := len(s)
	if n < 5 {
		return false
	}
	return math.Abs(s[n-1]-s[n-1-n/10]) < tol
}

// BuildFig7FromCampaign aggregates a streaming campaign (outputs laid out
// by WireTempModel) into the Fig. 7 statistics, attaching the empirical
// any-wire/any-time failure probability when the campaign tracked
// exceedance at T_crit.
func BuildFig7FromCampaign(times []float64, c *uq.CampaignResult, nWires int, tCrit float64) (*Fig7, error) {
	if c.NumOutputs != len(times)*nWires {
		return nil, fmt.Errorf("study: campaign has %d outputs, expected %d×%d", c.NumOutputs, len(times), nWires)
	}
	f, err := BuildFig7FromMoments(times, c.MeanAll(), c.StdAll(), nWires, tCrit, c.Succeeded())
	if err != nil {
		return nil, err
	}
	if c.Stats != nil && c.Stats.Threshold == tCrit {
		f.FailProbEmp = c.Stats.FailProb()
	}
	return f, nil
}

// Times returns the recorded time grid of a transient run under o: the
// NumSteps+1 points EndTime·i/NumSteps, the times_s every study result
// reports.
func Times(o core.Options) []float64 {
	times := make([]float64, o.NumSteps+1)
	for i := range times {
		times[i] = o.EndTime * float64(i) / float64(o.NumSteps)
	}
	return times
}

// RunPaperStudy is the one-call reproduction of the paper's Monte Carlo
// experiment: build the layout, run m pseudo-random samples of the coupled
// model under the fitted elongation law with wire-to-wire correlation rho
// (DefaultRho is the paper's), and aggregate Fig. 7.
func RunPaperStudy(spec chipmodel.Spec, opt core.Options, m int, seed uint64, workers int, rho float64) (*Fig7, *chipmodel.Layout, *uq.CampaignResult, error) {
	lay, err := spec.Build()
	if err != nil {
		return nil, nil, nil, err
	}
	base, err := core.NewSimulator(lay.Problem, opt)
	if err != nil {
		return nil, nil, nil, err
	}
	dists := GermDists(len(base.Wires()), rho)
	camp, err := uq.RunCampaign(context.Background(), ParamFactory(base, Params{Rho: rho}), dists,
		uq.PseudoRandom{D: len(dists), Seed: seed},
		uq.CampaignOptions{MaxSamples: m, Workers: workers, Threshold: degrade.DefaultCriticalTemp})
	if err != nil {
		return nil, nil, nil, err
	}
	f7, err := BuildFig7FromCampaign(Times(base.Options()), camp, len(base.Wires()), degrade.DefaultCriticalTemp)
	if err != nil {
		return nil, nil, nil, err
	}
	return f7, lay, camp, nil
}
