// Package surrogate builds and serves per-geometry polynomial-chaos
// surrogates of the electrothermal study: a sparse-grid collocation design
// (uq.SmolyakDesign) supplies the FEM training evaluations, a PCE fit on
// those nodes gives a closed-form evaluator in germ space, and a
// leave-one-level-out comparison against the next-coarser design attaches
// an error indicator to every answer the surrogate serves. Once built, a
// Model answers mean/quantile/P(T ≥ T_crit) and what-if elongation queries
// in microseconds — no solve — and refuses queries outside its trained
// germ domain with a typed DomainError so callers can fall back to the
// FEM job path.
//
// Models are plain exported-field structs; encoding/json serialization is
// bit-stable (shortest round-trip float formatting), so a model can take a
// marshal→WAL→unmarshal→marshal round trip and come back byte-identical.
package surrogate

import (
	"context"
	"fmt"
	"math"
	"sort"

	"etherm/api"
	"etherm/internal/uq"
)

const (
	// DefaultSamples is the size of the deterministic germ sample set the
	// build precomputes for quantile and tail-probability serving.
	DefaultSamples = 4096
	// DefaultSeed keys the deterministic sampler (the paper's date).
	DefaultSeed = 20160607
	// tailMin is the smallest exceedance count served empirically; rarer
	// tails switch to the normal approximation on the hot output's moments.
	tailMin = 8
	// MaxSweepSteps bounds one query's what-if sweep resolution.
	MaxSweepSteps = 256
	// MaxQuantiles bounds one query's quantile list.
	MaxQuantiles = 64
	// deltaMin/deltaMax is the physical elongation range of the study law
	// (study.WireTempModel clamps δ there); outside it the surrogate would
	// silently answer for the clamped value, so it redirects instead.
	deltaMin, deltaMax = 0.0, 0.9
)

// Config carries the study metadata a build bakes into the model.
type Config struct {
	ID          string // content-addressed identity (scenario fingerprint)
	GeometryKey string // assembly-cache geometry key
	Scenario    string // scenario name, for humans
	Level       int    // Smolyak level L ≥ 2 (L−1 feeds the error indicator)
	Order       int    // requested PCE total order; 0 → Level, clamped to the design size
	NWires      int    // wires per output block
	Times       []float64
	Mu          float64 // elongation law mean
	Sigma       float64 // elongation law std
	Rho         float64 // inter-wire correlation
	TCritK      float64 // default critical temperature for P(fail)
	Samples     int     // quantile sample-set size; 0 → DefaultSamples
	Seed        uint64  // sampler seed; 0 → DefaultSeed
}

// Model is a built, serializable surrogate. All fields are exported and
// survive a JSON round trip bit-for-bit; the query path reads them only.
type Model struct {
	ID          string    `json:"id"`
	GeometryKey string    `json:"geometry_key"`
	Scenario    string    `json:"scenario,omitempty"`
	Level       int       `json:"level"`
	Order       int       `json:"order"`     // PCE order actually fitted at level L
	LowOrder    int       `json:"low_order"` // order fitted at level L−1 for the indicator
	Dim         int       `json:"dim"`
	NWires      int       `json:"num_wires"`
	NTimes      int       `json:"num_times"`
	Times       []float64 `json:"times_s"`
	Mu          float64   `json:"mu"`
	Sigma       float64   `json:"sigma"`
	Rho         float64   `json:"rho"`
	TCritK      float64   `json:"t_crit_k"`
	GermBound   float64   `json:"germ_bound"` // per-axis extent of the trained germ region
	Evaluations int       `json:"evaluations"`
	PCE         *uq.PCE   `json:"pce"`
	MeanK       []float64 `json:"mean_k"` // sparse-grid means per output (level L)
	StdK        []float64 `json:"std_k"`
	LOLO        []float64 `json:"lolo_k"` // per-output leave-one-level-out indicator
	HotWire     int       `json:"hot_wire"`
	EndMaxK     []float64 `json:"end_max_k"` // sorted germ samples of max_j T_j(t_end)
	SampleSeed  uint64    `json:"sample_seed"`
}

// numBasis is C(d+p, p), the total-order-p basis size in d dimensions.
func numBasis(d, p int) int {
	n := 1
	for i := 1; i <= p; i++ {
		n = n * (d + i) / i
	}
	return n
}

// feasibleOrder clamps a requested total order so the basis stays no
// larger than the available training points.
func feasibleOrder(p, d, points int) int {
	for p > 0 && numBasis(d, p) > points {
		p--
	}
	return p
}

// Build constructs a surrogate from the study model factory and germ
// distributions. It evaluates the union of the level-L and level-(L−1)
// sparse-grid designs exactly once per distinct node, fits a PCE on each
// design, keeps the level-L fit for serving and the cross-level moment
// discrepancy as the per-output error indicator, and precomputes the
// deterministic sample set that serves quantiles and tail probabilities.
func Build(ctx context.Context, factory uq.ModelFactory, dists []uq.Dist, cfg Config) (*Model, error) {
	d := len(dists)
	if d == 0 {
		return nil, fmt.Errorf("surrogate: no germ dimensions")
	}
	if cfg.Level < 2 {
		return nil, fmt.Errorf("surrogate: level %d < 2 (the error indicator needs level−1 ≥ 1)", cfg.Level)
	}
	if cfg.NWires < 1 || len(cfg.Times) < 1 {
		return nil, fmt.Errorf("surrogate: invalid study shape (%d wires, %d times)", cfg.NWires, len(cfg.Times))
	}

	desHi, err := uq.SmolyakDesign(dists, cfg.Level)
	if err != nil {
		return nil, err
	}
	desLo, err := uq.SmolyakDesign(dists, cfg.Level-1)
	if err != nil {
		return nil, err
	}

	// Evaluate the union of both designs once per distinct node. The
	// union design carries zero weights — it is only an evaluation plan.
	union := &uq.Design{}
	lookup := map[string]int{}
	index := func(des *uq.Design) []int {
		at := make([]int, len(des.Points))
		for i, p := range des.Points {
			k := fmt.Sprintf("%x", p)
			if j, ok := lookup[k]; ok {
				at[i] = j
				continue
			}
			lookup[k] = len(union.Points)
			at[i] = len(union.Points)
			union.Points = append(union.Points, p)
			union.Weights = append(union.Weights, 0)
		}
		return at
	}
	atHi := index(desHi)
	atLo := index(desLo)
	unionOut, err := union.Eval(ctx, factory)
	if err != nil {
		return nil, err
	}
	gather := func(at []int) [][]float64 {
		rows := make([][]float64, len(at))
		for i, j := range at {
			rows[i] = unionOut[j]
		}
		return rows
	}
	outHi, outLo := gather(atHi), gather(atLo)

	nOut := len(unionOut[0])
	if nOut%cfg.NWires != 0 || nOut/cfg.NWires != len(cfg.Times) {
		return nil, fmt.Errorf("surrogate: model emits %d outputs, want %d wires × %d times",
			nOut, cfg.NWires, len(cfg.Times))
	}

	momHi, err := desHi.Moments(outHi)
	if err != nil {
		return nil, err
	}
	momLo, err := desLo.Moments(outLo)
	if err != nil {
		return nil, err
	}

	order := cfg.Order
	if order <= 0 {
		order = cfg.Level
	}
	order = feasibleOrder(order, d, len(desHi.Points))
	lowOrder := feasibleOrder(min(order, cfg.Level-1), d, len(desLo.Points))
	pce, err := uq.FitPCE(dists, desHi.Points, outHi, order)
	if err != nil {
		return nil, fmt.Errorf("surrogate: level-%d fit: %w", cfg.Level, err)
	}
	if _, err := uq.FitPCE(dists, desLo.Points, outLo, lowOrder); err != nil {
		return nil, fmt.Errorf("surrogate: level-%d fit: %w", cfg.Level-1, err)
	}

	m := &Model{
		ID:          cfg.ID,
		GeometryKey: cfg.GeometryKey,
		Scenario:    cfg.Scenario,
		Level:       cfg.Level,
		Order:       order,
		LowOrder:    lowOrder,
		Dim:         d,
		NWires:      cfg.NWires,
		NTimes:      len(cfg.Times),
		Times:       cfg.Times,
		Mu:          cfg.Mu,
		Sigma:       cfg.Sigma,
		Rho:         cfg.Rho,
		TCritK:      cfg.TCritK,
		GermBound:   desHi.Bound(),
		Evaluations: len(union.Points),
		PCE:         pce,
		MeanK:       momHi.Mean,
		StdK:        make([]float64, nOut),
		LOLO:        make([]float64, nOut),
		SampleSeed:  cfg.Seed,
	}
	if m.SampleSeed == 0 {
		m.SampleSeed = DefaultSeed
	}
	for k := 0; k < nOut; k++ {
		m.StdK[k] = momHi.StdDev(k)
		m.LOLO[k] = math.Abs(momHi.Mean[k]-momLo.Mean[k]) + math.Abs(momHi.StdDev(k)-momLo.StdDev(k))
	}

	// Hottest wire at the final time step, by sparse-grid mean.
	endBase := (m.NTimes - 1) * m.NWires
	for j := 1; j < m.NWires; j++ {
		if m.MeanK[endBase+j] > m.MeanK[endBase+m.HotWire] {
			m.HotWire = j
		}
	}

	// Deterministic sample set of the end-time maximum temperature: the
	// distribution that serves quantiles and exceedance probabilities.
	nSamp := cfg.Samples
	if nSamp <= 0 {
		nSamp = DefaultSamples
	}
	sampler := uq.PseudoRandom{D: d, Seed: m.SampleSeed}
	u := make([]float64, d)
	xi := make([]float64, d)
	psi := make([]float64, pce.NumBasis())
	m.EndMaxK = make([]float64, nSamp)
	for i := 0; i < nSamp; i++ {
		sampler.Sample(i, u)
		for j := 0; j < d; j++ {
			xi[j] = uq.Normal{Mu: 0, Sigma: 1}.Quantile(u[j])
		}
		pce.BasisGerm(xi, psi)
		tmax := math.Inf(-1)
		for j := 0; j < m.NWires; j++ {
			if t := pce.DotBasis(psi, endBase+j); t > tmax {
				tmax = t
			}
		}
		m.EndMaxK[i] = tmax
	}
	sort.Float64s(m.EndMaxK)
	return m, nil
}

// Validate rejects structurally broken models (a deserialized record from
// an untrusted or corrupted store must not panic the query path).
func (m *Model) Validate() error {
	if m == nil || m.PCE == nil {
		return fmt.Errorf("surrogate: missing PCE")
	}
	nOut := m.NWires * m.NTimes
	if m.NWires < 1 || m.NTimes < 1 || m.Dim < 1 {
		return fmt.Errorf("surrogate: invalid shape")
	}
	if m.PCE.Dim != m.Dim || m.PCE.NumOutputs != nOut || len(m.PCE.Coeff) != nOut {
		return fmt.Errorf("surrogate: PCE shape mismatch")
	}
	nb := m.PCE.NumBasis()
	for _, c := range m.PCE.Coeff {
		if len(c) != nb {
			return fmt.Errorf("surrogate: PCE coefficient shape mismatch")
		}
	}
	for _, alpha := range m.PCE.Indices {
		if len(alpha) != m.Dim {
			return fmt.Errorf("surrogate: PCE index shape mismatch")
		}
		for _, a := range alpha {
			if a < 0 || a > m.PCE.Order {
				return fmt.Errorf("surrogate: PCE index out of range")
			}
		}
	}
	if len(m.MeanK) != nOut || len(m.StdK) != nOut || len(m.LOLO) != nOut || len(m.Times) != m.NTimes {
		return fmt.Errorf("surrogate: moment shape mismatch")
	}
	if m.HotWire < 0 || m.HotWire >= m.NWires {
		return fmt.Errorf("surrogate: hot wire out of range")
	}
	if len(m.EndMaxK) == 0 || !sort.Float64sAreSorted(m.EndMaxK) {
		return fmt.Errorf("surrogate: sample set missing or unsorted")
	}
	if m.Sigma <= 0 || m.GermBound <= 0 {
		return fmt.Errorf("surrogate: degenerate study law")
	}
	return nil
}

// DomainError reports a query outside the surrogate's trained region; the
// server maps it to the typed out-of-domain problem carrying the FEM
// fallback job.
type DomainError struct{ Detail string }

func (e *DomainError) Error() string { return "surrogate: " + e.Detail }

// IsDomainError reports whether err is a DomainError.
func IsDomainError(err error) bool {
	_, ok := err.(*DomainError)
	return ok
}

// The query and answer of the read API are declared once, in package api.
type (
	// Query asks the surrogate for statistics of the end-time maximum wire
	// temperature, optionally at specific quantiles, a custom critical
	// temperature (0 keeps the model's default), and what-if
	// common-elongation points or sweeps.
	Query = api.SurrogateQuery
	// Sweep is an inclusive linear what-if sweep over the common elongation.
	Sweep = api.SurrogateSweep
	// QuantileValue is one served quantile of the end-time maximum
	// temperature.
	QuantileValue = api.SurrogateQuantile
	// SweepPoint is the surrogate temperature at one what-if elongation.
	SweepPoint = api.SurrogateSweepPoint
	// Answer is the full response to one Query. ErrIndicatorK is always
	// present: the leave-one-level-out discrepancy of the served output.
	Answer = api.SurrogateAnswer
)

// germFor maps a common elongation δ to the minimum-norm germ that
// realizes δ_j = δ on every wire under the correlated law
// δ_j = µ + σ(√ρ·z₀ + √(1−ρ)·z_j). The study model depends on germs only
// through the deltas, so any germ on that constraint manifold is
// equivalent; the minimum-norm point is the best-conditioned for the
// polynomial surrogate (closest to the grid center).
func (m *Model) germFor(delta float64) ([]float64, error) {
	if delta < deltaMin || delta > deltaMax {
		return nil, &DomainError{Detail: fmt.Sprintf("elongation %.4g outside the physical law range [%g, %g]", delta, deltaMin, deltaMax)}
	}
	g := (delta - m.Mu) / m.Sigma
	xi := make([]float64, m.Dim)
	switch {
	case m.Rho >= 1 || m.Dim == 1: // single shared germ
		xi[0] = g
	case m.Rho <= 0: // independent germs, one per wire
		for j := range xi {
			xi[j] = g
		}
	default: // z₀ plus per-wire germs; minimum-norm split
		n := float64(m.Dim - 1)
		den := m.Rho + (1-m.Rho)/n
		xi[0] = math.Sqrt(m.Rho) * g / den
		zw := math.Sqrt(1-m.Rho) * g / (n * den)
		for j := 1; j < m.Dim; j++ {
			xi[j] = zw
		}
	}
	bound := m.GermBound * (1 + 1e-12)
	for _, z := range xi {
		if math.Abs(z) > bound {
			return nil, &DomainError{Detail: fmt.Sprintf(
				"elongation %.4g maps to germ magnitude %.3g beyond the trained sparse-grid extent %.3g",
				delta, math.Abs(z), m.GermBound)}
		}
	}
	return xi, nil
}

// evalMax evaluates the end-time maximum wire temperature at a germ.
func (m *Model) evalMax(xi, psi []float64) float64 {
	m.PCE.BasisGerm(xi, psi)
	endBase := (m.NTimes - 1) * m.NWires
	tmax := math.Inf(-1)
	for j := 0; j < m.NWires; j++ {
		if t := m.PCE.DotBasis(psi, endBase+j); t > tmax {
			tmax = t
		}
	}
	return tmax
}

// Quantile interpolates the precomputed sorted sample set.
func (m *Model) Quantile(q float64) float64 {
	n := len(m.EndMaxK)
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return m.EndMaxK[n-1]
	}
	frac := pos - float64(lo)
	return m.EndMaxK[lo]*(1-frac) + m.EndMaxK[lo+1]*frac
}

// FailProb estimates P(max_j T_j(t_end) ≥ tcrit): empirically from the
// sample set while the tail is resolved, switching to the normal
// approximation on the hot output's sparse-grid moments when fewer than
// tailMin samples exceed (the regime of 1609.06187's rare failures).
func (m *Model) FailProb(tcrit float64) float64 {
	n := len(m.EndMaxK)
	i := sort.SearchFloat64s(m.EndMaxK, tcrit)
	if cnt := n - i; cnt >= tailMin {
		return float64(cnt) / float64(n)
	}
	kHot := (m.NTimes-1)*m.NWires + m.HotWire
	mean, std := m.MeanK[kHot], m.StdK[kHot]
	if std <= 0 {
		if mean >= tcrit {
			return 1
		}
		return 0
	}
	return 0.5 * math.Erfc((tcrit-mean)/(std*math.Sqrt2))
}

// Answer serves one query. Validation failures return plain errors;
// out-of-domain what-ifs return a *DomainError.
func (m *Model) Answer(q Query) (*Answer, error) {
	if len(q.Quantiles) > MaxQuantiles {
		return nil, fmt.Errorf("surrogate: %d quantiles exceeds the limit of %d", len(q.Quantiles), MaxQuantiles)
	}
	for _, p := range q.Quantiles {
		if !(p > 0 && p < 1) {
			return nil, fmt.Errorf("surrogate: quantile %g outside (0, 1)", p)
		}
	}
	if q.Sweep != nil {
		if q.Sweep.Steps < 2 || q.Sweep.Steps > MaxSweepSteps {
			return nil, fmt.Errorf("surrogate: sweep steps %d outside [2, %d]", q.Sweep.Steps, MaxSweepSteps)
		}
		if !(q.Sweep.From < q.Sweep.To) {
			return nil, fmt.Errorf("surrogate: empty sweep range [%g, %g]", q.Sweep.From, q.Sweep.To)
		}
	}
	tcrit := q.TCritK
	if tcrit == 0 {
		tcrit = m.TCritK
	}

	kHot := (m.NTimes-1)*m.NWires + m.HotWire
	ans := &Answer{
		ID:            m.ID,
		MeanK:         m.MeanK[kHot],
		StdK:          m.StdK[kHot],
		HotWire:       m.HotWire,
		TCritK:        tcrit,
		FailProb:      m.FailProb(tcrit),
		ErrIndicatorK: m.LOLO[kHot],
		Evaluations:   m.Evaluations,
	}
	for _, p := range q.Quantiles {
		ans.Quantiles = append(ans.Quantiles, QuantileValue{Q: p, TK: m.Quantile(p)})
	}
	psi := make([]float64, m.PCE.NumBasis())
	if q.Delta != nil {
		xi, err := m.germFor(*q.Delta)
		if err != nil {
			return nil, err
		}
		ans.Delta = &SweepPoint{Delta: *q.Delta, TK: m.evalMax(xi, psi)}
	}
	if q.Sweep != nil {
		ans.Sweep = make([]SweepPoint, 0, q.Sweep.Steps)
		for i := 0; i < q.Sweep.Steps; i++ {
			delta := q.Sweep.From + (q.Sweep.To-q.Sweep.From)*float64(i)/float64(q.Sweep.Steps-1)
			xi, err := m.germFor(delta)
			if err != nil {
				return nil, err
			}
			ans.Sweep = append(ans.Sweep, SweepPoint{Delta: delta, TK: m.evalMax(xi, psi)})
		}
	}
	return ans, nil
}

// DeltaDomain returns the elongation interval the surrogate will answer
// what-ifs on: the germ-space extent mapped back through the study law,
// intersected with the physical clamp range.
func (m *Model) DeltaDomain() (lo, hi float64) {
	// Invert germFor's worst coordinate: the common-germ magnitude per
	// unit g depends on ρ; scale the bound back accordingly.
	scale := 1.0
	if m.Rho > 0 && m.Rho < 1 {
		n := float64(m.Dim - 1)
		den := m.Rho + (1-m.Rho)/n
		scale = math.Max(math.Sqrt(m.Rho)/den, math.Sqrt(1-m.Rho)/(n*den))
	}
	gmax := m.GermBound / scale
	lo = math.Max(deltaMin, m.Mu-m.Sigma*gmax)
	hi = math.Min(deltaMax, m.Mu+m.Sigma*gmax)
	return lo, hi
}
