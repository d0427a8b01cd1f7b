// Streaming accumulators for constant-memory sampling campaigns: vector
// Welford moments, extrema, exceedance counters for failure probabilities
// and a bounded P² quantile sketch. All state is exported and
// JSON-serializable so a campaign can checkpoint mid-run and resume
// bit-for-bit; the moment/extrema/exceedance accumulators are additionally
// mergeable (Chan et al.) for shard-level combination.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// VectorMoments is a mergeable streaming mean/variance accumulator over a
// fixed-length output vector: the vector form of Welford, one element per
// model output. Folding samples in index order reproduces the stored-
// ensemble MeanAll/StdAll bit-for-bit because the arithmetic is identical.
type VectorMoments struct {
	N    int       `json:"n"`
	Mean []float64 `json:"mean"`
	M2   []float64 `json:"m2"`
}

// NewVectorMoments returns an accumulator over n outputs.
func NewVectorMoments(n int) *VectorMoments {
	return &VectorMoments{Mean: make([]float64, n), M2: make([]float64, n)}
}

// Len returns the number of tracked outputs.
func (v *VectorMoments) Len() int { return len(v.Mean) }

// Add folds one sample's output vector into the accumulator.
func (v *VectorMoments) Add(x []float64) {
	v.N++
	n := float64(v.N)
	for j, xj := range x {
		d := xj - v.Mean[j]
		v.Mean[j] += d / n
		v.M2[j] += d * (xj - v.Mean[j])
	}
}

// Merge combines another accumulator into this one (Chan et al. pairwise
// update). Merging shards in a fixed order is deterministic but not
// bit-identical to a single-stream fold; campaigns that need bit-identical
// results across worker counts fold in sample order instead.
func (v *VectorMoments) Merge(o *VectorMoments) error {
	if len(o.Mean) != len(v.Mean) {
		return fmt.Errorf("stats: merging %d-output moments into %d", len(o.Mean), len(v.Mean))
	}
	if o.N == 0 {
		return nil
	}
	if v.N == 0 {
		v.N = o.N
		copy(v.Mean, o.Mean)
		copy(v.M2, o.M2)
		return nil
	}
	n1, n2 := float64(v.N), float64(o.N)
	tot := n1 + n2
	for j := range v.Mean {
		d := o.Mean[j] - v.Mean[j]
		v.Mean[j] += d * n2 / tot
		v.M2[j] += o.M2[j] + d*d*n1*n2/tot
	}
	v.N += o.N
	return nil
}

// Variance returns the unbiased running variance of output j (NaN for
// fewer than two samples).
func (v *VectorMoments) Variance(j int) float64 {
	if v.N < 2 {
		return math.NaN()
	}
	return v.M2[j] / float64(v.N-1)
}

// MeanAll returns a copy of the running means.
func (v *VectorMoments) MeanAll() []float64 {
	return append([]float64(nil), v.Mean...)
}

// StdAll returns the running standard deviations, with the under-sampled
// NaN mapped to 0.
func (v *VectorMoments) StdAll() []float64 {
	out := make([]float64, len(v.Mean))
	for j := range out {
		s := v.Variance(j)
		if math.IsNaN(s) {
			s = 0
		}
		out[j] = math.Sqrt(s)
	}
	return out
}

// MaxSE returns the largest Monte Carlo standard error σ_j/√N across
// outputs (the paper's eq. 6 applied output-wise), +Inf before two samples.
func (v *VectorMoments) MaxSE() float64 {
	if v.N < 2 {
		return math.Inf(1)
	}
	m := 0.0
	sqrtN := math.Sqrt(float64(v.N))
	for j := range v.Mean {
		if se := math.Sqrt(v.M2[j]/float64(v.N-1)) / sqrtN; se > m {
			m = se
		}
	}
	return m
}

// Extrema tracks streaming per-output minima and maxima.
type Extrema struct {
	N   int       `json:"n"`
	Min []float64 `json:"min"`
	Max []float64 `json:"max"`
}

// NewExtrema returns an extrema tracker over n outputs.
func NewExtrema(n int) *Extrema {
	return &Extrema{Min: make([]float64, n), Max: make([]float64, n)}
}

// Add folds one sample's output vector.
func (e *Extrema) Add(x []float64) {
	if e.N == 0 {
		copy(e.Min, x)
		copy(e.Max, x)
		e.N = 1
		return
	}
	e.N++
	for j, xj := range x {
		if xj < e.Min[j] {
			e.Min[j] = xj
		}
		if xj > e.Max[j] {
			e.Max[j] = xj
		}
	}
}

// Merge combines another tracker into this one.
func (e *Extrema) Merge(o *Extrema) error {
	if len(o.Min) != len(e.Min) {
		return fmt.Errorf("stats: merging %d-output extrema into %d", len(o.Min), len(e.Min))
	}
	if o.N == 0 {
		return nil
	}
	if e.N == 0 {
		e.N = o.N
		copy(e.Min, o.Min)
		copy(e.Max, o.Max)
		return nil
	}
	e.N += o.N
	for j := range e.Min {
		if o.Min[j] < e.Min[j] {
			e.Min[j] = o.Min[j]
		}
		if o.Max[j] > e.Max[j] {
			e.Max[j] = o.Max[j]
		}
	}
	return nil
}

// GlobalMax returns the largest value seen across all outputs (NaN before
// any sample) — for temperature outputs, the hottest observation anywhere.
func (e *Extrema) GlobalMax() float64 {
	if e.N == 0 {
		return math.NaN()
	}
	m := math.Inf(-1)
	for _, v := range e.Max {
		if v > m {
			m = v
		}
	}
	return m
}

// ExceedCounter is a mergeable streaming estimator of an exceedance
// probability P(X ≥ threshold) — the small failure probabilities of the
// bond-wire reliability workload.
type ExceedCounter struct {
	N     int `json:"n"`
	Count int `json:"count"`
}

// Observe folds one Bernoulli observation.
func (c *ExceedCounter) Observe(exceeded bool) {
	c.N++
	if exceeded {
		c.Count++
	}
}

// Merge combines another counter into this one.
func (c *ExceedCounter) Merge(o ExceedCounter) {
	c.N += o.N
	c.Count += o.Count
}

// Prob returns the empirical exceedance probability (NaN before any sample).
func (c *ExceedCounter) Prob() float64 {
	if c.N == 0 {
		return math.NaN()
	}
	return float64(c.Count) / float64(c.N)
}

// Wilson returns the Wilson score confidence interval for the exceedance
// probability at normal quantile z (1.96 for 95%). It remains informative
// at the tiny counts of small-failure-probability campaigns where the
// normal interval collapses to a point.
func (c *ExceedCounter) Wilson(z float64) (lo, hi float64) {
	if c.N == 0 {
		return math.NaN(), math.NaN()
	}
	n := float64(c.N)
	p := float64(c.Count) / n
	z2 := z * z
	denom := 1 + z2/n
	center := (p + z2/(2*n)) / denom
	half := z / denom * math.Sqrt(p*(1-p)/n+z2/(4*n*n))
	return center - half, center + half
}

// HalfWidth returns the half-width of the Wilson interval at quantile z —
// the quantity adaptive stopping rules compare against a target confidence
// width.
func (c *ExceedCounter) HalfWidth(z float64) float64 {
	lo, hi := c.Wilson(z)
	return (hi - lo) / 2
}

// P2Quantile estimates a single quantile in O(1) memory with the P²
// algorithm (Jain & Chlamtac 1985): five markers tracking the running
// quantile without storing samples. The state is exported so checkpoints
// round-trip exactly; it is a fold-order accumulator and does not merge.
type P2Quantile struct {
	P   float64    `json:"p"`
	N   int        `json:"n"`
	Q   [5]float64 `json:"q"`             // marker heights
	Pos [5]float64 `json:"pos"`           // marker positions (integral)
	Des [5]float64 `json:"des"`           // desired marker positions
	Buf []float64  `json:"buf,omitempty"` // observations before initialization
}

// NewP2Quantile returns a sketch for the p-quantile, 0 < p < 1.
func NewP2Quantile(p float64) (*P2Quantile, error) {
	if !(p > 0 && p < 1) {
		return nil, fmt.Errorf("stats: P² quantile p=%g outside (0, 1)", p)
	}
	return &P2Quantile{P: p}, nil
}

// Add folds one observation into the sketch.
func (q *P2Quantile) Add(x float64) {
	q.N++
	if q.N <= 5 {
		q.Buf = append(q.Buf, x)
		if q.N == 5 {
			sort.Float64s(q.Buf)
			for i := 0; i < 5; i++ {
				q.Q[i] = q.Buf[i]
				q.Pos[i] = float64(i + 1)
			}
			p := q.P
			q.Des = [5]float64{1, 1 + 2*p, 1 + 4*p, 3 + 2*p, 5}
			q.Buf = nil
		}
		return
	}

	// Locate the cell and update the extreme markers.
	var k int
	switch {
	case x < q.Q[0]:
		q.Q[0] = x
		k = 0
	case x >= q.Q[4]:
		q.Q[4] = x
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if x < q.Q[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		q.Pos[i]++
	}
	inc := [5]float64{0, q.P / 2, q.P, (1 + q.P) / 2, 1}
	for i := range q.Des {
		q.Des[i] += inc[i]
	}

	// Adjust the interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := q.Des[i] - q.Pos[i]
		if (d >= 1 && q.Pos[i+1]-q.Pos[i] > 1) || (d <= -1 && q.Pos[i-1]-q.Pos[i] < -1) {
			s := 1.0
			if d < 0 {
				s = -1.0
			}
			// Piecewise-parabolic prediction, falling back to linear when
			// the parabola leaves the bracketing markers.
			qi := q.Q[i] + s/(q.Pos[i+1]-q.Pos[i-1])*
				((q.Pos[i]-q.Pos[i-1]+s)*(q.Q[i+1]-q.Q[i])/(q.Pos[i+1]-q.Pos[i])+
					(q.Pos[i+1]-q.Pos[i]-s)*(q.Q[i]-q.Q[i-1])/(q.Pos[i]-q.Pos[i-1]))
			if q.Q[i-1] < qi && qi < q.Q[i+1] {
				q.Q[i] = qi
			} else {
				si := i + int(s)
				q.Q[i] += s * (q.Q[si] - q.Q[i]) / (q.Pos[si] - q.Pos[i])
			}
			q.Pos[i] += s
		}
	}
}

// Value returns the current quantile estimate (exact below six samples,
// NaN before any).
func (q *P2Quantile) Value() float64 {
	if q.N == 0 {
		return math.NaN()
	}
	if q.N < 5 {
		s := append([]float64(nil), q.Buf...)
		sort.Float64s(s)
		return QuantileSorted(s, q.P)
	}
	return q.Q[2]
}

// StreamStats bundles the streaming accumulators a sampling campaign keeps
// per output vector: moments, extrema, threshold-exceedance counters and
// optional quantile sketches. Memory is O(NumOutputs), independent of the
// sample count. The whole struct JSON-round-trips exactly for checkpoints.
type StreamStats struct {
	Moments *VectorMoments `json:"moments"`
	Ext     *Extrema       `json:"extrema"`

	// Threshold enables exceedance tracking when positive (T_crit for the
	// bond-wire failure workload).
	Threshold float64 `json:"threshold,omitempty"`
	// ExceedOut counts, per output, the successful samples with
	// out[j] ≥ Threshold.
	ExceedOut []int `json:"exceed_out,omitempty"`
	// ExceedAny counts samples where ANY output reached the threshold —
	// for time-major wire-temperature outputs this is the bond-wire failure
	// event "some wire exceeded T_crit at some time".
	ExceedAny ExceedCounter `json:"exceed_any"`

	// Probs are the tracked quantile levels; Sketch[k][j] estimates the
	// Probs[k]-quantile of output j.
	Probs  []float64      `json:"probs,omitempty"`
	Sketch [][]P2Quantile `json:"sketch,omitempty"`
}

// NewStreamStats returns accumulators over nOut outputs. threshold ≤ 0
// disables exceedance tracking; probs lists optional quantile levels to
// sketch per output.
func NewStreamStats(nOut int, threshold float64, probs []float64) (*StreamStats, error) {
	s := &StreamStats{
		Moments: NewVectorMoments(nOut),
		Ext:     NewExtrema(nOut),
	}
	if threshold > 0 {
		s.Threshold = threshold
		s.ExceedOut = make([]int, nOut)
	}
	for _, p := range probs {
		row := make([]P2Quantile, nOut)
		for j := range row {
			q, err := NewP2Quantile(p)
			if err != nil {
				return nil, err
			}
			row[j] = *q
		}
		s.Probs = append(s.Probs, p)
		s.Sketch = append(s.Sketch, row)
	}
	return s, nil
}

// NumOutputs returns the tracked output count.
func (s *StreamStats) NumOutputs() int { return s.Moments.Len() }

// Add folds one successful sample's output vector into every accumulator.
func (s *StreamStats) Add(out []float64) {
	s.Moments.Add(out)
	s.Ext.Add(out)
	if s.Threshold > 0 {
		any := false
		for j, v := range out {
			if v >= s.Threshold {
				s.ExceedOut[j]++
				any = true
			}
		}
		s.ExceedAny.Observe(any)
	}
	for k := range s.Sketch {
		for j := range s.Sketch[k] {
			s.Sketch[k][j].Add(out[j])
		}
	}
}

// FailProb returns the empirical probability that a sample exceeded the
// threshold on any output (NaN when exceedance tracking is off or empty).
func (s *StreamStats) FailProb() float64 { return s.ExceedAny.Prob() }

// Quantile returns the sketched p-quantile of output j; ok is false when p
// is not tracked.
func (s *StreamStats) Quantile(p float64, j int) (v float64, ok bool) {
	for k, pk := range s.Probs {
		if pk == p {
			return s.Sketch[k][j].Value(), true
		}
	}
	return math.NaN(), false
}

// Merge combines another accumulator set into this one. Quantile sketches
// are fold-order accumulators and cannot merge; merging is refused when
// either side sketches quantiles or the exceedance thresholds differ.
func (s *StreamStats) Merge(o *StreamStats) error {
	if len(s.Sketch) > 0 || len(o.Sketch) > 0 {
		return fmt.Errorf("stats: P² quantile sketches do not merge; fold in sample order instead")
	}
	if s.Threshold != o.Threshold {
		return fmt.Errorf("stats: merging exceedance thresholds %g and %g", s.Threshold, o.Threshold)
	}
	if err := s.Moments.Merge(o.Moments); err != nil {
		return err
	}
	if err := s.Ext.Merge(o.Ext); err != nil {
		return err
	}
	for j := range s.ExceedOut {
		s.ExceedOut[j] += o.ExceedOut[j]
	}
	s.ExceedAny.Merge(o.ExceedAny)
	return nil
}

// QuantileSorted returns the p-quantile of an already-sorted slice using
// the same linear interpolation as Quantile, without copying or re-sorting.
func QuantileSorted(s []float64, p float64) float64 {
	if len(s) == 0 || p < 0 || p > 1 {
		return math.NaN()
	}
	if len(s) == 1 {
		return s[0]
	}
	h := p * float64(len(s)-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[hi]-s[lo])
}
