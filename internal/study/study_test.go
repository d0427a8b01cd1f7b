package study

import (
	"math"
	"testing"

	"etherm/internal/chipmodel"
	"etherm/internal/core"
)

// coarse returns a fast chip spec for tests.
func coarse() chipmodel.Spec {
	s := chipmodel.DATE16Calibrated()
	s.HMax = 0.8e-3
	return s
}

func fastOpt() core.Options {
	o := core.FastOptions()
	o.EndTime = 50
	o.NumSteps = 10
	return o
}

func TestModelDimensions(t *testing.T) {
	lay, err := coarse().Build()
	if err != nil {
		t.Fatal(err)
	}
	sim, err := core.NewSimulator(lay.Problem, fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	m := NewWireTempModel(sim)
	if m.NumWires() != 12 || m.NumTimes() != 11 {
		t.Fatalf("wires %d times %d", m.NumWires(), m.NumTimes())
	}
	if m.NumOutputs() != 12*11 {
		t.Error("output layout wrong")
	}
	m.Rho = 0
	if m.Dim() != 12 {
		t.Error("independent dim wrong")
	}
	m.Rho = 1
	if m.Dim() != 1 {
		t.Error("fully correlated dim wrong")
	}
	m.Rho = 0.3
	if m.Dim() != 13 {
		t.Error("partial correlation dim wrong")
	}
}

func TestDeltasCorrelationStructure(t *testing.T) {
	lay, err := coarse().Build()
	if err != nil {
		t.Fatal(err)
	}
	sim, err := core.NewSimulator(lay.Problem, fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	m := NewWireTempModel(sim)

	m.Rho = 1
	d := m.Deltas([]float64{1})
	for _, v := range d {
		if math.Abs(v-(0.17+0.048)) > 1e-12 {
			t.Fatalf("correlated delta %g, want µ+σ", v)
		}
	}

	m.Rho = 0
	z := make([]float64, 12)
	z[3] = 2
	d = m.Deltas(z)
	if math.Abs(d[3]-(0.17+2*0.048)) > 1e-12 {
		t.Error("independent delta wrong")
	}
	if d[0] != 0.17 {
		t.Error("unperturbed wire moved")
	}

	m.Rho = 0.3
	z = make([]float64, 13)
	z[0] = 1 // common germ only
	d = m.Deltas(z)
	want := 0.17 + 0.048*math.Sqrt(0.3)
	for _, v := range d {
		if math.Abs(v-want) > 1e-12 {
			t.Fatalf("partial-correlation delta %g, want %g", v, want)
		}
	}
	// Variance is preserved: √ρ² + √(1−ρ)² = 1.
	z = make([]float64, 13)
	z[0], z[1] = 1, 1
	d = m.Deltas(z)
	g := (d[0] - 0.17) / 0.048
	if math.Abs(g-(math.Sqrt(0.3)+math.Sqrt(0.7))) > 1e-12 {
		t.Error("germ combination wrong")
	}

	// Clamping keeps δ physical.
	z[0] = -100
	d = m.Deltas(z)
	if d[0] < 0 {
		t.Error("delta clamp failed")
	}
}

func TestSmallEnsembleAndFig7(t *testing.T) {
	if testing.Short() {
		t.Skip("coupled-field ensemble is seconds-scale")
	}
	f7, lay, camp, err := RunPaperStudy(coarse(), fastOpt(), 4, 11, 2, DefaultRho)
	if err != nil {
		t.Fatal(err)
	}
	if camp.Succeeded() != 4 {
		t.Fatalf("%d samples succeeded", camp.Succeeded())
	}
	last := len(f7.Times) - 1
	if f7.EMax[last] < 400 || f7.EMax[last] > 560 {
		t.Errorf("E_max(end) = %g K outside the calibrated regime", f7.EMax[last])
	}
	if f7.SigmaMC <= 0 || f7.SigmaMC > 30 {
		t.Errorf("sigma_MC = %g implausible", f7.SigmaMC)
	}
	if f7.ErrorMC != f7.SigmaMC/2 {
		t.Errorf("error_MC = %g, want σ/√4", f7.ErrorMC)
	}
	// Monotone heating of the hottest wire.
	hot := f7.HotSeries()
	for i := 1; i < len(hot); i++ {
		if hot[i] < hot[i-1]-1e-6 {
			t.Fatalf("hottest-wire expectation not monotone at step %d", i)
		}
	}
	// The hottest wire sits on the north side (shortest wires).
	if lay.Wires[f7.HotWire].Side != chipmodel.North {
		t.Errorf("hottest wire on %s, want north", lay.Wires[f7.HotWire].Side)
	}
}

func TestEnsembleDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("coupled-field ensemble is seconds-scale")
	}
	run := func(workers int) float64 {
		f7, _, _, err := RunPaperStudy(coarse(), fastOpt(), 3, 5, workers, DefaultRho)
		if err != nil {
			t.Fatal(err)
		}
		return f7.EMax[len(f7.EMax)-1]
	}
	if a, b := run(1), run(2); a != b {
		t.Errorf("worker count changed the ensemble: %g vs %g", a, b)
	}
}

func TestBuildFig7LayoutValidation(t *testing.T) {
	short := make([]float64, 5)
	if _, err := BuildFig7FromMoments([]float64{0, 1}, short, short, 12, 523, 0); err == nil {
		t.Error("mismatched moment layout accepted")
	}
}

// TestTimesGrid pins the one recorded time grid: NumSteps+1 points
// EndTime·i/NumSteps, ending exactly at EndTime.
func TestTimesGrid(t *testing.T) {
	o := core.Options{EndTime: 50, NumSteps: 3}
	got := Times(o)
	if len(got) != 4 || got[0] != 0 || got[3] != 50 {
		t.Fatalf("Times = %v", got)
	}
	for i, v := range got {
		if want := o.EndTime * float64(i) / float64(o.NumSteps); v != want {
			t.Errorf("t[%d] = %v, want %v", i, v, want)
		}
	}
}
