package degrade

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCrossingTimeInterpolation(t *testing.T) {
	times := []float64{0, 1, 2, 3}
	series := []float64{300, 400, 500, 600}
	tc, ok := CrossingTime(times, series, 450)
	if !ok || math.Abs(tc-1.5) > 1e-12 {
		t.Errorf("crossing at %g, want 1.5", tc)
	}
	if _, ok := CrossingTime(times, series, 700); ok {
		t.Error("reported a crossing that never happens")
	}
	tc, ok = CrossingTime(times, series, 250)
	if !ok || tc != 0 {
		t.Error("immediate crossing not detected")
	}
}

func TestExceedanceProbability(t *testing.T) {
	if p := ExceedanceProbability(500, 4.65, 523); p > 1e-5 {
		t.Errorf("P = %g should be tiny ~5 sigma out", p)
	}
	if p := ExceedanceProbability(523, 4.65, 523); math.Abs(p-0.5) > 1e-12 {
		t.Errorf("at-threshold P = %g, want 0.5", p)
	}
	if p := ExceedanceProbability(530, 0, 523); p != 1 {
		t.Error("deterministic exceedance wrong")
	}
	if p := ExceedanceProbability(500, 0, 523); p != 0 {
		t.Error("deterministic non-exceedance wrong")
	}
}

func TestArrheniusMonotone(t *testing.T) {
	a := MoldEpoxy()
	f := func(dT uint8) bool {
		t1 := 400 + float64(dT)
		return a.Rate(t1+1) > a.Rate(t1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMoldEpoxyCalibration(t *testing.T) {
	a := MoldEpoxy()
	// By construction: TTF(523 K) = 1000 h.
	ttf := a.TimeToFailure(DefaultCriticalTemp)
	if math.Abs(ttf-1000*3600) > 1*3600 {
		t.Errorf("TTF(523) = %g h, want 1000", ttf/3600)
	}
	// Rough rule: ~2× acceleration per 10 K at Ea = 0.8 eV near 523 K.
	acc := a.AccelerationFactor(523, 533)
	if acc < 1.2 || acc > 2.5 {
		t.Errorf("acceleration per 10 K = %g implausible", acc)
	}
}

func TestDamageIntegralConstantTemp(t *testing.T) {
	a := MoldEpoxy()
	times := []float64{0, 1800, 3600}
	temps := []float64{523, 523, 523}
	d, err := a.Damage(times, temps)
	if err != nil {
		t.Fatal(err)
	}
	want := 3600 * a.Rate(523)
	if math.Abs(d-want) > 1e-12*want {
		t.Errorf("damage %g, want %g", d, want)
	}
	if _, err := a.Damage([]float64{1, 0}, []float64{1, 1}); err == nil {
		t.Error("non-monotone times accepted")
	}
}

func TestTimeToFailureInfiniteAtZeroRate(t *testing.T) {
	a := Arrhenius{A: 1, Ea: 0.8}
	if !math.IsInf(a.TimeToFailure(0), 1) {
		t.Error("zero-temperature TTF should be infinite")
	}
	if err := (Arrhenius{}).Validate(); err == nil {
		t.Error("zero parameters accepted")
	}
}
