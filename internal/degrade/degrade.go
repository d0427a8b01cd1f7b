// Package degrade models bonding-wire degradation and failure: the paper's
// critical-temperature criterion (T_crit = 523 K ≈ 250 °C, the mold
// degradation threshold of section V-D), crossing-time detection on
// temperature histories, Arrhenius damage accumulation and ensemble failure
// probabilities.
package degrade

import (
	"fmt"
	"math"
)

// DefaultCriticalTemp is the paper's failure threshold in kelvin.
const DefaultCriticalTemp = 523.0

// BoltzmannEV is the Boltzmann constant in eV/K.
const BoltzmannEV = 8.617333262e-5

// CrossingTime returns the first time at which the series reaches the
// threshold, linearly interpolated between samples. ok is false when the
// series never crosses.
func CrossingTime(times, series []float64, threshold float64) (t float64, ok bool) {
	if len(times) != len(series) || len(times) == 0 {
		return 0, false
	}
	if series[0] >= threshold {
		return times[0], true
	}
	for i := 1; i < len(series); i++ {
		if series[i] >= threshold {
			t0, t1 := times[i-1], times[i]
			v0, v1 := series[i-1], series[i]
			if v1 == v0 {
				return t1, true
			}
			return t0 + (threshold-v0)*(t1-t0)/(v1-v0), true
		}
	}
	return 0, false
}

// ExceedanceProbability returns the normal-approximation probability that a
// quantity with the given mean and standard deviation exceeds the threshold
// — the design-margin number behind the paper's 6σ band.
func ExceedanceProbability(mean, std, threshold float64) float64 {
	if std <= 0 {
		if mean >= threshold {
			return 1
		}
		return 0
	}
	z := (threshold - mean) / std
	return 0.5 * math.Erfc(z/math.Sqrt2)
}

// Arrhenius is a thermally activated degradation-rate model
// rate(T) = A·exp(−Ea/(kB·T)) with Ea in eV.
type Arrhenius struct {
	A  float64 // 1/s at infinite temperature
	Ea float64 // activation energy, eV
}

// Validate checks the model parameters.
func (a Arrhenius) Validate() error {
	if a.A <= 0 || a.Ea <= 0 {
		return fmt.Errorf("degrade: Arrhenius parameters must be positive (A=%g, Ea=%g)", a.A, a.Ea)
	}
	return nil
}

// Rate returns the degradation rate at temperature T.
func (a Arrhenius) Rate(T float64) float64 {
	if T <= 0 {
		return 0
	}
	return a.A * math.Exp(-a.Ea/(BoltzmannEV*T))
}

// Damage integrates the degradation rate over a temperature history with
// the trapezoidal rule; failure is conventionally damage ≥ 1.
func (a Arrhenius) Damage(times, temps []float64) (float64, error) {
	if len(times) != len(temps) || len(times) < 2 {
		return 0, fmt.Errorf("degrade: need matching series of ≥2 points")
	}
	d := 0.0
	for i := 1; i < len(times); i++ {
		dt := times[i] - times[i-1]
		if dt < 0 {
			return 0, fmt.Errorf("degrade: times not monotone at index %d", i)
		}
		d += 0.5 * (a.Rate(temps[i-1]) + a.Rate(temps[i])) * dt
	}
	return d, nil
}

// TimeToFailure returns the hold time at constant temperature T until
// damage reaches 1.
func (a Arrhenius) TimeToFailure(T float64) float64 {
	r := a.Rate(T)
	if r == 0 {
		return math.Inf(1)
	}
	return 1 / r
}

// AccelerationFactor returns rate(T2)/rate(T1) — how much faster degradation
// runs at T2 than at T1.
func (a Arrhenius) AccelerationFactor(t1, t2 float64) float64 {
	return a.Rate(t2) / a.Rate(t1)
}

// MoldEpoxy returns an Arrhenius model calibrated so that the damage rate
// becomes design-relevant near the paper's 523 K threshold: time-to-failure
// ≈ 1000 h at 523 K with Ea = 0.8 eV (typical epoxy-degradation activation
// energies are 0.7–1.1 eV).
func MoldEpoxy() Arrhenius {
	ea := 0.8
	ttf := 1000 * 3600.0 // 1000 h in seconds
	a := 1 / (ttf * math.Exp(-ea/(BoltzmannEV*DefaultCriticalTemp)))
	return Arrhenius{A: a, Ea: ea}
}
