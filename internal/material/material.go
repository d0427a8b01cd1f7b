// Package material provides temperature-dependent material models for the
// coupled electrothermal problem: electrical conductivity σ(T), thermal
// conductivity λ(T) and volumetric heat capacity ρc. The presets include the
// materials of Table I of the paper (copper and epoxy mold compound at
// T = 300 K) plus the common bonding-wire alternatives gold and aluminium.
package material

import (
	"fmt"
	"math"
)

// ReferenceTemperature is the temperature at which nominal properties are
// quoted, matching Table I of the paper.
const ReferenceTemperature = 300.0 // K

// LorenzNumber is the Sommerfeld value of the Wiedemann–Franz Lorenz number.
const LorenzNumber = 2.44e-8 // W·Ω/K²

// Model evaluates material properties as functions of temperature (kelvin).
type Model interface {
	// Name identifies the material for reports.
	Name() string
	// ElecCond returns the electrical conductivity σ(T) in S/m.
	ElecCond(T float64) float64
	// ThermCond returns the thermal conductivity λ(T) in W/(K·m).
	ThermCond(T float64) float64
	// VolHeatCap returns the volumetric heat capacity ρc in J/(m³·K).
	// The paper neglects its temperature dependence; so do we.
	VolHeatCap() float64
}

// Linear is the standard first-order resistivity model
//
//	σ(T) = σ0 / (1 + ασ (T − Tref)),   λ(T) = λ0 / (1 + αλ (T − Tref)).
//
// With ασ = αλ = 0 the material is temperature independent.
type Linear struct {
	MatName    string
	Sigma0     float64 // S/m at Tref
	AlphaSigma float64 // 1/K
	Lambda0    float64 // W/K/m at Tref
	AlphaLamda float64 // 1/K
	RhoC       float64 // J/m³/K
	Tref       float64 // K; zero means ReferenceTemperature
}

// Name implements Model.
func (m Linear) Name() string { return m.MatName }

func (m Linear) tref() float64 {
	if m.Tref == 0 {
		return ReferenceTemperature
	}
	return m.Tref
}

// ElecCond implements Model. The denominator is clamped to stay positive so
// extreme Newton iterates cannot produce negative conductivities.
func (m Linear) ElecCond(T float64) float64 {
	d := 1 + m.AlphaSigma*(T-m.tref())
	if d < 0.1 {
		d = 0.1
	}
	return m.Sigma0 / d
}

// ThermCond implements Model with the same clamped linear law as ElecCond.
func (m Linear) ThermCond(T float64) float64 {
	d := 1 + m.AlphaLamda*(T-m.tref())
	if d < 0.1 {
		d = 0.1
	}
	return m.Lambda0 / d
}

// VolHeatCap implements Model.
func (m Linear) VolHeatCap() float64 { return m.RhoC }

// WiedemannFranz derives the thermal conductivity of a metal from its
// electrical conductivity via λ(T) = L σ(T) T. It is provided as the "more
// sophisticated bonding wire model" extension point mentioned in the paper's
// conclusions.
type WiedemannFranz struct {
	Base   Model   // supplies σ(T), ρc and the name
	Lorenz float64 // zero means LorenzNumber
}

// Name implements Model.
func (m WiedemannFranz) Name() string { return m.Base.Name() + "+WF" }

// ElecCond implements Model.
func (m WiedemannFranz) ElecCond(T float64) float64 { return m.Base.ElecCond(T) }

// ThermCond implements Model using the Wiedemann–Franz law.
func (m WiedemannFranz) ThermCond(T float64) float64 {
	l := m.Lorenz
	if l == 0 {
		l = LorenzNumber
	}
	if T < 1 {
		T = 1
	}
	return l * m.Base.ElecCond(T) * T
}

// VolHeatCap implements Model.
func (m WiedemannFranz) VolHeatCap() float64 { return m.Base.VolHeatCap() }

// Copper returns the copper model of Table I: λ = 398 W/K/m and
// σ = 5.80×10⁷ S/m at 300 K. The temperature coefficient of resistivity is
// the handbook value 3.9×10⁻³/K; thermal conductivity of copper is nearly
// flat in the considered range, modeled with a small coefficient.
func Copper() Linear {
	return Linear{
		MatName:    "copper",
		Sigma0:     5.80e7,
		AlphaSigma: 3.9e-3,
		Lambda0:    398,
		AlphaLamda: 1.0e-4,
		RhoC:       3.45e6,
	}
}

// EpoxyResin returns the mold-compound model of Table I: λ = 0.87 W/K/m,
// σ = 1×10⁻⁶ S/m at 300 K, both treated as temperature independent.
func EpoxyResin() Linear {
	return Linear{
		MatName: "epoxy resin",
		Sigma0:  1e-6,
		Lambda0: 0.87,
		RhoC:    1.7e6,
	}
}

// Gold returns a gold bonding-wire model (σ = 4.52×10⁷ S/m, λ = 318 W/K/m at
// 300 K, TCR 3.4×10⁻³/K).
func Gold() Linear {
	return Linear{
		MatName:    "gold",
		Sigma0:     4.52e7,
		AlphaSigma: 3.4e-3,
		Lambda0:    318,
		AlphaLamda: 1.0e-4,
		RhoC:       2.49e6,
	}
}

// Aluminum returns an aluminium bonding-wire model (σ = 3.77×10⁷ S/m,
// λ = 237 W/K/m at 300 K, TCR 4.3×10⁻³/K).
func Aluminum() Linear {
	return Linear{
		MatName:    "aluminum",
		Sigma0:     3.77e7,
		AlphaSigma: 4.3e-3,
		Lambda0:    237,
		AlphaLamda: 1.0e-4,
		RhoC:       2.42e6,
	}
}

// Silicon returns a plain (undoped bulk) silicon model, useful when modeling
// the die as semiconductor instead of the paper's copper block.
func Silicon() Linear {
	return Linear{
		MatName:    "silicon",
		Sigma0:     1e-3,
		Lambda0:    148,
		AlphaLamda: 2.0e-3,
		RhoC:       1.63e6,
	}
}

// Library is an ordered material table; cell material IDs index into it.
type Library struct {
	models []Model
	byName map[string]int
}

// NewLibrary builds a library from the given models. Names must be unique.
func NewLibrary(models ...Model) (*Library, error) {
	l := &Library{byName: make(map[string]int, len(models))}
	for _, m := range models {
		if m == nil {
			return nil, fmt.Errorf("material: nil model in library")
		}
		if _, dup := l.byName[m.Name()]; dup {
			return nil, fmt.Errorf("material: duplicate material name %q", m.Name())
		}
		l.byName[m.Name()] = len(l.models)
		l.models = append(l.models, m)
	}
	return l, nil
}

// Len returns the number of materials.
func (l *Library) Len() int { return len(l.models) }

// At returns the material with ID id.
func (l *Library) At(id int) Model { return l.models[id] }

// IDByName returns the ID for a material name.
func (l *Library) IDByName(name string) (int, bool) {
	id, ok := l.byName[name]
	return id, ok
}

// Validate checks physical plausibility of all models at a few temperatures.
func (l *Library) Validate() error {
	for id, m := range l.models {
		for _, T := range []float64{250, 300, 400, 600, 1000} {
			if s := m.ElecCond(T); s < 0 || math.IsNaN(s) {
				return fmt.Errorf("material %q (id %d): σ(%g K) = %g invalid", m.Name(), id, T, s)
			}
			if la := m.ThermCond(T); la <= 0 || math.IsNaN(la) {
				return fmt.Errorf("material %q (id %d): λ(%g K) = %g invalid", m.Name(), id, T, la)
			}
		}
		if c := m.VolHeatCap(); c <= 0 || math.IsNaN(c) {
			return fmt.Errorf("material %q (id %d): ρc = %g invalid", m.Name(), id, c)
		}
	}
	return nil
}
