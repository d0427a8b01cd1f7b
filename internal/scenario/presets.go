package scenario

import "etherm/api"

// demoHMax is the mesh resolution of the bundled presets: coarse enough
// that the whole suite runs in well under a minute on a laptop, while every
// scenario still resolves the full 12-wire package physics. All presets
// share this one mesh, so a batch run exercises the assembly cache — one
// miss, eleven hits. Production studies override hmax_m (the paper's level
// is 0.35e-3) and raise the sample budgets.
const demoHMax = 0.8e-3

// fullRho is the fully correlated elongation law (one shared bonding-process
// germ), used by the sparse-collocation preset to keep its germ dimension
// at one.
var fullRho = 1.0

// ptr lifts a literal into the optional-override pointer fields.
func ptr(v float64) *float64 { return &v }

// Presets returns the bundled demonstration batch: twelve paper-grounded
// scenarios spanning deterministic heating, Monte Carlo and quasi-Monte
// Carlo elongation sweeps, sparse-grid collocation, degradation-to-failure,
// the Au/Al/Cu wire-material comparison, current derating and a hot-ambient
// environment. cmd/etbatch runs it via -bundled and writes it to disk via
// -write-presets; cmd/etserver serves it at /v1/scenarios/presets.
func Presets() *Batch {
	det := api.SimSpec{EndTimeS: 50, NumSteps: 25}
	uqSim := api.SimSpec{EndTimeS: 50, NumSteps: 10}
	return &Batch{
		Name: "date16-demo-suite",
		Scenarios: []Scenario{
			{
				Name:        "single-pair-heating",
				Description: "Isolated wire-pair self-heating: only pair 0 of the package is driven, the single-circuit analogue of the paper's lumped wire model (cf. cmd/bwcalc).",
				Chip:        ChipSpec{Preset: "date16-calibrated", HMaxM: demoHMax, ActivePairs: []int{0}},
				Sim:         det,
			},
			{
				Name:        "nominal-faithful",
				Description: "Deterministic transient at the published drive (V_bw = 40 mV) and nominal elongation δ = 0.17 — the faithful Table II configuration.",
				Chip:        ChipSpec{Preset: "date16", HMaxM: demoHMax},
				Sim:         det,
			},
			{
				Name:        "nominal-calibrated",
				Description: "Deterministic transient at the power-calibrated drive that reproduces the paper's Fig. 7 temperature level (E_max(50 s) ≈ 500 K).",
				Chip:        ChipSpec{Preset: "date16-calibrated", HMaxM: demoHMax},
				Sim:         det,
			},
			{
				Name:        "package-mc-sweep",
				Description: "The paper's Monte Carlo study over 12 uncertain wire elongations δ ~ N(0.17, 0.048²) (demo budget M = 48; the paper uses M = 1000).",
				Chip:        ChipSpec{Preset: "date16-calibrated", HMaxM: demoHMax},
				Sim:         uqSim,
				UQ:          UQSpec{Method: MethodMonteCarlo, Samples: 48, Seed: 2016},
			},
			{
				Name:        "package-qmc-sobol",
				Description: "The same elongation sweep via the Sobol' low-discrepancy sequence — quasi-Monte Carlo convergence at identical cost per sample.",
				Chip:        ChipSpec{Preset: "date16-calibrated", HMaxM: demoHMax},
				Sim:         uqSim,
				UQ:          UQSpec{Method: MethodSobol, Samples: 48},
			},
			{
				Name:        "collocation-sparse",
				Description: "Sparse-grid stochastic collocation (Smolyak level 2) on the fully correlated elongation law — the deterministic-quadrature alternative to sampling (cf. Loukrezis et al.).",
				Chip:        ChipSpec{Preset: "date16-calibrated", HMaxM: demoHMax},
				Sim:         uqSim,
				UQ:          UQSpec{Method: MethodSmolyak, Level: 2, Rho: &fullRho},
			},
			{
				Name:        "degradation-to-failure",
				Description: "Worst-case bonding (δ = µ + 2σ ≈ 0.27) under a 20 % drive overload on a 120 s horizon: reports the T_crit = 523 K crossing time and the Arrhenius mold-damage integral.",
				Chip:        ChipSpec{Preset: "date16-calibrated", HMaxM: demoHMax, MeanElongation: 0.266, DriveScale: 1.2},
				Sim:         api.SimSpec{EndTimeS: 120, NumSteps: 40},
			},
			{
				Name:        "material-gold",
				Description: "Wire-material design study: gold wires (σ = 4.52×10⁷ S/m) at the calibrated drive, against the copper baseline of nominal-calibrated.",
				Chip:        ChipSpec{Preset: "date16-calibrated", HMaxM: demoHMax, WireMaterial: "gold"},
				Sim:         det,
			},
			{
				Name:        "material-aluminum",
				Description: "Wire-material design study: aluminium wires (σ = 3.77×10⁷ S/m) at the calibrated drive, against the copper baseline of nominal-calibrated.",
				Chip:        ChipSpec{Preset: "date16-calibrated", HMaxM: demoHMax, WireMaterial: "aluminum"},
				Sim:         det,
			},
			{
				Name:        "derating-75",
				Description: "Current-derating curve point: drive scaled to 75 % (≈ 56 % power) — how much margin does backing the drive off buy against T_crit?",
				Chip:        ChipSpec{Preset: "date16-calibrated", HMaxM: demoHMax, DriveScale: 0.75},
				Sim:         det,
			},
			{
				Name:        "derating-50",
				Description: "Current-derating curve point: drive scaled to 50 % (25 % power).",
				Chip:        ChipSpec{Preset: "date16-calibrated", HMaxM: demoHMax, DriveScale: 0.5},
				Sim:         det,
			},
			{
				Name:        "hot-ambient",
				Description: "Automotive-grade environment: 85 °C ambient (358 K) with degraded convection h = 15 W/m²/K at the calibrated drive.",
				Chip:        ChipSpec{Preset: "date16-calibrated", HMaxM: demoHMax, AmbientK: 358, HTC: ptr(15)},
				Sim:         det,
			},
		},
	}
}
