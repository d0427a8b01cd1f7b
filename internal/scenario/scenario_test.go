package scenario

import (
	"strings"
	"testing"

	"etherm/internal/chipmodel"
	"etherm/internal/config"
)

func TestChipSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		c    ChipSpec
		ok   bool
	}{
		{"zero", ChipSpec{}, true},
		{"preset", ChipSpec{Preset: "date16"}, true},
		{"bad preset", ChipSpec{Preset: "date17"}, false},
		{"bad material", ChipSpec{WireMaterial: "unobtainium"}, false},
		{"negative drive", ChipSpec{DriveVoltageV: -1}, false},
		{"elongation too big", ChipSpec{MeanElongation: 1.0}, false},
		{"bad pair", ChipSpec{ActivePairs: []int{6}}, false},
		{"good pair", ChipSpec{ActivePairs: []int{0, 5}}, true},
		{"bad emissivity", ChipSpec{Emissivity: ptr(1.5)}, false},
		{"zero emissivity ok", ChipSpec{Emissivity: ptr(0)}, true},
		{"negative htc", ChipSpec{HTC: ptr(-1)}, false},
	}
	for _, tc := range cases {
		if err := tc.c.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: got err=%v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestChipSpecMaterialize(t *testing.T) {
	c := ChipSpec{
		Preset: "date16", DriveScale: 0.5, WireMaterial: "gold", WireSegments: 4,
		MeanElongation: 0.25, AmbientK: 358, Emissivity: ptr(0),
	}
	spec, err := c.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	base := chipmodel.DATE16()
	if spec.DriveV != base.DriveV*0.5 {
		t.Errorf("drive scale not applied: %g", spec.DriveV)
	}
	if spec.WireMat == nil || spec.WireMat.Name() != "gold" {
		t.Error("wire material not applied")
	}
	if spec.WireSegments != 4 {
		t.Error("wire segments override lost")
	}
	if spec.MeanElong != 0.25 || spec.TAmbient != 358 {
		t.Error("elongation/ambient overrides not applied")
	}
	if spec.Emissivity != 0 {
		t.Error("explicit zero emissivity (no radiation) was dropped")
	}
}

func TestUQSpecValidate(t *testing.T) {
	bad := -0.1
	cases := []struct {
		name string
		u    UQSpec
		ok   bool
	}{
		{"zero is deterministic", UQSpec{}, true},
		{"mc needs samples", UQSpec{Method: MethodMonteCarlo}, false},
		{"mc ok", UQSpec{Method: MethodMonteCarlo, Samples: 10}, true},
		{"smolyak ok", UQSpec{Method: MethodSmolyak, Level: 1}, true},
		{"smolyak needs level", UQSpec{Method: MethodSmolyak}, false},
		{"smolyak rejects samples", UQSpec{Method: MethodSmolyak, Level: 1, Samples: 100}, false},
		{"unknown", UQSpec{Method: "galerkin"}, false},
		{"bad rho", UQSpec{Rho: &bad}, false},
	}
	for _, tc := range cases {
		if err := tc.u.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: got err=%v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestBatchValidate(t *testing.T) {
	if err := (&Batch{}).Validate(); err == nil {
		t.Error("empty batch accepted")
	}
	b := &Batch{Scenarios: []Scenario{{Name: "a"}, {Name: "a"}}}
	if err := b.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate names accepted: %v", err)
	}
	// A physically broken scenario must pass batch validation (it fails at
	// run time, isolated) as long as it is structurally sound.
	b = &Batch{Scenarios: []Scenario{{Name: "broken", Chip: ChipSpec{Preset: "nope"}}}}
	if err := b.Validate(); err != nil {
		t.Errorf("structural validation rejected a runtime-failure scenario: %v", err)
	}
	// Contradictory solver knobs, by contrast, ARE structural: they fail
	// submission instead of silently degrading at solve time.
	b = &Batch{Scenarios: []Scenario{{Name: "x",
		Sim: config.SimConfig{Precision: "mixed", Precond: "jacobi"}}}}
	if err := b.Validate(); err == nil || !strings.Contains(err.Error(), "precision=mixed") {
		t.Errorf("contradictory solver knobs accepted: %v", err)
	}
	b = &Batch{Scenarios: []Scenario{{Name: "x",
		Sim: config.SimConfig{Deflation: true, Precond: "none"}}}}
	if err := b.Validate(); err == nil || !strings.Contains(err.Error(), "deflation") {
		t.Errorf("deflation without a factorization preconditioner accepted: %v", err)
	}
}

func TestParseBatchRejectsUnknownFields(t *testing.T) {
	_, err := ParseBatch([]byte(`{"scenarios": [{"name": "x", "chipp": {}}]}`))
	if err == nil {
		t.Fatal("typo field accepted")
	}
}

func TestBatchJSONRoundTrip(t *testing.T) {
	b := Presets()
	data, err := b.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseBatch(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Scenarios) != len(b.Scenarios) {
		t.Fatalf("round trip lost scenarios: %d vs %d", len(back.Scenarios), len(b.Scenarios))
	}
	for i := range back.Scenarios {
		if back.Scenarios[i].Name != b.Scenarios[i].Name {
			t.Errorf("scenario %d name changed in round trip", i)
		}
	}
}

func TestPresetsAreValidAndDiverse(t *testing.T) {
	b := Presets()
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(b.Scenarios) < 8 {
		t.Fatalf("bundled presets cover %d scenarios, need ≥ 8", len(b.Scenarios))
	}
	methods := map[string]bool{}
	for _, s := range b.Scenarios {
		if err := s.Validate(); err != nil {
			t.Errorf("preset %q invalid: %v", s.Name, err)
		}
		if s.Description == "" {
			t.Errorf("preset %q has no description", s.Name)
		}
		methods[s.UQ.EffectiveMethod()] = true
	}
	for _, m := range []string{MethodNone, MethodMonteCarlo, MethodSobol, MethodSmolyak} {
		if !methods[m] {
			t.Errorf("bundled presets exercise no %s scenario", m)
		}
	}
	// All presets share one demo mesh so a batch run demonstrates caching.
	for _, s := range b.Scenarios {
		spec, err := s.Chip.Materialize()
		if err != nil {
			t.Fatalf("preset %q: %v", s.Name, err)
		}
		if got, want := GeometryKey(spec), GeometryKey(mustSpec(t, b.Scenarios[0].Chip)); got != want {
			t.Errorf("preset %q has geometry key %s, want shared %s", s.Name, got, want)
		}
	}
}

func mustSpec(t *testing.T, c ChipSpec) chipmodel.Spec {
	t.Helper()
	spec, err := c.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestSimDefaults(t *testing.T) {
	s := Scenario{Name: "x"}
	if err := s.Validate(); err != nil {
		t.Fatalf("zero sim config should validate via defaults: %v", err)
	}
	d := s.withSimDefaults()
	if d.Sim.EndTimeS != 50 || d.Sim.NumSteps != 50 {
		t.Errorf("defaults wrong: %+v", d.Sim)
	}
	// Explicit values survive.
	s.Sim = config.SimConfig{EndTimeS: 10, NumSteps: 4}
	if d := s.withSimDefaults(); d.Sim.EndTimeS != 10 || d.Sim.NumSteps != 4 {
		t.Error("explicit sim config overwritten")
	}
}

// TestScenarioSolverKnobs checks the solver performance knobs parse inside a
// batch file and materialize into core options per scenario.
func TestScenarioSolverKnobs(t *testing.T) {
	batch, err := ParseBatch([]byte(`{
		"scenarios": [{
			"name": "tuned",
			"sim": {
				"end_time_s": 10, "num_steps": 5,
				"precond": "ic0", "precond_omega": 0.95,
				"precond_refresh": 2, "solver_workers": 4
			}
		}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	opt := batch.Scenarios[0].Sim.CoreOptions(false)
	if opt.PrecondOmega != 0.95 || opt.Workers != 4 {
		t.Errorf("solver knobs lost in materialization: %+v", opt)
	}
	bad := Scenario{
		Name: "bad",
		Sim:  config.SimConfig{EndTimeS: 1, NumSteps: 1, Precond: "ilu"},
	}
	if err := bad.Validate(); err == nil {
		t.Error("invalid preconditioner should fail scenario validation")
	}
}

// TestPaperScenarioFile checks the committed paper study: the scenario file
// parses, its nominal run is deterministic, and its Monte Carlo study
// resolves to Table II — 50 s over 50 steps, δ ~ N(0.17, 0.048²),
// T_crit = 523 K, ρ = 0.3, M = 1000 with seed 2016.
func TestPaperScenarioFile(t *testing.T) {
	b, err := LoadBatch("../../examples/scenarios/date16_paper.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Scenarios) != 2 {
		t.Fatalf("%d scenarios, want the nominal run and the Monte Carlo study", len(b.Scenarios))
	}
	if m := b.Scenarios[0].UQ.EffectiveMethod(); m != MethodNone {
		t.Errorf("nominal scenario runs method %q", m)
	}
	mc := b.Scenarios[1].withSimDefaults()
	if mc.Sim.EndTimeS != 50 || mc.Sim.NumSteps != 50 {
		t.Errorf("horizon %g s over %d steps, want 50 s over 50", mc.Sim.EndTimeS, mc.Sim.NumSteps)
	}
	law := mc.UQ.studyParams().Effective()
	if law.Mu != 0.17 || law.Sigma != 0.048 || law.Rho != 0.3 {
		t.Errorf("elongation law %+v, want N(0.17, 0.048), rho 0.3", law)
	}
	if mc.criticalK() != 523 {
		t.Errorf("T_crit %g, want 523 K", mc.criticalK())
	}
	if u := mc.UQ; u.EffectiveMethod() != MethodMonteCarlo || u.Budget() != 1000 || u.Seed != 2016 || u.Streaming() {
		t.Errorf("study %+v, want non-streaming monte-carlo, M = 1000, seed 2016", u)
	}
	spec, err := mc.Chip.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if spec.DriveV != chipmodel.DATE16Calibrated().DriveV {
		t.Errorf("drive %g V, want the calibrated preset", spec.DriveV)
	}
}

// TestStreamingKnobs: any streaming knob selects the streaming campaign,
// max_samples is its budget, and validation accepts that budget alone.
func TestStreamingKnobs(t *testing.T) {
	u := UQSpec{Method: MethodMonteCarlo, Samples: 100}
	if u.Streaming() || u.Budget() != 100 {
		t.Errorf("plain spec: streaming %v, budget %d", u.Streaming(), u.Budget())
	}
	u.MaxSamples = 5000
	if !u.Streaming() || u.Budget() != 5000 {
		t.Errorf("max_samples did not switch to the streaming budget: %v %d", u.Streaming(), u.Budget())
	}
	for _, v := range []UQSpec{{Stream: true}, {TargetSE: 0.1}, {TargetCI: 0.01}, {Checkpoint: "x.ckpt"}, {Shards: 1}} {
		if !v.Streaming() {
			t.Errorf("%+v not recognized as streaming", v)
		}
	}
	if err := (UQSpec{Method: MethodMonteCarlo, MaxSamples: 1000}).Validate(); err != nil {
		t.Errorf("streaming budget rejected: %v", err)
	}
	for name, bad := range map[string]UQSpec{
		"negative target_se": {Method: MethodMonteCarlo, Samples: 10, TargetSE: -1},
		"streaming smolyak":  {Method: MethodSmolyak, Level: 1, Stream: true},
		"streaming none":     {Stream: true},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
