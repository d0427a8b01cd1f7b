package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"etherm/internal/solver"
)

// calibration holds the one calibrateTCrit run a package run shares.
var calibration struct {
	once  sync.Once
	tCrit float64
	err   error
}

// calibrateTCrit runs a small Monte Carlo scenario, once per package run,
// and returns a critical temperature planted mean + 2σ into the upper tail
// of the hottest-wire end temperature, so the rare-event tests target a
// genuinely small (but reachable) failure probability without hard-coding
// kelvin values that would rot with solver changes.
func calibrateTCrit(t *testing.T) float64 {
	t.Helper()
	calibration.once.Do(func() {
		b := &Batch{Scenarios: []Scenario{{
			Name: "calibrate",
			Chip: ChipSpec{HMaxM: testHMax},
			Sim:  fastSim,
			UQ:   UQSpec{Method: MethodMonteCarlo, Samples: 16, Seed: 5},
		}}}
		res, err := NewEngine().Run(context.Background(), b)
		if err != nil {
			calibration.err = err
			return
		}
		s := res.Scenarios[0]
		switch {
		case !s.OK:
			calibration.err = fmt.Errorf("calibration scenario failed: %s", s.Error)
		case s.SigmaK <= 0:
			calibration.err = fmt.Errorf("calibration sigma %g, want positive", s.SigmaK)
		default:
			calibration.tCrit = s.TEndMaxK + 2*s.SigmaK
		}
	})
	if calibration.err != nil {
		t.Fatal(calibration.err)
	}
	return calibration.tCrit
}

// rareScenario is the subset campaign the rare-event tests run, at 20
// samples per level (2 chains of 10): the engine tests prove only the
// wiring, and internal/rare proves the estimator on cheap models.
func rareScenario(tCrit float64) Scenario {
	return Scenario{
		Name: "rare-subset",
		Chip: ChipSpec{HMaxM: testHMax},
		Sim:  fastSim,
		UQ: UQSpec{
			Mode:         ModeFailureProbability,
			LevelSamples: 20,
			Seed:         11,
			CriticalK:    tCrit,
		},
	}
}

func TestEngineRareSubsetScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("coupled-field subset run is seconds-scale")
	}
	tCrit := calibrateTCrit(t)

	var mu sync.Mutex
	var levels []Event
	e := NewEngine()
	e.SampleWorkers = 4
	e.OnEvent = func(ev Event) {
		if ev.Phase == PhaseLevel {
			mu.Lock()
			levels = append(levels, ev)
			mu.Unlock()
		}
	}
	res, err := e.Run(context.Background(), &Batch{Scenarios: []Scenario{rareScenario(tCrit)}})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Scenarios[0]
	if !s.OK {
		t.Fatalf("rare scenario failed: %s", s.Error)
	}
	if s.Method != ModeFailureProbability || s.RareEstimator != EstimatorSubset {
		t.Errorf("method %q estimator %q, want %q/%q", s.Method, s.RareEstimator, ModeFailureProbability, EstimatorSubset)
	}
	if s.PFail == nil {
		t.Fatal("rare result has no p_fail")
	}
	if *s.PFail <= 0 || *s.PFail > 1 {
		t.Errorf("p_fail %g outside (0, 1]", *s.PFail)
	}
	if !s.RareConverged {
		t.Errorf("subset run did not converge (p_fail %g, %d levels)", *s.PFail, len(s.RareLevels))
	}
	if s.TCritK != tCrit {
		t.Errorf("t_crit_k %g, want %g", s.TCritK, tCrit)
	}
	if s.Samples <= 0 {
		t.Errorf("samples %d, want positive eval count", s.Samples)
	}
	if len(s.RareLevels) == 0 {
		t.Fatal("no level telemetry recorded")
	}
	// The mean+2σ threshold targets P ≈ 0.02; any sane estimate keeps it
	// well below one-half and above 1e-4.
	if *s.PFail > 0.5 || *s.PFail < 1e-4 {
		t.Errorf("p_fail %g implausible for a mean+2σ threshold", *s.PFail)
	}
	// Moment-study fields stay empty: the rare path owns its evaluations.
	if len(s.TimesS) != 0 || len(s.HotMeanK) != 0 || s.TEndMaxK != 0 {
		t.Error("rare result carries Fig.-7 series it never computed")
	}

	// One PhaseLevel event per recorded level, in order, with telemetry.
	if len(levels) != len(s.RareLevels) {
		t.Fatalf("%d level events for %d levels", len(levels), len(s.RareLevels))
	}
	for j, ev := range levels {
		if ev.Level == nil {
			t.Fatalf("level event %d has no payload", j)
		}
		if ev.Level.Level != j || ev.Done != j+1 {
			t.Errorf("level event %d out of order: level=%d done=%d", j, ev.Level.Level, ev.Done)
		}
		if *ev.Level != s.RareLevels[j] {
			t.Errorf("level event %d payload %+v differs from result %+v", j, *ev.Level, s.RareLevels[j])
		}
	}
}

func TestEngineRareSubsetBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("coupled-field subset run is seconds-scale")
	}
	tCrit := calibrateTCrit(t)
	run := func(sampleWorkers int) string {
		e := NewEngine()
		e.SampleWorkers = sampleWorkers
		res, err := e.Run(context.Background(), &Batch{Scenarios: []Scenario{rareScenario(tCrit)}})
		if err != nil {
			t.Fatal(err)
		}
		if res.FailedCount != 0 {
			t.Fatalf("batch had failures: %+v", res.Failed())
		}
		return summaryJSON(t, res)
	}
	if serial, parallel := run(1), run(4); serial != parallel {
		t.Errorf("subset scenario depends on worker split:\nserial:   %s\nparallel: %s", serial, parallel)
	}
}

func TestEngineRareImportanceScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("coupled-field importance run is seconds-scale")
	}
	tCrit := calibrateTCrit(t)
	// ρ = 1 collapses the germ space to the single shared elongation draw,
	// so the uniform mean shift points straight at the failure domain — the
	// regime mean-shift importance sampling is designed for. The shift is
	// negative because on this chip shorter wires run hotter (the added
	// conduction path of an elongated wire outweighs its extra resistance).
	one := 1.0
	b := &Batch{Scenarios: []Scenario{{
		Name: "rare-is",
		Chip: ChipSpec{HMaxM: testHMax},
		Sim:  fastSim,
		UQ: UQSpec{
			Mode:         ModeFailureProbability,
			Estimator:    EstimatorImportance,
			ISShift:      -2,
			LevelSamples: 16,
			Seed:         11,
			Rho:          &one,
			CriticalK:    tCrit,
		},
	}}}
	e := NewEngine()
	e.SampleWorkers = 4
	res, err := e.Run(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Scenarios[0]
	if !s.OK {
		t.Fatalf("importance scenario failed: %s", s.Error)
	}
	if s.RareEstimator != EstimatorImportance {
		t.Errorf("estimator %q, want %q", s.RareEstimator, EstimatorImportance)
	}
	if s.PFail == nil {
		t.Fatal("importance result has no p_fail")
	}
	if *s.PFail <= 0 || *s.PFail > 1 {
		t.Fatalf("importance p_fail %g outside (0, 1]", *s.PFail)
	}
	if s.Samples != 16 {
		t.Errorf("samples %d, want the declared budget 16", s.Samples)
	}
	if len(s.RareLevels) != 0 {
		t.Error("importance sampling has no levels, but telemetry was recorded")
	}
}

// TestEngineRarePanicFailsScenario: a solver panic inside a rare-event
// evaluation happens on a pool worker goroutine, out of reach of the
// scenario's own recover. It must end as a failed scenario carrying the
// recovered panic, not take the process down.
func TestEngineRarePanicFailsScenario(t *testing.T) {
	solver.SetFaultHook(func() solver.Fault { return solver.FaultPanic })
	defer solver.SetFaultHook(nil)
	subset := rareScenario(400)
	importance := rareScenario(400)
	importance.Name, importance.UQ.Estimator, importance.UQ.ISShift = "rare-is", EstimatorImportance, -2
	e := NewEngine()
	e.SampleWorkers = 2
	res, err := e.Run(context.Background(), &Batch{Scenarios: []Scenario{subset, importance}})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Scenarios {
		if s.OK || !strings.Contains(s.Error, "panic in pool") || !strings.Contains(s.Error, "injected fault") {
			t.Errorf("scenario %s: ok=%v error %.120q, want a failed scenario carrying the recovered solver panic", s.Name, s.OK, s.Error)
		}
	}
}

func TestRareSpecValidation(t *testing.T) {
	base := func() Scenario { return rareScenario(500) }
	cases := []struct {
		name   string
		mutate func(*Scenario)
	}{
		{"method excluded", func(s *Scenario) { s.UQ.Method = MethodMonteCarlo }},
		{"streaming excluded", func(s *Scenario) { s.UQ.Stream = true }},
		{"samples excluded", func(s *Scenario) { s.UQ.Samples = 100 }},
		{"p0 too large", func(s *Scenario) { s.UQ.P0 = 0.5 }},
		{"indivisible level samples", func(s *Scenario) { s.UQ.LevelSamples = 41 }},
		{"is_shift on subset", func(s *Scenario) { s.UQ.ISShift = 2 }},
		{"importance without shift", func(s *Scenario) {
			s.UQ.Estimator = EstimatorImportance
		}},
		{"unknown estimator", func(s *Scenario) { s.UQ.Estimator = "bogus" }},
		{"unknown mode", func(s *Scenario) { s.UQ.Mode = "bogus" }},
		{"rare knobs without mode", func(s *Scenario) {
			s.UQ.Mode = ""
			s.UQ.P0 = 0.1
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base()
			tc.mutate(&s)
			if err := s.Validate(); err == nil {
				t.Errorf("invalid rare spec accepted: %+v", s.UQ)
			}
		})
	}
	ok := base()
	if err := ok.Validate(); err != nil {
		t.Errorf("valid rare spec rejected: %v", err)
	}
}

// TestRareResultMarshals guards the JSON envelope: a rare result with a
// zero-failure importance run (PF = 0, CoV = +Inf internally) must still
// marshal — the CoV guard maps the infinity to an absent field.
func TestRareResultMarshals(t *testing.T) {
	pf := 0.0
	res := &ScenarioResult{
		Index: 0, Name: "x", OK: true,
		Method: ModeFailureProbability, RareEstimator: EstimatorSubset,
		PFail: &pf,
	}
	if _, err := json.Marshal(res); err != nil {
		t.Fatalf("rare result does not marshal: %v", err)
	}
}
