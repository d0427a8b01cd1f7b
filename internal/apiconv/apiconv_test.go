package apiconv

import (
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"testing"

	"etherm/api"
	"etherm/internal/scenario"
	"etherm/internal/uq"
)

// fullScenario populates every field of the internal scenario declaration
// with a non-zero value, so a wire field missing on either side fails the
// strict round trip instead of hiding behind omitempty.
func fullScenario() scenario.Scenario {
	rho, htc, emis := 0.5, 25.0, 0.4
	return scenario.Scenario{
		Name:        "full",
		Description: "conformance fixture",
		Chip: scenario.ChipSpec{
			Preset:         "date16",
			DriveVoltageV:  0.04,
			DriveScale:     1.2,
			HMaxM:          0.8e-3,
			WireSegments:   7,
			WireDiameterM:  25e-6,
			WireMaterial:   "gold",
			MeanElongation: 0.2,
			ActivePairs:    []int{0, 2},
			HTC:            &htc,
			Emissivity:     &emis,
			AmbientK:       300,
		},
		Sim: api.SimSpec{
			EndTimeS: 10, NumSteps: 4, Coupling: "weak", Nonlinear: "newton",
			Integrator: "bdf2", Joule: "edge-split", LinTol: 1e-10,
			Precond: "ic0", PrecondOmega: 0.9, PrecondRefresh: 1.5, SolverWorkers: 2,
		},
		UQ: scenario.UQSpec{
			Method: scenario.MethodMonteCarlo, Samples: 8, Level: 0, Seed: 3,
			Rho: &rho, MeanDelta: 0.17, StdDelta: 0.048, CriticalK: 523,
			Stream: true, MaxSamples: 8, TargetSE: 0.1, TargetCI: 0.01,
			Checkpoint: "cp.json", CheckpointEvery: 4,
			Shards: 2, ShardBlock: 4,
			Mode: scenario.ModeFailureProbability, Estimator: scenario.EstimatorSubset,
			P0: 0.2, LevelSamples: 20, MaxLevels: 5, MCMCStep: 0.8, ISShift: -1.5,
		},
	}
}

// sameType fails the test unless the engine's name for a wire type is the
// api type itself: a field list declared again outside api would need a
// conversion, which is what this package no longer does.
func sameType(t *testing.T, engine, wire any) {
	t.Helper()
	if e, w := reflect.TypeOf(engine), reflect.TypeOf(wire); e != w {
		t.Errorf("engine type %v is not the wire type %v", e, w)
	}
}

// TestScenarioShapeConformance: the engine's scenario declaration is the
// wire declaration.
func TestScenarioShapeConformance(t *testing.T) {
	sameType(t, scenario.Scenario{}, api.Scenario{})
	sameType(t, scenario.ChipSpec{}, api.ChipSpec{})
	sameType(t, scenario.UQSpec{}, api.UQSpec{})
}

// TestBatchShapeConformance: the engine's batch is api.Batch under its own
// deep Validate — convertible, but a distinct type, since an alias would
// inherit the shallow api.Batch.Validate — and an api.Batch marshal parses
// through the server's strict parser.
func TestBatchShapeConformance(t *testing.T) {
	e, w := reflect.TypeOf(scenario.Batch{}), reflect.TypeOf(api.Batch{})
	if !e.ConvertibleTo(w) || !w.ConvertibleTo(e) {
		t.Errorf("%v and %v do not convert into each other", e, w)
	}
	if e == w {
		t.Errorf("%v is an alias of %v: the engine's deep Validate would be lost", e, w)
	}
	// fullScenario deliberately over-constrains its UQ spec (sharding plus
	// adaptive stopping, rare-event knobs alongside a sampling method) so
	// every wire field is non-zero; the parser sees semantically valid
	// variants covering both campaign modes instead.
	sampling := fullScenario()
	sampling.UQ.Shards, sampling.UQ.ShardBlock = 0, 0
	sampling.UQ.Mode, sampling.UQ.Estimator = "", ""
	sampling.UQ.P0, sampling.UQ.LevelSamples, sampling.UQ.MaxLevels = 0, 0, 0
	sampling.UQ.MCMCStep, sampling.UQ.ISShift = 0, 0
	rare := fullScenario()
	rare.Name = "rare"
	rare.UQ = scenario.UQSpec{
		Mode: scenario.ModeFailureProbability, Estimator: scenario.EstimatorSubset,
		P0: 0.2, LevelSamples: 20, MaxLevels: 5, MCMCStep: 0.8,
		Seed: 3, CriticalK: 523,
	}
	valid := &api.Batch{Scenarios: []api.Scenario{sampling, rare}}
	data, err := json.Marshal(valid)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := scenario.ParseBatch(data); err != nil {
		t.Errorf("api.Batch rejected by scenario.ParseBatch: %v", err)
	}
}

// TestResultShapeConformance: the engine's results are the wire results.
func TestResultShapeConformance(t *testing.T) {
	sameType(t, scenario.BatchResult{}, api.BatchResult{})
	sameType(t, scenario.ScenarioResult{}, api.ScenarioResult{})
	sameType(t, scenario.RareLevel{}, api.RareLevel{})
}

// TestDecodeRequest pins the status a request body gets: 400 for what
// json.Unmarshal rejects too, 422 for a field the target does not declare.
func TestDecodeRequest(t *testing.T) {
	for _, tc := range []struct {
		body string
		want int // 0 = accepted
	}{
		{`{"name":"x","chip":{"hmax_m":1}}`, 0},
		{`{"name":"x"}` + "\n", 0},
		{`}{`, http.StatusBadRequest},
		{``, http.StatusBadRequest},
		{`{"name":"x"} {}`, http.StatusBadRequest},
		{`{"name":"x","uq":{"samples":"4"}}`, http.StatusBadRequest},
		{`{"name":"x","chip":{"hmaxx":1}}`, http.StatusUnprocessableEntity},
	} {
		var s api.Scenario
		e := DecodeRequest([]byte(tc.body), &s)
		switch {
		case tc.want == 0 && e != nil:
			t.Errorf("%q rejected: %v", tc.body, e)
		case tc.want != 0 && (e == nil || e.Status != tc.want):
			t.Errorf("%q: got %v, want status %d", tc.body, e, tc.want)
		}
	}
}

// unitLaw is the identity law on (0, 1): the model sees the sampler's
// points unchanged.
type unitLaw struct{}

func (unitLaw) Quantile(u float64) float64 { return u }
func (unitLaw) CDF(x float64) float64      { return min(max(x, 0), 1) }

// TestShardResultBitIdentity runs a real (synthetic) shard, round-trips
// its result through the wire form twice — exactly what worker → client →
// coordinator does — and requires the merged campaign state to be
// bit-identical to merging the original results.
func TestShardResultBitIdentity(t *testing.T) {
	dists := []uq.Dist{unitLaw{}, unitLaw{}}
	factory := uq.SingleFactory(affineModel{})
	plan, err := uq.PlanShards(48, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	sampler := uq.PseudoRandom{D: 2, Seed: 11}
	opt := uq.ShardOptions{Workers: 2, Threshold: 0.75, Tag: "conv"}

	var direct, viaWire []*uq.ShardResult
	for k := 0; k < plan.NumShards; k++ {
		res, err := uq.RunShard(context.Background(), factory, dists, sampler, plan, k, opt)
		if err != nil {
			t.Fatal(err)
		}
		direct = append(direct, res)

		wire, err := ShardResultToAPI(res)
		if err != nil {
			t.Fatalf("shard result does not fit api.ShardResult: %v", err)
		}
		// Simulate the HTTP hop: marshal the api form and decode it again.
		data, err := json.Marshal(api.ShardResultRequest{LeaseID: "lease-1", Result: wire})
		if err != nil {
			t.Fatal(err)
		}
		var req api.ShardResultRequest
		if err := json.Unmarshal(data, &req); err != nil {
			t.Fatal(err)
		}
		back, err := ShardResultToInternal(req.Result)
		if err != nil {
			t.Fatalf("api.ShardResult does not fit internal result: %v", err)
		}
		viaWire = append(viaWire, back)
	}

	a, err := uq.MergeShards(plan, direct)
	if err != nil {
		t.Fatal(err)
	}
	b, err := uq.MergeShards(plan, viaWire)
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := json.Marshal(a.Stats)
	bj, _ := json.Marshal(b.Stats)
	if string(aj) != string(bj) {
		t.Errorf("merged campaign state differs after wire round trip:\n%s\nvs\n%s", aj, bj)
	}
}

// TestPlanConversion covers the shard plan's pointer conversion onto the
// wire: same fields, same bytes, nil stays nil.
func TestPlanConversion(t *testing.T) {
	p, err := uq.PlanShards(100, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	wire := (*api.ShardPlan)(p)
	if wire.MaxSamples != 100 || wire.BlockSize != 8 || wire.NumShards != 4 {
		t.Errorf("plan conversion lost fields: %+v", wire)
	}
	a, _ := json.Marshal(p)
	b, _ := json.Marshal(wire)
	if string(a) != string(b) {
		t.Errorf("plan encodes differently on the wire:\n%s\nvs\n%s", a, b)
	}
	if nilPlan := (*api.ShardPlan)((*uq.ShardPlan)(nil)); nilPlan != nil {
		t.Errorf("nil plan should convert to nil, got %+v", nilPlan)
	}
}

// affineModel is a cheap two-input model for shard fixtures.
type affineModel struct{}

func (affineModel) Dim() int        { return 2 }
func (affineModel) NumOutputs() int { return 3 }
func (affineModel) Eval(p, out []float64) error {
	for j := range out {
		out[j] = p[0] + float64(j+1)*p[1]
	}
	return nil
}
