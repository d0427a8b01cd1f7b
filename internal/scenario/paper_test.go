package scenario

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// paperFile is the committed run configuration of the paper's study: the
// Table II nominal transient and the Fig. 7 Monte Carlo study, as a
// scenario file whose "sim" blocks are api.SimSpec values.
const paperFile = "../../examples/scenarios/date16_paper.json"

func loadPaper(t *testing.T) *Batch {
	t.Helper()
	b, err := LoadBatch(paperFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Scenarios) != 2 {
		t.Fatalf("%d scenarios, want the nominal run and the Monte Carlo study", len(b.Scenarios))
	}
	return b
}

func TestDefaultMatchesTableII(t *testing.T) {
	b := loadPaper(t)
	for _, s := range b.Scenarios {
		if err := s.Sim.Validate(); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if s.Sim.EndTimeS != 50 || s.Sim.NumSteps != 50 {
			t.Errorf("%s: time discretization differs from Table II", s.Name)
		}
	}
	u := b.Scenarios[1].UQ
	if u.Samples != 1000 || u.MeanDelta != 0.17 || u.StdDelta != 0.048 {
		t.Error("UQ settings differ from the paper")
	}
	if u.CriticalK != 523 {
		t.Error("critical temperature differs from the paper")
	}
}

func TestLoadRoundTrip(t *testing.T) {
	b := loadPaper(t)
	data, err := b.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := LoadBatch(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, b) {
		t.Error("round trip changed the configuration")
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	dir := t.TempDir()
	for name, doc := range map[string]string{
		"uq":  `{"scenarios":[{"name":"x","chip":{"preset":"date16"},"sim":{"end_time_s":1,"num_steps":1},"uq":{"method":"monte-carlo","samples":1,"typo":true}}]}`,
		"sim": `{"scenarios":[{"name":"x","chip":{"preset":"date16"},"sim":{"end_time_s":1,"num_steps":1,"typo":true}}]}`,
	} {
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadBatch(path); err == nil {
			t.Errorf("unknown field in the %s block accepted", name)
		}
	}
}

func TestShardingKnobs(t *testing.T) {
	u := UQSpec{Method: MethodMonteCarlo, Samples: 100, Shards: 4}
	if !u.Sharded() || !u.Streaming() {
		t.Error("shards must imply the streaming sharded path")
	}
	if (UQSpec{Method: MethodMonteCarlo, Samples: 100}).Sharded() {
		t.Error("unsharded config reported sharded")
	}
	// with applies edit to a copy of the paper's Monte Carlo study.
	with := func(edit func(*UQSpec)) *Batch {
		b := loadPaper(t)
		edit(&b.Scenarios[1].UQ)
		return b
	}
	if err := with(func(u *UQSpec) { u.Shards, u.ShardBlock = 4, 128 }).Validate(); err != nil {
		t.Errorf("sharded config rejected: %v", err)
	}
	if err := with(func(u *UQSpec) { u.Shards = -1 }).Validate(); err == nil {
		t.Error("negative shard count accepted")
	}
	if err := with(func(u *UQSpec) { u.Shards, u.TargetSE = 2, 0.1 }).Validate(); err == nil {
		t.Error("sharded config with adaptive target accepted")
	}
	if err := with(func(u *UQSpec) { u.Method, u.Level, u.Shards = MethodSmolyak, 1, 2 }).Validate(); err == nil {
		t.Error("sharded smolyak accepted")
	}
}
