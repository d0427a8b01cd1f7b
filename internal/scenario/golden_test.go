package scenario

import "testing"

// TestContentAddressesGolden pins the two content addresses that hash the
// JSON of the scenario declaration: the campaign tag every checkpoint
// resume and shard merge compares, and the surrogate ID that keys every
// surrogate record in the WAL. A change to a field, tag or field order of
// the declaration types changes these bytes and orphans stored state, so
// the values are fixed here for the paper's scenario file and the bundled
// presets.
func TestContentAddressesGolden(t *testing.T) {
	want := map[string]struct{ tag, surrogate string }{
		"table2-nominal":         {"scenario:c10d705352fb9b47", "sg-355ed85fdca2dd1d"},
		"fig7-monte-carlo":       {"scenario:40a8512ca2c1a50d", "sg-1ec3685594bfea1b"},
		"single-pair-heating":    {"scenario:e613ad91f13c44ef", "sg-22fee3637b9648a5"},
		"nominal-faithful":       {"scenario:1d4d21011c2d3cf7", "sg-0f86ae9eba698b2d"},
		"nominal-calibrated":     {"scenario:2c1b1e794dbbca69", "sg-c846da5a14a54323"},
		"package-mc-sweep":       {"scenario:6687e523fa9dfb39", "sg-2b8168eee7d3c737"},
		"package-qmc-sobol":      {"scenario:94169f82575e26c6", "sg-2b8168eee7d3c737"},
		"collocation-sparse":     {"scenario:1de01057222eac37", "sg-f5227ed18a2f39d3"},
		"degradation-to-failure": {"scenario:8332845c76d23172", "sg-12bd0cca0a65fc4e"},
		"material-gold":          {"scenario:ce767db711c2517e", "sg-38314f138c43f1f2"},
		"material-aluminum":      {"scenario:8104bb7544c9d04a", "sg-601dbbee2c03d6a6"},
		"derating-75":            {"scenario:58a797802d5f18cc", "sg-5f80f19d89e06e34"},
		"derating-50":            {"scenario:1e54b814fe30a5a9", "sg-938ec17b0dceb5e3"},
		"hot-ambient":            {"scenario:043d0a61d01648bb", "sg-69c22c727160d5f9"},
	}
	paper, err := LoadBatch("../../examples/scenarios/date16_paper.json")
	if err != nil {
		t.Fatal(err)
	}
	all := append(append([]Scenario{}, paper.Scenarios...), Presets().Scenarios...)
	if len(all) != len(want) {
		t.Fatalf("%d scenarios, want %d pinned", len(all), len(want))
	}
	for _, s := range all {
		w, ok := want[s.Name]
		if !ok {
			t.Errorf("scenario %q has no pinned address", s.Name)
			continue
		}
		if got := campaignTag(s.WithSimDefaults()); got != w.tag {
			t.Errorf("%s: campaign tag %s, want %s", s.Name, got, w.tag)
		}
		if got := SurrogateID(s, 2, 0); got != w.surrogate {
			t.Errorf("%s: surrogate ID %s, want %s", s.Name, got, w.surrogate)
		}
	}
}
