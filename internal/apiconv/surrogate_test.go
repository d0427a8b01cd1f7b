package apiconv

import (
	"encoding/json"
	"testing"

	"etherm/api"
	"etherm/internal/surrogate"
)

// TestSurrogateQueryShapeConformance: the engine's query is the wire query.
func TestSurrogateQueryShapeConformance(t *testing.T) {
	sameType(t, surrogate.Query{}, api.SurrogateQuery{})
	sameType(t, surrogate.Sweep{}, api.SurrogateSweep{})
}

// TestSurrogateAnswerShapeConformance: the engine's answer is the wire
// answer, and its always-present fields stay on the wire at zero.
func TestSurrogateAnswerShapeConformance(t *testing.T) {
	sameType(t, surrogate.Answer{}, api.SurrogateAnswer{})
	sameType(t, surrogate.QuantileValue{}, api.SurrogateQuantile{})
	sameType(t, surrogate.SweepPoint{}, api.SurrogateSweepPoint{})
	// The indicator must stay visible even at zero — a surrogate whose
	// indicator vanishes from the wire would look like it has no error
	// estimate at all.
	zero := &surrogate.Answer{ID: "sg-0"}
	w, err := SurrogateAnswerToAPI(zero)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := json.Marshal(w)
	for _, key := range []string{"err_indicator_k", "evaluations", "fail_prob"} {
		var m map[string]any
		_ = json.Unmarshal(data, &m)
		if _, ok := m[key]; !ok {
			t.Errorf("zero-valued %q omitted from the wire answer", key)
		}
	}
}

// TestSurrogateQueryStrictness: unknown fields on the wire are rejected —
// the strict decode is what keeps typos loud.
func TestSurrogateQueryStrictness(t *testing.T) {
	var wire api.SurrogateQuery
	data := []byte(`{"quantiles":[0.5],"qantiles":[0.9]}`)
	if err := json.Unmarshal(data, &wire); err != nil {
		t.Fatal(err) // plain decode tolerates unknowns
	}
	type loose struct {
		Extra float64 `json:"extra,omitempty"`
		api.SurrogateQuery
	}
	if _, err := SurrogateQueryToInternal(&wire); err != nil {
		t.Fatalf("clean query rejected: %v", err)
	}
	l := &loose{Extra: 1}
	var out surrogate.Query
	if err := Strict(l, &out); err == nil {
		t.Error("unknown wire field survived the strict round trip")
	}
}
