package main

import (
	"math"
	"testing"
)

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = float64(n - i) // descending: tail must sort
		}
		return x
	}
	for _, c := range []struct {
		n         int
		want, pct float64
	}{
		{1, 1, 100},   // too few samples for the rule: the maximum
		{10, 10, 100}, // still too few
		{11, 1, 100 * 1.0 / 11},
		{50, 40, 80}, // 10 samples above the 40th: p80
		{200, 190, 95},
		{2000, 1990, 99.5},
	} {
		v, pct := tail(seq(c.n))
		if v != c.want || math.Abs(pct-c.pct) > 1e-9 {
			t.Errorf("tail of %d samples = %g at p%g, want %g at p%g", c.n, v, pct, c.want, c.pct)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.quantiles(x, n=4).
	for _, c := range []struct {
		x    []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9, 4, 4, 7.75, 2, 8, 6, 5.5, 0.5}, [3]float64{2, 4, 7.75}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, q2, q3 := quartiles(c.x)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(x []float64, f float64) []float64 {
		out := make([]float64, len(x))
		for i, v := range x {
			out[i] = v * f
		}
		return out
	}
	wide := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name           string
		parent, change []float64
		higherBetter   bool
		want           string
	}{
		{"identical runs are all ties", steady, steady, false, verdictUnchanged},
		{"clear win on a lower-is-better metric", steady, scale(steady, 0.8), false, verdictImproved},
		{"clear win on a higher-is-better metric", steady, scale(steady, 1.2), true, verdictImproved},
		{"nine wins and a tie still win", steady,
			[]float64{90, 91, 89, 90, 92, 88, 90, 91, 89, 100}, false, verdictImproved},
		{"eight wins are not enough", steady,
			[]float64{90, 91, 89, 90, 92, 88, 90, 91, 99, 100}, false, verdictUnchanged},
		{"small consistent win inside the parent's spread", steady, scale(steady, 0.995), false, verdictUnchanged},
		{"worse within the bound", steady, scale(steady, 1.05), false, verdictUnchanged},
		{"worse beyond the bound", steady, scale(steady, 1.2), false, verdictRegressed},
		{"worse beyond the bound, higher is better", steady, scale(steady, 0.8), true, verdictRegressed},
		{"spread wider than the bound", wide, scale(wide, 1.02), false, verdictUnresolved},
		{"wide spread but every change run is better", wide, scale(wide, 0.4), false, verdictImproved},
	} {
		if got := verdict(c.parent, c.change, c.higherBetter, 0.10); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}
