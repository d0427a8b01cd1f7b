package main

import (
	"math"
	"sort"
)

// tailMargin is how many samples must lie beyond a reported tail percentile.
const tailMargin = 10

func sorted(x []float64) []float64 {
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of x (the mean of the two middle values
// for an even count), or 0 for an empty slice.
func median(x []float64) float64 {
	n := len(x)
	if n == 0 {
		return 0
	}
	s := sorted(x)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest order statistic of x with at least tailMargin
// samples above it, and the percentile it sits at. With too few samples for
// that rule it returns the maximum at percentile 100.
func tail(x []float64) (value, pct float64) {
	n := len(x)
	if n == 0 {
		return 0, 0
	}
	s := sorted(x)
	if n <= tailMargin {
		return s[n-1], 100
	}
	k := n - 1 - tailMargin
	return s[k], 100 * float64(k+1) / float64(n)
}

// quartiles returns the three cut points of x as Python's
// statistics.quantiles(x, n=4) computes them (the default "exclusive"
// method), so spreads computed here and in Python agree. x needs at least
// two values.
func quartiles(x []float64) (q1, q2, q3 float64) {
	s := sorted(x)
	n := len(s)
	m := n + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range of x as a share of its median.
func spread(x []float64) float64 {
	q1, q2, q3 := quartiles(x)
	if q2 == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}

// Verdicts of the paired comparison.
const (
	verdictImproved   = "improved"
	verdictUnchanged  = "unchanged"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// verdict applies the paired A/B rule to one metric of one workload.
// parent[i] and change[i] are the i-th pair of runs; higherBetter gives the
// metric's direction and bound the share of the parent's median by which
// the change may be worse before it counts as a regression.
//
//   - improved: the change wins at least nine tenths of all pairs (ties count
//     for neither side) and the medians differ, in its favour, by more than
//     the parent's interquartile range;
//   - unresolved: otherwise, when the parent's own spread is wider than the
//     bound, unless every change run reads better than every parent run;
//   - regressed: the change's median is worse than the parent's by more than
//     the bound;
//   - unchanged: everything else.
func verdict(parent, change []float64, higherBetter bool, bound float64) string {
	better := func(a, b float64) bool { // a reads better than b
		if higherBetter {
			return a > b
		}
		return a < b
	}
	wins := 0
	for i := range parent {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	pm, cm := median(parent), median(change)
	q1, _, q3 := quartiles(parent)
	if 10*wins >= 9*len(parent) && better(cm, pm) && math.Abs(cm-pm) > q3-q1 {
		return verdictImproved
	}
	if spread(parent) > bound {
		worstChange, bestParent := change[0], parent[0]
		for _, v := range change {
			if better(worstChange, v) {
				worstChange = v
			}
		}
		for _, v := range parent {
			if better(v, bestParent) {
				bestParent = v
			}
		}
		if !better(worstChange, bestParent) {
			return verdictUnresolved
		}
	}
	if better(pm, cm) && math.Abs(cm-pm) > bound*math.Abs(pm) {
		return verdictRegressed
	}
	return verdictUnchanged
}
