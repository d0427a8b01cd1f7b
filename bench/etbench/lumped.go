package main

import (
	"math"

	"etherm/internal/analytic"
	"etherm/internal/material"
	"etherm/internal/uq"
)

// lumpedWires is the number of uncertain wire elongations of the cheap
// package model.
const lumpedWires = 12

// lumpedModel is the 12-wire lumped package model of the uq-cheap workload:
// six voltage-driven wire pairs heat one lumped node (analytic.LumpedPackage)
// whose steady temperature is the single output. An evaluation costs a few
// microseconds, so campaigns over it measure the campaign driver, sampler,
// accumulators and worker pool rather than the solver. It is stateless and
// safe for concurrent use.
type lumpedModel struct{}

func (lumpedModel) Dim() int        { return lumpedWires }
func (lumpedModel) NumOutputs() int { return 1 }

func (lumpedModel) Eval(params, out []float64) error {
	const (
		vPair = 114e-3  // V across one wire pair
		dirD  = 1.29e-3 // m, direct pad-to-pad distance
		diam  = 25.4e-6 // m, wire diameter
	)
	cu := material.Copper()
	area := math.Pi * diam * diam / 4
	power := func(t float64) float64 {
		p := 0.0
		for j := 0; j < lumpedWires; j += 2 {
			l1 := dirD / (1 - clampDelta(params[j]))
			l2 := dirD / (1 - clampDelta(params[j+1]))
			p += vPair * vPair * cu.ElecCond(t) * area / (l1 + l2)
		}
		return p
	}
	out[0] = analytic.LumpedPackage{C: 0.030, R: 500, TInf: 300, Power: power}.SteadyState()
	return nil
}

func clampDelta(d float64) float64 { return math.Min(math.Max(d, 0), 0.9) }

// lumpedDists is the paper's fitted elongation law δ ~ N(0.17, 0.048²) for
// every wire, independently.
func lumpedDists() []uq.Dist {
	d := make([]uq.Dist, lumpedWires)
	for j := range d {
		d[j] = uq.Normal{Mu: 0.17, Sigma: 0.048}
	}
	return d
}
