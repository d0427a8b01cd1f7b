package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"

	"etherm/api"
	"etherm/internal/study"
	"etherm/internal/surrogate"
)

// Surrogates as campaign products. A scenario plus a sparse-grid level
// fully determines a surrogate: the chip geometry (through the shared
// assembly cache), the transient solve, the elongation law and the
// collocation design. SurrogateID fingerprints exactly that set, so
// surrogate identity is content-addressed — resubmitting the same build
// is a no-op, and a query for a differently-configured study misses.

// SurrogateID fingerprints everything that changes what a surrogate
// answers: the physical model, the study law and the collocation design.
// Campaign-control knobs (budget, targets, checkpointing) are excluded,
// mirroring campaignTag.
func SurrogateID(s Scenario, level, order int) string {
	s = s.WithSimDefaults()
	id := struct {
		Chip      ChipSpec
		Sim       api.SimSpec
		Rho       float64
		MeanDelta float64
		StdDelta  float64
		CriticalK float64
		Level     int
		Order     int
	}{
		Chip:      s.Chip,
		Sim:       s.Sim,
		Rho:       studyParams(s.UQ).Rho,
		MeanDelta: s.UQ.MeanDelta,
		StdDelta:  s.UQ.StdDelta,
		CriticalK: s.UQ.CriticalK,
		Level:     level,
		Order:     order,
	}
	data, err := json.Marshal(id)
	if err != nil {
		return "sg-" + s.Name // cannot happen for plain data; keep a stable fallback
	}
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("sg-%016x", h.Sum64())
}

// BuildSurrogate evaluates the scenario's study on the union of the
// level and level−1 sparse-grid designs (through the shared assembly
// cache, so repeated builds for one geometry reuse the FEM assembly) and
// fits the serving surrogate. The returned model is self-contained and
// serializable; ctx cancels between FEM evaluations.
func BuildSurrogate(ctx context.Context, cache *AssemblyCache, s Scenario, level, order int) (*surrogate.Model, error) {
	s = s.WithSimDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	spec, err := Materialize(s.Chip)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	inst, err := cache.Instantiate(spec, s.Chip.ActivePairs)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	sim, err := inst.Simulator(coreOptions(s.Sim, true))
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	factory, dists := studyInputs(sim, s.UQ)
	law := studyParams(s.UQ).Effective()
	cfg := surrogate.Config{
		ID:          SurrogateID(s, level, order),
		GeometryKey: GeometryKey(spec),
		Scenario:    s.Name,
		Level:       level,
		Order:       order,
		NWires:      len(sim.Wires()),
		Times:       study.Times(sim.Options()),
		Mu:          law.Mu,
		Sigma:       law.Sigma,
		Rho:         law.Rho,
		TCritK:      criticalK(s),
	}
	m, err := surrogate.Build(ctx, factory, dists, cfg)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	return m, nil
}
