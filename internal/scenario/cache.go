package scenario

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"sync/atomic"

	"etherm/internal/bondwire"
	"etherm/internal/chipmodel"
	"etherm/internal/core"
	"etherm/internal/fit"
	"etherm/internal/material"
)

// GeometryKey hashes the fields of a chip specification that determine the
// mesh and the cell-material map — and therefore the FIT assembly. Drive
// voltage, wire material/diameter/segments/elongation and ambient conditions
// deliberately do not enter the key: they reshape only the cheap per-scenario
// pieces (Dirichlet values, lumped wires, Robin boundary), so scenarios
// differing in them share one cached assembly. The bulk material pair
// (mold epoxy + copper) is fixed by chipmodel and needs no key component.
func GeometryKey(s chipmodel.Spec) string {
	h := sha256.New()
	fmt.Fprintf(h, "%.17g|%.17g|%.17g|%.17g|%.17g|%.17g|%.17g|%.17g|%.17g|%.17g|%.17g|%.17g|%d|%.17g",
		s.MoldLx, s.MoldLy, s.MoldH,
		s.ChipLx, s.ChipLy, s.ChipH, s.ChipOffsetY,
		s.PadW, s.PadLen, s.PadLenLong, s.PadThk, s.PadZ0,
		s.PadsPerSide, s.HMax)
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// assemblyEntry is one cached (layout, assembler) pair. once guards the
// build so concurrent scenarios with the same geometry block on a single
// construction instead of racing.
type assemblyEntry struct {
	once sync.Once
	lay  *chipmodel.Layout
	asm  *fit.Assembler
	err  error
}

// AssemblyCache deduplicates mesh construction and FIT operator assembly
// across the scenarios of a batch. Entries are keyed by GeometryKey and
// built from a geometry-normalized spec (unit drive, nominal wires), so any
// scenario with the same mesh can derive its concrete problem from the
// shared entry. The zero value is not usable; construct with NewCache.
type AssemblyCache struct {
	mu      sync.Mutex
	entries map[string]*assemblyEntry
	hits    atomic.Int64
	misses  atomic.Int64
}

// NewCache returns an empty assembly cache.
func NewCache() *AssemblyCache {
	return &AssemblyCache{entries: make(map[string]*assemblyEntry)}
}

// Hits returns the number of Instantiate calls served from an existing
// entry.
func (c *AssemblyCache) Hits() int64 { return c.hits.Load() }

// Misses returns the number of Instantiate calls that had to build a new
// mesh assembly.
func (c *AssemblyCache) Misses() int64 { return c.misses.Load() }

// Len returns the number of distinct geometries cached.
func (c *AssemblyCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// cached reports whether the geometry key has an entry.
func (c *AssemblyCache) cached(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// normalized returns the spec with every non-geometry field pinned to a
// canonical value, so one cached layout can serve all scenarios sharing a
// mesh. The unit drive makes per-scenario Dirichlet scaling exact: cached
// contact values are ±1 and multiply by the scenario's drive voltage.
func normalized(s chipmodel.Spec) chipmodel.Spec {
	base := chipmodel.DATE16()
	s.DriveV = 1.0
	s.WireDiameter = base.WireDiameter
	s.WireSegments = 1
	s.MeanElong = base.MeanElong
	s.WireMat = nil
	s.HTC = base.HTC
	s.Emissivity = base.Emissivity
	s.TAmbient = base.TAmbient
	return s
}

// entry returns the cached assembly for the spec's geometry, building it on
// first use. The returned hit flag reports whether the entry already
// existed.
func (c *AssemblyCache) entry(spec chipmodel.Spec) (*assemblyEntry, bool, error) {
	key := GeometryKey(spec)
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &assemblyEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	e.once.Do(func() {
		lay, err := normalized(spec).Build()
		if err != nil {
			e.err = fmt.Errorf("scenario: building cached layout: %w", err)
			return
		}
		asm, err := fit.NewAssembler(lay.Problem.Grid, lay.Problem.CellMat, lay.Problem.Lib)
		if err != nil {
			e.err = fmt.Errorf("scenario: building cached assembly: %w", err)
			return
		}
		e.lay, e.asm = lay, asm
	})
	return e, ok, e.err
}

// Instance is a per-scenario problem derived from a cached assembly.
type Instance struct {
	// Problem shares the cached grid, cell materials and material library;
	// wires, contacts and thermal boundary are scenario-specific.
	Problem *core.Problem
	// Assembler is the shared FIT assembly; pass it to
	// core.NewSimulatorShared.
	Assembler *fit.Assembler
	// Layout is the cached geometry bookkeeping (pads, wire sides, direct
	// distances). It belongs to the cache: treat as read-only, and note its
	// Spec is geometry-normalized (unit drive, nominal wires).
	Layout *chipmodel.Layout
	// Wires lists the layout info of the instantiated wires, parallel to
	// Problem.Wires (a subset of Layout.Wires when pairs are restricted).
	Wires []chipmodel.WireInfo
	// CacheHit reports whether the mesh assembly was reused.
	CacheHit bool
}

// Simulator builds a simulator for the instance with the given options,
// sharing the cached mesh assembly.
func (in *Instance) Simulator(opt core.Options) (*core.Simulator, error) {
	return core.NewSimulatorShared(in.Problem, opt, in.Assembler)
}

// Instantiate derives the concrete problem of one scenario from the cache:
// the shared mesh assembly plus scenario-specific wires (material, diameter,
// segment count, nominal elongation), PEC contact values scaled to the
// scenario's drive voltage, and the scenario's thermal environment. When
// activePairs is non-empty only those wire pairs (and their contacts) are
// kept.
func (c *AssemblyCache) Instantiate(spec chipmodel.Spec, activePairs []int) (*Instance, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	e, hit, err := c.entry(spec)
	if err != nil {
		return nil, err
	}
	lay := e.lay
	cached := lay.Problem
	if len(cached.Wires) != len(cached.ElecDirichlet) || len(cached.Wires) != len(lay.Wires) {
		return nil, fmt.Errorf("scenario: cached layout has inconsistent wire bookkeeping")
	}

	active := func(pair int) bool { return true }
	if len(activePairs) > 0 {
		set := make(map[int]bool, len(activePairs))
		for _, p := range activePairs {
			set[p] = true
		}
		active = func(pair int) bool { return set[pair] }
	}

	wireMat := material.Model(material.Copper())
	if spec.WireMat != nil {
		wireMat = spec.WireMat
	}

	p := &core.Problem{
		Grid:    cached.Grid,
		CellMat: cached.CellMat,
		Lib:     cached.Lib,
		ThermalBC: fit.RobinBC{
			H: spec.HTC, Emissivity: spec.Emissivity, TInf: spec.TAmbient,
		},
	}
	var wires []chipmodel.WireInfo
	anyActive := false
	for i, info := range lay.Wires {
		if !active(info.Pair) {
			continue
		}
		anyActive = true
		geom, err := bondwire.FromElongation(info.Direct, spec.MeanElong, spec.WireDiameter)
		if err != nil {
			return nil, fmt.Errorf("scenario: wire %d: %w", i, err)
		}
		p.Wires = append(p.Wires, bondwire.Wire{
			Name:     cached.Wires[i].Name,
			NodeA:    info.ChipNode,
			NodeB:    info.PadNode,
			Geom:     geom,
			Mat:      wireMat,
			Segments: spec.WireSegments,
		})
		wires = append(wires, info)
		// The cached contact values are ±1 (unit drive); scale to ±DriveV.
		src := cached.ElecDirichlet[i]
		d := fit.Dirichlet{
			Nodes:  src.Nodes,
			Values: make([]float64, len(src.Values)),
		}
		for k, v := range src.Values {
			d.Values[k] = v * spec.DriveV
		}
		p.ElecDirichlet = append(p.ElecDirichlet, d)
	}
	if !anyActive {
		return nil, fmt.Errorf("scenario: no wire pair matches the active set %v", activePairs)
	}
	return &Instance{
		Problem:   p,
		Assembler: e.asm,
		Layout:    lay,
		Wires:     wires,
		CacheHit:  hit,
	}, nil
}
