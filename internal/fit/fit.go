// Package fit implements the Finite Integration Technique (FIT) assembly for
// the coupled electrothermal problem of the paper: the diagonal material
// matrices Mσ(T) and Mλ(T) expressed as per-edge conductances with
// volumetric material averaging, the lumped thermal capacitance Mρc, Joule
// heating redistribution, Robin (convection + radiation) boundary exchange
// and symmetric Dirichlet elimination for PEC contacts.
//
// The discrete system matches eqs. (3)–(4) of the paper:
//
//	−S̃ Mσ(T) G Φ = 0
//	Mρc Ṫ − S̃ Mλ(T) G T = Q(T, Φ)
//
// where S̃ Mσ G is assembled directly as a weighted graph Laplacian over
// primary edges (the equivalence is property-tested against the explicit
// operator product).
package fit

import (
	"fmt"

	"etherm/internal/grid"
	"etherm/internal/material"
)

// StefanBoltzmann is the Stefan–Boltzmann constant in W/(m²·K⁴).
const StefanBoltzmann = 5.670374419e-8

// Kind selects which conductivity the assembler evaluates.
type Kind int

// Conductivity kinds.
const (
	Electric Kind = iota
	Thermal
)

func (k Kind) String() string {
	if k == Electric {
		return "electric"
	}
	return "thermal"
}

// Assembler precomputes, once per mesh, everything needed to evaluate the
// temperature-dependent FIT operators quickly: per-edge geometric factors
// Ã/ℓ with their material blends, per-node lumped heat capacities ρc·Ṽ and
// exposed boundary areas. The same Assembler is shared by all Monte Carlo
// samples since the geometry does not change — only wire parameters do.
type Assembler struct {
	Grid *grid.Grid
	Lib  *material.Library

	cellMat []int

	// Flattened per-edge material blends: for edge e the blend entries are
	// blendMat/blendW[blendPtr[e]:blendPtr[e+1]] and geo[e] = Ã/ℓ.
	geo      []float64
	blendPtr []int
	blendMat []int
	blendW   []float64

	massDiag []float64 // ρc·Ṽ per node
	bndArea  []float64 // exposed boundary area per node (all faces)
}

// NewAssembler builds an assembler for the given grid, per-cell material IDs
// (len = NumCells) and material library.
func NewAssembler(g *grid.Grid, cellMat []int, lib *material.Library) (*Assembler, error) {
	if len(cellMat) != g.NumCells() {
		return nil, fmt.Errorf("fit: cellMat has %d entries, grid has %d cells", len(cellMat), g.NumCells())
	}
	for c, id := range cellMat {
		if id < 0 || id >= lib.Len() {
			return nil, fmt.Errorf("fit: cell %d has invalid material ID %d (library holds %d)", c, id, lib.Len())
		}
	}
	if err := lib.Validate(); err != nil {
		return nil, fmt.Errorf("fit: %w", err)
	}

	a := &Assembler{Grid: g, Lib: lib, cellMat: append([]int(nil), cellMat...)}
	ne := g.NumEdges()
	a.geo = make([]float64, ne)
	a.blendPtr = make([]int, ne+1)
	for e := 0; e < ne; e++ {
		a.geo[e] = g.DualArea(e) / g.EdgeLength(e)
		cells, weights := g.EdgeAdjacentCells(e)
		// Merge weights per material ID to shorten the blend.
		var ids []int
		var ws []float64
		for i, c := range cells {
			id := cellMat[c]
			found := false
			for p, existing := range ids {
				if existing == id {
					ws[p] += weights[i]
					found = true
					break
				}
			}
			if !found {
				ids = append(ids, id)
				ws = append(ws, weights[i])
			}
		}
		a.blendMat = append(a.blendMat, ids...)
		a.blendW = append(a.blendW, ws...)
		a.blendPtr[e+1] = len(a.blendMat)
	}

	nn := g.NumNodes()
	a.massDiag = make([]float64, nn)
	a.bndArea = make([]float64, nn)
	for n := 0; n < nn; n++ {
		cells, weights := g.NodeAdjacentCells(n)
		rhoc := 0.0
		for i, c := range cells {
			rhoc += weights[i] * lib.At(cellMat[c]).VolHeatCap()
		}
		a.massDiag[n] = rhoc * g.DualVolume(n)
		a.bndArea[n] = g.BoundaryArea(n)
	}
	return a, nil
}

// NumEdges returns the number of grid edges (branches) the assembler manages.
func (a *Assembler) NumEdges() int { return a.Grid.NumEdges() }

// EdgeConductances evaluates the diagonal of Mσ (kind Electric) or Mλ (kind
// Thermal) into dst (length NumEdges): for edge e,
//
//	dst[e] = Ã_e/ℓ_e · Σ_c w_c · prop_c(T_e),  T_e = (T[n1]+T[n2])/2,
//
// the volumetric average of the adjacent cells' conductivities evaluated at
// the edge temperature. T may be nil to evaluate at the reference 300 K.
func (a *Assembler) EdgeConductances(kind Kind, T []float64, dst []float64) {
	g := a.Grid
	if len(dst) != g.NumEdges() {
		panic("fit: EdgeConductances dst length mismatch")
	}
	if T != nil && len(T) < g.NumNodes() {
		panic("fit: EdgeConductances temperature vector too short")
	}
	for e := range dst {
		var Te float64 = material.ReferenceTemperature
		if T != nil {
			n1, n2 := g.EdgeNodes(e)
			Te = 0.5 * (T[n1] + T[n2])
		}
		s := 0.0
		for k := a.blendPtr[e]; k < a.blendPtr[e+1]; k++ {
			m := a.Lib.At(a.blendMat[k])
			if kind == Electric {
				s += a.blendW[k] * m.ElecCond(Te)
			} else {
				s += a.blendW[k] * m.ThermCond(Te)
			}
		}
		dst[e] = s * a.geo[e]
	}
}

// MassDiag returns a copy of the lumped thermal capacitance diagonal Mρc
// (entries ρc_j·Ṽ_j per node).
func (a *Assembler) MassDiag() []float64 {
	return append([]float64(nil), a.massDiag...)
}
