// Package chipmodel builds the paper's example package: a molded chip with
// 28 contact pads and 12 bonding wires driven in 6 adjacent pairs at
// V_bw = 40 mV (PEC contacts at ±20 mV), following section V-A and Table II.
//
// The published quantities are used exactly: pad width 0.311 mm, 24 pads of
// length 1.01 mm and 4 of 1.261 mm, copper pads/chip/wires, epoxy mold,
// wire diameter 25.4 µm, mean wire length 1.55 mm (via mean elongation
// δ = 0.17 over the direct distances of the layout). The mold and chip
// dimensions are not published; the defaults in DATE16() were chosen so the
// layout is geometrically consistent with the published pad and wire
// lengths (see DESIGN.md §2 on this substitution).
package chipmodel

import (
	"fmt"
	"math"

	"etherm/internal/bondwire"
	"etherm/internal/core"
	"etherm/internal/fit"
	"etherm/internal/grid"
	"etherm/internal/material"
)

// Side identifies a package side.
type Side int

// Package sides in counter-clockwise order.
const (
	South Side = iota // y = 0
	East              // x = Lx
	North             // y = Ly
	West              // x = 0
)

func (s Side) String() string {
	switch s {
	case South:
		return "south"
	case East:
		return "east"
	case North:
		return "north"
	default:
		return "west"
	}
}

// Box is an axis-aligned box (metres).
type Box struct {
	X0, X1, Y0, Y1, Z0, Z1 float64
}

// Contains reports whether (x,y,z) lies inside the box.
func (b Box) Contains(x, y, z float64) bool {
	return x >= b.X0 && x <= b.X1 && y >= b.Y0 && y <= b.Y1 && z >= b.Z0 && z <= b.Z1
}

// Volume returns the box volume.
func (b Box) Volume() float64 { return (b.X1 - b.X0) * (b.Y1 - b.Y0) * (b.Z1 - b.Z0) }

// Spec parameterizes the package model. All lengths in metres.
type Spec struct {
	// Mold compound block dimensions.
	MoldLx, MoldLy, MoldH float64
	// Chip dimensions and placement. The chip sits on the leadframe plane
	// (PadZ0) and may be offset in y, which makes one side's wires shorter —
	// the "closest contacts" of the paper's Fig. 8 discussion.
	ChipLx, ChipLy, ChipH float64
	ChipOffsetY           float64
	// Contact pads.
	PadW, PadLen, PadLenLong, PadThk, PadZ0 float64
	PadsPerSide                             int
	// Wires.
	WireDiameter float64
	WireSegments int
	MeanElong    float64 // nominal relative elongation δ̄ for the initial geometry
	// Electrical drive: PEC contacts at ±DriveV, so each wire pair sees
	// V_bw = 2·DriveV.
	DriveV float64
	// Thermal environment (Table II).
	HTC        float64 // heat transfer coefficient, W/m²/K
	Emissivity float64
	TAmbient   float64
	// Mesh: maximum spacing between grid lines.
	HMax float64
	// WireMat overrides the copper bonding-wire material when non-nil
	// (gold/aluminium design studies).
	WireMat material.Model
}

// DATE16 returns the specification of the paper's example with the published
// values of Table I/II and calibrated free dimensions.
func DATE16() Spec {
	return Spec{
		MoldLx: 5.86e-3, MoldLy: 5.86e-3, MoldH: 0.55e-3,
		ChipLx: 1.3e-3, ChipLy: 1.3e-3, ChipH: 0.30e-3,
		ChipOffsetY:  0.15e-3,
		PadW:         0.311e-3,
		PadLen:       1.01e-3,
		PadLenLong:   1.261e-3,
		PadThk:       0.10e-3,
		PadZ0:        0.15e-3,
		PadsPerSide:  7,
		WireDiameter: 25.4e-6,
		WireSegments: 1,
		MeanElong:    0.17,
		DriveV:       0.020,
		HTC:          25,
		Emissivity:   0.2475,
		TAmbient:     300,
		HMax:         0.35e-3,
	}
}

// DATE16Calibrated returns the DATE16 spec with the electric drive raised to
// the power-calibrated level. With the published inputs alone (V_bw = 40 mV,
// R_wire ≈ 53 mΩ at 300 K) the total dissipation is ≈ 91 mW, which no
// geometrically consistent package of this footprint can turn into the
// ≈ 200 K steady rise of the paper's Fig. 7 under h = 25 W/m²/K — the
// missing factor sits in unpublished geometry/power details. Raising the
// contact drive to ±57 mV (V_bw = 114 mV, ≈ 4.5× power at temperature) is a
// power-equivalent surrogate that reproduces the paper's temperature level
// (E_max(50 s) ≈ 500 K) and crossing behaviour while keeping every published
// parameter ratio intact. EXPERIMENTS.md reports both the faithful and the
// calibrated runs.
func DATE16Calibrated() Spec {
	s := DATE16()
	s.DriveV = 0.057
	return s
}

// padMargin returns the corner keep-out distance of the pad rows.
func (s Spec) padMargin() float64 { return s.PadLenLong + s.PadW }

// Validate checks geometric consistency.
func (s Spec) Validate() error {
	if s.MoldLx <= 0 || s.MoldLy <= 0 || s.MoldH <= 0 {
		return fmt.Errorf("chipmodel: non-positive mold dimensions")
	}
	if s.PadsPerSide < 2 {
		return fmt.Errorf("chipmodel: need ≥2 pads per side, got %d", s.PadsPerSide)
	}
	// Pad rows stay clear of the corners so pads of adjacent sides cannot
	// overlap: the row spans [margin, L−margin] with margin covering the
	// longest pad of the neighbouring side.
	margin := s.padMargin()
	span := s.MoldLx - 2*margin
	if span <= 0 {
		return fmt.Errorf("chipmodel: mold too small for the pad ring (span %g)", span)
	}
	pitch := span / float64(s.PadsPerSide-1)
	if pitch <= s.PadW {
		return fmt.Errorf("chipmodel: pads overlap (pitch %g ≤ width %g)", pitch, s.PadW)
	}
	if s.PadZ0+s.PadThk > s.MoldH || s.PadZ0+s.ChipH > s.MoldH {
		return fmt.Errorf("chipmodel: pad or chip sticks out of the mold")
	}
	halfGapX := (s.MoldLx-s.ChipLx)/2 - s.PadLenLong
	halfGapY := (s.MoldLy-s.ChipLy)/2 - s.PadLenLong - math.Abs(s.ChipOffsetY)
	if halfGapX <= 0 || halfGapY <= 0 {
		return fmt.Errorf("chipmodel: chip overlaps the pad ring (gaps %g, %g)", halfGapX, halfGapY)
	}
	if s.MeanElong < 0 || s.MeanElong >= 1 {
		return fmt.Errorf("chipmodel: mean elongation %g outside [0,1)", s.MeanElong)
	}
	if s.WireDiameter <= 0 || s.DriveV <= 0 || s.HMax <= 0 {
		return fmt.Errorf("chipmodel: non-positive wire diameter, drive voltage or mesh size")
	}
	return nil
}

// Pad describes one contact pad of the layout.
type Pad struct {
	Side  Side
	Index int // position along the side, 0-based
	Box   Box
	Long  bool
	Wired bool
}

// WireInfo records the layout data of one bonding wire.
type WireInfo struct {
	Side     Side
	PadID    int     // index into Layout.Pads
	Pair     int     // 0..5; wires 2k and 2k+1 form pair k
	Polarity float64 // +1 → pad driven at +DriveV, −1 → −DriveV
	Direct   float64 // direct distance d between the bond points
	PadNode  int     // grid node at the pad-side bond point
	ChipNode int     // grid node at the chip-side bond point
}

// Layout is the fully constructed model: the discrete problem plus the
// geometric bookkeeping needed by figures and reports.
type Layout struct {
	Spec    Spec
	Problem *core.Problem
	Pads    []Pad
	Chip    Box
	Wires   []WireInfo
	// Material IDs in Problem.Lib.
	MoldMat, CopperMat, WireMatID int
}

// wiredPositions returns the pad position indices that carry wires on each
// side: four on north/south (two adjacent pairs each) and two on east/west
// (one pair each) — 12 wires in 6 adjacent pairs.
func wiredPositions(side Side, perSide int) [][2]int {
	c := perSide / 2
	switch side {
	case North, South:
		return [][2]int{{c - 2, c - 1}, {c + 1, c + 2}}
	default:
		return [][2]int{{c - 1, c}}
	}
}

// Build constructs the mesh, material map, bonding wires and boundary
// conditions.
func (s Spec) Build() (*Layout, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	lib, err := material.NewLibrary(material.EpoxyResin(), material.Copper())
	if err != nil {
		return nil, err
	}
	moldID, copperID := 0, 1
	wireMat := material.Model(material.Copper())
	if s.WireMat != nil {
		wireMat = s.WireMat
	}

	lay := &Layout{Spec: s, MoldMat: moldID, CopperMat: copperID, WireMatID: copperID}

	// --- Pad and chip boxes -------------------------------------------------
	cx, cy := s.MoldLx/2, s.MoldLy/2
	chipZ0 := s.PadZ0
	chipTop := chipZ0 + s.ChipH
	lay.Chip = Box{
		X0: cx - s.ChipLx/2, X1: cx + s.ChipLx/2,
		Y0: cy - s.ChipLy/2 + s.ChipOffsetY, Y1: cy + s.ChipLy/2 + s.ChipOffsetY,
		Z0: chipZ0, Z1: chipTop,
	}
	margin := s.padMargin()
	pitchX := (s.MoldLx - 2*margin) / float64(s.PadsPerSide-1)
	pitchY := (s.MoldLy - 2*margin) / float64(s.PadsPerSide-1)
	padTop := s.PadZ0 + s.PadThk
	for _, side := range []Side{South, East, North, West} {
		wired := map[int]bool{}
		for _, pr := range wiredPositions(side, s.PadsPerSide) {
			wired[pr[0]], wired[pr[1]] = true, true
		}
		for i := 0; i < s.PadsPerSide; i++ {
			long := i == 0 // one long pad per side → 4 of 28, as in the paper
			plen := s.PadLen
			if long {
				plen = s.PadLenLong
			}
			pitch := pitchX
			if side == East || side == West {
				pitch = pitchY
			}
			center := margin + pitch*float64(i)
			var b Box
			switch side {
			case South:
				b = Box{X0: center - s.PadW/2, X1: center + s.PadW/2, Y0: 0, Y1: plen, Z0: s.PadZ0, Z1: padTop}
			case North:
				b = Box{X0: center - s.PadW/2, X1: center + s.PadW/2, Y0: s.MoldLy - plen, Y1: s.MoldLy, Z0: s.PadZ0, Z1: padTop}
			case East:
				b = Box{X0: s.MoldLx - plen, X1: s.MoldLx, Y0: center - s.PadW/2, Y1: center + s.PadW/2, Z0: s.PadZ0, Z1: padTop}
			default: // West
				b = Box{X0: 0, X1: plen, Y0: center - s.PadW/2, Y1: center + s.PadW/2, Z0: s.PadZ0, Z1: padTop}
			}
			lay.Pads = append(lay.Pads, Pad{Side: side, Index: i, Box: b, Long: long, Wired: wired[i]})
		}
	}

	// --- Mesh lines snapped to all material interfaces ---------------------
	xb := []float64{0, s.MoldLx, lay.Chip.X0, lay.Chip.X1}
	yb := []float64{0, s.MoldLy, lay.Chip.Y0, lay.Chip.Y1}
	zb := []float64{0, s.PadZ0, padTop, chipTop, s.MoldH}
	for _, p := range lay.Pads {
		xb = append(xb, p.Box.X0, p.Box.X1)
		yb = append(yb, p.Box.Y0, p.Box.Y1)
		if p.Wired {
			// Snap lines through the bond points so wires attach exactly.
			switch p.Side {
			case South, North:
				xb = append(xb, (p.Box.X0+p.Box.X1)/2)
			default:
				yb = append(yb, (p.Box.Y0+p.Box.Y1)/2)
			}
		}
	}
	tol := 1e-9
	xs, err := grid.LinesFromBreakpoints(xb, s.HMax, tol)
	if err != nil {
		return nil, err
	}
	ys, err := grid.LinesFromBreakpoints(yb, s.HMax, tol)
	if err != nil {
		return nil, err
	}
	zs, err := grid.LinesFromBreakpoints(zb, s.HMax, tol)
	if err != nil {
		return nil, err
	}
	g, err := grid.NewTensor(xs, ys, zs)
	if err != nil {
		return nil, err
	}

	// --- Cell materials -----------------------------------------------------
	cellMat := make([]int, g.NumCells())
	for c := range cellMat {
		x, y, z := g.CellCenter(c)
		id := moldID
		if lay.Chip.Contains(x, y, z) {
			id = copperID
		} else {
			for _, p := range lay.Pads {
				if p.Box.Contains(x, y, z) {
					id = copperID
					break
				}
			}
		}
		cellMat[c] = id
	}

	// --- Wires and PEC contacts ---------------------------------------------
	prob := &core.Problem{
		Grid: g, CellMat: cellMat, Lib: lib,
		ThermalBC: fit.RobinBC{H: s.HTC, Emissivity: s.Emissivity, TInf: s.TAmbient},
	}
	pair := 0
	// Deterministic wire order: iterate sides, then pairs, then the two pads.
	for _, side := range []Side{South, East, North, West} {
		for _, pr := range wiredPositions(side, s.PadsPerSide) {
			for k, pos := range []int{pr[0], pr[1]} {
				padID := int(side)*s.PadsPerSide + pos
				p := lay.Pads[padID]
				polarity := 1.0
				if k == 1 {
					polarity = -1
				}

				// Bond points: pad inner-end top center ↔ nearest chip top edge.
				var padPt, chipPt [3]float64
				switch side {
				case South:
					padPt = [3]float64{(p.Box.X0 + p.Box.X1) / 2, p.Box.Y1, padTop}
					chipPt = [3]float64{clamp(padPt[0], lay.Chip.X0, lay.Chip.X1), lay.Chip.Y0, chipTop}
				case North:
					padPt = [3]float64{(p.Box.X0 + p.Box.X1) / 2, p.Box.Y0, padTop}
					chipPt = [3]float64{clamp(padPt[0], lay.Chip.X0, lay.Chip.X1), lay.Chip.Y1, chipTop}
				case East:
					padPt = [3]float64{p.Box.X0, (p.Box.Y0 + p.Box.Y1) / 2, padTop}
					chipPt = [3]float64{lay.Chip.X1, clamp(padPt[1], lay.Chip.Y0, lay.Chip.Y1), chipTop}
				default: // West
					padPt = [3]float64{p.Box.X1, (p.Box.Y0 + p.Box.Y1) / 2, padTop}
					chipPt = [3]float64{lay.Chip.X0, clamp(padPt[1], lay.Chip.Y0, lay.Chip.Y1), chipTop}
				}
				padNode := g.NearestNode(padPt[0], padPt[1], padPt[2])
				chipNode := g.NearestNode(chipPt[0], chipPt[1], chipPt[2])
				px, py, pz := g.NodePosition(padNode)
				qx, qy, qz := g.NodePosition(chipNode)
				d := math.Sqrt((px-qx)*(px-qx) + (py-qy)*(py-qy) + (pz-qz)*(pz-qz))

				geom, err := bondwire.FromElongation(d, s.MeanElong, s.WireDiameter)
				if err != nil {
					return nil, err
				}
				wireIdx := len(prob.Wires)
				prob.Wires = append(prob.Wires, bondwire.Wire{
					Name:     fmt.Sprintf("w%02d-%s%d", wireIdx+1, side, pos),
					NodeA:    chipNode,
					NodeB:    padNode,
					Geom:     geom,
					Mat:      wireMat,
					Segments: s.WireSegments,
				})
				lay.Wires = append(lay.Wires, WireInfo{
					Side: side, PadID: padID, Pair: pair, Polarity: polarity,
					Direct: d, PadNode: padNode, ChipNode: chipNode,
				})

				// PEC contact: the pad's outer-end face at ±DriveV.
				nodes := padOuterFaceNodes(g, p, side, tol)
				if len(nodes) == 0 {
					return nil, fmt.Errorf("chipmodel: no PEC nodes found for pad %d (%s %d)", padID, side, pos)
				}
				prob.ElecDirichlet = append(prob.ElecDirichlet, fit.Dirichlet{
					Nodes:  nodes,
					Values: []float64{polarity * s.DriveV},
				})
			}
			pair++
		}
	}

	if err := prob.Validate(); err != nil {
		return nil, err
	}
	lay.Problem = prob
	return lay, nil
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// padOuterFaceNodes collects the grid nodes on the pad's outer-end face (the
// PEC contact of the paper).
func padOuterFaceNodes(g *grid.Grid, p Pad, side Side, tol float64) []int {
	var out []int
	for n := 0; n < g.NumNodes(); n++ {
		x, y, z := g.NodePosition(n)
		if z < p.Box.Z0-tol || z > p.Box.Z1+tol {
			continue
		}
		switch side {
		case South:
			if math.Abs(y-0) < tol && x >= p.Box.X0-tol && x <= p.Box.X1+tol {
				out = append(out, n)
			}
		case North:
			if math.Abs(y-p.Box.Y1) < tol && x >= p.Box.X0-tol && x <= p.Box.X1+tol {
				out = append(out, n)
			}
		case East:
			if math.Abs(x-p.Box.X1) < tol && y >= p.Box.Y0-tol && y <= p.Box.Y1+tol {
				out = append(out, n)
			}
		default: // West
			if math.Abs(x-0) < tol && y >= p.Box.Y0-tol && y <= p.Box.Y1+tol {
				out = append(out, n)
			}
		}
	}
	return out
}

// MeanDirect returns the average direct distance d over all wires.
func (l *Layout) MeanDirect() float64 {
	s := 0.0
	for _, w := range l.Wires {
		s += w.Direct
	}
	return s / float64(len(l.Wires))
}

// MeanLength returns the average wire length at the nominal elongation.
func (l *Layout) MeanLength() float64 {
	s := 0.0
	for _, w := range l.Problem.Wires {
		s += w.Geom.Length()
	}
	return s / float64(len(l.Problem.Wires))
}

// PairVoltage returns the voltage across each wire pair, 2·DriveV.
func (l *Layout) PairVoltage() float64 { return 2 * l.Spec.DriveV }
