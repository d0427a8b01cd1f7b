// Package grid implements the staggered pair of 3D tensor-product hexahedral
// grids used by the Finite Integration Technique (FIT). Electric potentials
// and temperatures live on primary nodes; currents and heat fluxes cross dual
// facets. The package exposes the discrete gradient G and divergence S̃
// operators (with the duality G = −S̃ᵀ), the metric quantities (primary edge
// lengths, dual facet areas, dual cell volumes) and boundary enumeration.
//
// Nodes are indexed n = i + j·Nx + k·Nx·Ny. Edges are grouped by direction:
// all x-directed edges first, then y, then z.
package grid

import (
	"fmt"
	"math"
	"sort"

	"etherm/internal/sparse"
)

// Axis identifies a coordinate direction.
type Axis int

// Coordinate axes for edge and facet orientation.
const (
	X Axis = iota
	Y
	Z
)

func (a Axis) String() string {
	switch a {
	case X:
		return "x"
	case Y:
		return "y"
	case Z:
		return "z"
	}
	return fmt.Sprintf("Axis(%d)", int(a))
}

// Grid is a tensor-product hexahedral primary grid together with its implied
// dual grid. Xs, Ys, Zs are the strictly increasing node coordinate lines.
type Grid struct {
	Xs, Ys, Zs []float64
	Nx, Ny, Nz int

	// Cached half-cell (dual) extents per direction, clipped at the domain
	// boundary: dualDX[i] = (x[i+1]-x[i-1])/2 with one-sided halves at ends.
	dualDX, dualDY, dualDZ []float64
}

// NewTensor builds a grid from explicit coordinate lines. Each line needs at
// least two strictly increasing coordinates.
func NewTensor(xs, ys, zs []float64) (*Grid, error) {
	for _, l := range [][]float64{xs, ys, zs} {
		if len(l) < 2 {
			return nil, fmt.Errorf("grid: coordinate line needs ≥2 points, got %d", len(l))
		}
		for i := 1; i < len(l); i++ {
			if !(l[i] > l[i-1]) {
				return nil, fmt.Errorf("grid: coordinate line not strictly increasing at index %d (%g ≥ %g)", i, l[i-1], l[i])
			}
		}
	}
	g := &Grid{
		Xs: append([]float64(nil), xs...),
		Ys: append([]float64(nil), ys...),
		Zs: append([]float64(nil), zs...),
		Nx: len(xs), Ny: len(ys), Nz: len(zs),
	}
	g.dualDX = dualExtents(g.Xs)
	g.dualDY = dualExtents(g.Ys)
	g.dualDZ = dualExtents(g.Zs)
	return g, nil
}

// NewUniform builds an nx×ny×nz node grid over the box [0,lx]×[0,ly]×[0,lz].
func NewUniform(lx, ly, lz float64, nx, ny, nz int) (*Grid, error) {
	if nx < 2 || ny < 2 || nz < 2 {
		return nil, fmt.Errorf("grid: need ≥2 nodes per direction, got %d×%d×%d", nx, ny, nz)
	}
	if lx <= 0 || ly <= 0 || lz <= 0 {
		return nil, fmt.Errorf("grid: non-positive box dimensions %g×%g×%g", lx, ly, lz)
	}
	return NewTensor(Linspace(0, lx, nx), Linspace(0, ly, ny), Linspace(0, lz, nz))
}

// dualExtents returns the dual-cell widths for one coordinate line: half the
// span of the two adjacent primary cells, clipped at the domain boundary.
func dualExtents(line []float64) []float64 {
	n := len(line)
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		lo := line[i]
		if i > 0 {
			lo = 0.5 * (line[i-1] + line[i])
		}
		hi := line[i]
		if i < n-1 {
			hi = 0.5 * (line[i] + line[i+1])
		}
		d[i] = hi - lo
	}
	return d
}

// NumNodes returns the number of primary nodes.
func (g *Grid) NumNodes() int { return g.Nx * g.Ny * g.Nz }

// NumCells returns the number of primary cells.
func (g *Grid) NumCells() int { return (g.Nx - 1) * (g.Ny - 1) * (g.Nz - 1) }

// NumEdgesAxis returns the number of primary edges along the given axis.
func (g *Grid) NumEdgesAxis(a Axis) int {
	switch a {
	case X:
		return (g.Nx - 1) * g.Ny * g.Nz
	case Y:
		return g.Nx * (g.Ny - 1) * g.Nz
	default:
		return g.Nx * g.Ny * (g.Nz - 1)
	}
}

// NumEdges returns the total number of primary edges.
func (g *Grid) NumEdges() int {
	return g.NumEdgesAxis(X) + g.NumEdgesAxis(Y) + g.NumEdgesAxis(Z)
}

// NodeIndex maps grid coordinates (i,j,k) to the linear node index.
func (g *Grid) NodeIndex(i, j, k int) int {
	return i + j*g.Nx + k*g.Nx*g.Ny
}

// NodeCoordsOf returns the (i,j,k) grid coordinates of node n.
func (g *Grid) NodeCoordsOf(n int) (i, j, k int) {
	i = n % g.Nx
	j = (n / g.Nx) % g.Ny
	k = n / (g.Nx * g.Ny)
	return
}

// NodePosition returns the spatial position of node n.
func (g *Grid) NodePosition(n int) (x, y, z float64) {
	i, j, k := g.NodeCoordsOf(n)
	return g.Xs[i], g.Ys[j], g.Zs[k]
}

// CellIndex maps cell coordinates (i,j,k), 0 ≤ i < Nx−1 etc., to the linear
// cell index.
func (g *Grid) CellIndex(i, j, k int) int {
	return i + j*(g.Nx-1) + k*(g.Nx-1)*(g.Ny-1)
}

// CellCoordsOf returns the (i,j,k) coordinates of cell c.
func (g *Grid) CellCoordsOf(c int) (i, j, k int) {
	i = c % (g.Nx - 1)
	j = (c / (g.Nx - 1)) % (g.Ny - 1)
	k = c / ((g.Nx - 1) * (g.Ny - 1))
	return
}

// CellVolume returns the volume of primary cell c.
func (g *Grid) CellVolume(c int) float64 {
	i, j, k := g.CellCoordsOf(c)
	return (g.Xs[i+1] - g.Xs[i]) * (g.Ys[j+1] - g.Ys[j]) * (g.Zs[k+1] - g.Zs[k])
}

// CellCenter returns the midpoint of primary cell c.
func (g *Grid) CellCenter(c int) (x, y, z float64) {
	i, j, k := g.CellCoordsOf(c)
	return 0.5 * (g.Xs[i] + g.Xs[i+1]), 0.5 * (g.Ys[j] + g.Ys[j+1]), 0.5 * (g.Zs[k] + g.Zs[k+1])
}

// EdgeIndex maps (axis, i, j, k) to a global edge index, where (i,j,k) is the
// lower node of the edge.
func (g *Grid) EdgeIndex(a Axis, i, j, k int) int {
	switch a {
	case X:
		return i + j*(g.Nx-1) + k*(g.Nx-1)*g.Ny
	case Y:
		return g.NumEdgesAxis(X) + i + j*g.Nx + k*g.Nx*(g.Ny-1)
	default:
		return g.NumEdgesAxis(X) + g.NumEdgesAxis(Y) + i + j*g.Nx + k*g.Nx*g.Ny
	}
}

// EdgeOf decomposes a global edge index into (axis, i, j, k).
func (g *Grid) EdgeOf(e int) (a Axis, i, j, k int) {
	nx, ny := g.NumEdgesAxis(X), g.NumEdgesAxis(Y)
	switch {
	case e < nx:
		a = X
		i = e % (g.Nx - 1)
		j = (e / (g.Nx - 1)) % g.Ny
		k = e / ((g.Nx - 1) * g.Ny)
	case e < nx+ny:
		a = Y
		e -= nx
		i = e % g.Nx
		j = (e / g.Nx) % (g.Ny - 1)
		k = e / (g.Nx * (g.Ny - 1))
	default:
		a = Z
		e -= nx + ny
		i = e % g.Nx
		j = (e / g.Nx) % g.Ny
		k = e / (g.Nx * g.Ny)
	}
	return
}

// EdgeNodes returns the two primary node indices of edge e, lower node first.
func (g *Grid) EdgeNodes(e int) (n1, n2 int) {
	a, i, j, k := g.EdgeOf(e)
	n1 = g.NodeIndex(i, j, k)
	switch a {
	case X:
		n2 = g.NodeIndex(i+1, j, k)
	case Y:
		n2 = g.NodeIndex(i, j+1, k)
	default:
		n2 = g.NodeIndex(i, j, k+1)
	}
	return
}

// EdgeLength returns the primary length ℓ of edge e.
func (g *Grid) EdgeLength(e int) float64 {
	a, i, j, k := g.EdgeOf(e)
	switch a {
	case X:
		return g.Xs[i+1] - g.Xs[i]
	case Y:
		return g.Ys[j+1] - g.Ys[j]
	default:
		_ = i
		return g.Zs[k+1] - g.Zs[k]
	}
}

// DualArea returns the area Ã of the dual facet crossed by primary edge e.
func (g *Grid) DualArea(e int) float64 {
	a, i, j, k := g.EdgeOf(e)
	switch a {
	case X:
		_ = i
		return g.dualDY[j] * g.dualDZ[k]
	case Y:
		return g.dualDX[i] * g.dualDZ[k]
	default:
		return g.dualDX[i] * g.dualDY[j]
	}
}

// DualVolume returns the volume Ṽ of the dual cell around primary node n.
func (g *Grid) DualVolume(n int) float64 {
	i, j, k := g.NodeCoordsOf(n)
	return g.dualDX[i] * g.dualDY[j] * g.dualDZ[k]
}

// EdgeAdjacentCells returns the primary cells sharing edge e together with
// the fraction of the edge's dual facet area contributed by each cell. The
// fractions sum to one. This drives the volumetric material averaging for
// the diagonal entries of Mσ and Mλ.
func (g *Grid) EdgeAdjacentCells(e int) (cells []int, weights []float64) {
	a, i, j, k := g.EdgeOf(e)
	// The dual facet of an edge along axis a spans the (up to) four cells
	// around the edge in the two transverse directions.
	type span struct {
		idx []int     // candidate cell indices along a transverse direction
		w   []float64 // corresponding half-widths
	}
	transverse := func(coord, n int, line []float64) span {
		var s span
		if coord > 0 {
			s.idx = append(s.idx, coord-1)
			s.w = append(s.w, 0.5*(line[coord]-line[coord-1]))
		}
		if coord < n-1 {
			s.idx = append(s.idx, coord)
			s.w = append(s.w, 0.5*(line[coord+1]-line[coord]))
		}
		return s
	}
	var s1, s2 span
	switch a {
	case X:
		s1 = transverse(j, g.Ny, g.Ys)
		s2 = transverse(k, g.Nz, g.Zs)
	case Y:
		s1 = transverse(i, g.Nx, g.Xs)
		s2 = transverse(k, g.Nz, g.Zs)
	default:
		s1 = transverse(i, g.Nx, g.Xs)
		s2 = transverse(j, g.Ny, g.Ys)
	}
	total := 0.0
	for p, c1 := range s1.idx {
		for q, c2 := range s2.idx {
			var ci, cj, ck int
			switch a {
			case X:
				ci, cj, ck = i, c1, c2
			case Y:
				ci, cj, ck = c1, j, c2
			default:
				ci, cj, ck = c1, c2, k
			}
			cells = append(cells, g.CellIndex(ci, cj, ck))
			w := s1.w[p] * s2.w[q]
			weights = append(weights, w)
			total += w
		}
	}
	for i := range weights {
		weights[i] /= total
	}
	return cells, weights
}

// NodeAdjacentCells returns the primary cells touching node n and the volume
// fraction of the node's dual cell inside each. Fractions sum to one.
func (g *Grid) NodeAdjacentCells(n int) (cells []int, weights []float64) {
	i, j, k := g.NodeCoordsOf(n)
	half := func(coord, n int, line []float64) (idx []int, w []float64) {
		if coord > 0 {
			idx = append(idx, coord-1)
			w = append(w, 0.5*(line[coord]-line[coord-1]))
		}
		if coord < n-1 {
			idx = append(idx, coord)
			w = append(w, 0.5*(line[coord+1]-line[coord]))
		}
		return
	}
	xi, xw := half(i, g.Nx, g.Xs)
	yi, yw := half(j, g.Ny, g.Ys)
	zi, zw := half(k, g.Nz, g.Zs)
	total := 0.0
	for a, ci := range xi {
		for b, cj := range yi {
			for c, ck := range zi {
				cells = append(cells, g.CellIndex(ci, cj, ck))
				w := xw[a] * yw[b] * zw[c]
				weights = append(weights, w)
				total += w
			}
		}
	}
	for i := range weights {
		weights[i] /= total
	}
	return cells, weights
}

// CellNodes returns the eight node indices of primary cell c.
func (g *Grid) CellNodes(c int) [8]int {
	i, j, k := g.CellCoordsOf(c)
	return [8]int{
		g.NodeIndex(i, j, k), g.NodeIndex(i+1, j, k),
		g.NodeIndex(i, j+1, k), g.NodeIndex(i+1, j+1, k),
		g.NodeIndex(i, j, k+1), g.NodeIndex(i+1, j, k+1),
		g.NodeIndex(i, j+1, k+1), g.NodeIndex(i+1, j+1, k+1),
	}
}

// IsBoundaryNode reports whether node n lies on the domain boundary.
func (g *Grid) IsBoundaryNode(n int) bool {
	i, j, k := g.NodeCoordsOf(n)
	return i == 0 || i == g.Nx-1 || j == 0 || j == g.Ny-1 || k == 0 || k == g.Nz-1
}

// BoundaryArea returns the exposed surface area of the dual cell of node n:
// the portion of the domain boundary attributed to the node. Interior nodes
// return zero. The sum over all nodes equals the total surface area of the
// domain box.
func (g *Grid) BoundaryArea(n int) float64 {
	i, j, k := g.NodeCoordsOf(n)
	area := 0.0
	if i == 0 || i == g.Nx-1 {
		area += g.dualDY[j] * g.dualDZ[k]
	}
	if j == 0 || j == g.Ny-1 {
		area += g.dualDX[i] * g.dualDZ[k]
	}
	if k == 0 || k == g.Nz-1 {
		area += g.dualDX[i] * g.dualDY[j]
	}
	return area
}

// DualFacetArea returns the area of the dual facet through node n normal to
// the given axis (the cross-section of the node's dual cell). On the boundary
// this is the area the node exposes on the face normal to that axis.
func (g *Grid) DualFacetArea(a Axis, n int) float64 {
	i, j, k := g.NodeCoordsOf(n)
	switch a {
	case X:
		return g.dualDY[j] * g.dualDZ[k]
	case Y:
		return g.dualDX[i] * g.dualDZ[k]
	default:
		return g.dualDX[i] * g.dualDY[j]
	}
}

// Gradient assembles the discrete gradient operator G (NumEdges×NumNodes)
// with entries ±1: (GΦ)_e = Φ(n2) − Φ(n1). The paper's voltage drops are
// _e = −GΦ.
func (g *Grid) Gradient() *sparse.CSR {
	b := sparse.NewBuilder(g.NumEdges(), g.NumNodes())
	for e := 0; e < g.NumEdges(); e++ {
		n1, n2 := g.EdgeNodes(e)
		b.Add(e, n1, -1)
		b.Add(e, n2, 1)
	}
	return b.ToCSR()
}

// Divergence assembles the discrete dual-grid divergence S̃ (NumNodes×NumEdges).
// The FIT duality S̃ = −Gᵀ holds exactly and is property-tested.
func (g *Grid) Divergence() *sparse.CSR {
	t := g.Gradient().Transpose()
	t.Scale(-1)
	return t
}

// NearestNode returns the node index closest to (x, y, z) in Euclidean
// distance (on a tensor grid this is the per-axis nearest line).
func (g *Grid) NearestNode(x, y, z float64) int {
	return g.NodeIndex(nearestLine(g.Xs, x), nearestLine(g.Ys, y), nearestLine(g.Zs, z))
}

func nearestLine(line []float64, v float64) int {
	i := sort.SearchFloat64s(line, v)
	if i == 0 {
		return 0
	}
	if i >= len(line) {
		return len(line) - 1
	}
	if v-line[i-1] <= line[i]-v {
		return i - 1
	}
	return i
}

// FindCell returns the cell containing (x, y, z), clamping to the domain.
func (g *Grid) FindCell(x, y, z float64) int {
	return g.CellIndex(cellLine(g.Xs, x), cellLine(g.Ys, y), cellLine(g.Zs, z))
}

func cellLine(line []float64, v float64) int {
	i := sort.SearchFloat64s(line, v) - 1
	if i < 0 {
		i = 0
	}
	if i > len(line)-2 {
		i = len(line) - 2
	}
	return i
}

// TotalVolume returns the volume of the grid's bounding box.
func (g *Grid) TotalVolume() float64 {
	return (g.Xs[g.Nx-1] - g.Xs[0]) * (g.Ys[g.Ny-1] - g.Ys[0]) * (g.Zs[g.Nz-1] - g.Zs[0])
}

// SurfaceArea returns the surface area of the grid's bounding box.
func (g *Grid) SurfaceArea() float64 {
	lx := g.Xs[g.Nx-1] - g.Xs[0]
	ly := g.Ys[g.Ny-1] - g.Ys[0]
	lz := g.Zs[g.Nz-1] - g.Zs[0]
	return 2 * (lx*ly + ly*lz + lx*lz)
}

// Linspace returns n evenly spaced values from a to b inclusive.
func Linspace(a, b float64, n int) []float64 {
	if n < 2 {
		panic("grid: Linspace needs n ≥ 2")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = a + (b-a)*float64(i)/float64(n-1)
	}
	out[n-1] = b
	return out
}

// LinesFromBreakpoints builds a coordinate line that contains every
// breakpoint exactly and subdivides each interval so that no spacing exceeds
// hmax. Breakpoints closer than tol are merged. This is how mesh lines get
// snapped to material interfaces (pad edges, chip outline, mold boundary).
func LinesFromBreakpoints(breaks []float64, hmax, tol float64) ([]float64, error) {
	if len(breaks) < 2 {
		return nil, fmt.Errorf("grid: need ≥2 breakpoints, got %d", len(breaks))
	}
	if hmax <= 0 {
		return nil, fmt.Errorf("grid: hmax must be positive, got %g", hmax)
	}
	bs := append([]float64(nil), breaks...)
	sort.Float64s(bs)
	merged := bs[:1]
	for _, v := range bs[1:] {
		if v-merged[len(merged)-1] > tol {
			merged = append(merged, v)
		}
	}
	if len(merged) < 2 {
		return nil, fmt.Errorf("grid: breakpoints collapse to a single point after merging")
	}
	var line []float64
	for i := 0; i < len(merged)-1; i++ {
		a, b := merged[i], merged[i+1]
		nseg := int(math.Ceil((b - a) / hmax))
		if nseg < 1 {
			nseg = 1
		}
		for s := 0; s < nseg; s++ {
			line = append(line, a+(b-a)*float64(s)/float64(nseg))
		}
	}
	line = append(line, merged[len(merged)-1])
	return line, nil
}
