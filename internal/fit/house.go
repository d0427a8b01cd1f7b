package fit

import (
	"fmt"
	"strings"

	"etherm/internal/grid"
	"etherm/internal/sparse"
)

// House bundles the discrete operators of the paper's Fig. 1 ("discrete
// electrothermal house"): the topological gradient/divergence pair of the
// Maxwell side, the material matrices Mσ, Mλ, Mρc, and the Joule coupling.
// It exists for inspection, documentation and verification — the production
// solver assembles the Laplacians branch-wise without forming the products.
type House struct {
	G      *sparse.CSR // discrete gradient, edges×nodes
	Div    *sparse.CSR // discrete dual divergence S̃ = −Gᵀ, nodes×edges
	MSigma []float64   // diagonal of Mσ(T) per edge
	MLamda []float64   // diagonal of Mλ(T) per edge
	MRhoC  []float64   // diagonal of Mρc per node
}

// BuildHouse evaluates all operators of the electrothermal house at the
// temperature field T (nil for the 300 K reference).
func (a *Assembler) BuildHouse(T []float64) *House {
	h := &House{
		G:      a.Grid.Gradient(),
		MSigma: make([]float64, a.NumEdges()),
		MLamda: make([]float64, a.NumEdges()),
		MRhoC:  a.MassDiag(),
	}
	h.Div = h.G.Transpose()
	h.Div.Scale(-1)
	a.EdgeConductances(Electric, T, h.MSigma)
	a.EdgeConductances(Thermal, T, h.MLamda)
	return h
}

// ElectricLaplacian forms −S̃ Mσ G = Gᵀ Mσ G explicitly (for verification).
func (h *House) ElectricLaplacian() *sparse.CSR { return tripleProduct(h.G, h.MSigma) }

// tripleProduct computes Gᵀ diag(m) G via stamping, which is algebraically
// identical to the explicit sparse product for an incidence-structured G.
func tripleProduct(g *sparse.CSR, m []float64) *sparse.CSR {
	b := sparse.NewBuilder(g.Cols, g.Cols)
	for e := 0; e < g.Rows; e++ {
		lo, hi := g.RowPtr[e], g.RowPtr[e+1]
		if hi-lo != 2 {
			continue
		}
		n1, n2 := g.ColIdx[lo], g.ColIdx[lo+1]
		b.AddSym(n1, n2, m[e])
	}
	for i := 0; i < g.Cols; i++ {
		b.Add(i, i, 0)
	}
	return b.ToCSR()
}

// Verify checks the structural identities of the house: the duality
// S̃ = −Gᵀ, G applied to constants vanishing, and positivity of the material
// diagonals. It returns nil when all hold.
func (h *House) Verify() error {
	gt := h.G.Transpose()
	if gt.Rows != h.Div.Rows || gt.NNZ() != h.Div.NNZ() {
		return fmt.Errorf("fit: S̃ and −Gᵀ differ structurally")
	}
	for i := range gt.Val {
		if gt.Val[i] != -h.Div.Val[i] || gt.ColIdx[i] != h.Div.ColIdx[i] {
			return fmt.Errorf("fit: S̃ ≠ −Gᵀ at entry %d", i)
		}
	}
	ones := make([]float64, h.G.Cols)
	for i := range ones {
		ones[i] = 1
	}
	gOnes := make([]float64, h.G.Rows)
	h.G.MulVec(gOnes, ones)
	if sparse.NormInf(gOnes) != 0 {
		return fmt.Errorf("fit: G·1 ≠ 0 (max %g)", sparse.NormInf(gOnes))
	}
	for e, v := range h.MSigma {
		if v < 0 {
			return fmt.Errorf("fit: Mσ[%d] = %g negative", e, v)
		}
	}
	for e, v := range h.MLamda {
		if v <= 0 {
			return fmt.Errorf("fit: Mλ[%d] = %g non-positive", e, v)
		}
	}
	for n, v := range h.MRhoC {
		if v <= 0 {
			return fmt.Errorf("fit: Mρc[%d] = %g non-positive", n, v)
		}
	}
	return nil
}

// Render draws the electrothermal house of Fig. 1 as ASCII art, annotated
// with the dimensions of this instance's operators.
func (h *House) Render(g *grid.Grid) string {
	var b strings.Builder
	nn, ne := g.NumNodes(), g.NumEdges()
	fmt.Fprintf(&b, "Discrete electrothermal house (FIT), %d nodes / %d edges\n\n", nn, ne)
	b.WriteString("        Maxwell house                  Thermal house\n")
	b.WriteString("  Φ [V] --(-G)--> ^e [V]          T [K] --(-G)--> ^t [K]\n")
	fmt.Fprintf(&b, "            |  Mσ(T) [S] %8s            |  Mλ(T) [W/K]\n", "")
	b.WriteString("            v                              v\n")
	b.WriteString("  0  <--(S~)-- ^j [A]            Q [W] <--(S~)-- ^q [W]\n")
	b.WriteString("                                   ^\n")
	b.WriteString("                                   |  Mρc [Ws/K] d/dt, Qel = ^e . ^j\n")
	b.WriteString("\ncoupling: Qel (Joule) feeds the thermal RHS; σ(T), λ(T) close the loop.\n")
	fmt.Fprintf(&b, "operator sizes: G %d×%d, S~ %d×%d, |Mσ|=|Mλ|=%d, |Mρc|=%d\n",
		h.G.Rows, h.G.Cols, h.Div.Rows, h.Div.Cols, len(h.MSigma), len(h.MRhoC))
	return b.String()
}
