package uq

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Sampler generates points in the unit hypercube [0,1)^d, addressable by
// sample index so that parallel workers produce identical streams regardless
// of scheduling.
type Sampler interface {
	// Dim returns the dimensionality d.
	Dim() int
	// Sample writes point i (0-based) into dst (length d).
	Sample(i int, dst []float64)
	// Name identifies the sampler in reports.
	Name() string
}

// BoundedSampler is a Sampler backed by a finite design: indices outside
// [0, Len()) are invalid. Campaign drivers validate their sample budget
// against Len() at setup so a too-small design is a returned error, not a
// panic mid-campaign.
type BoundedSampler interface {
	Sampler
	// Len returns the number of valid sample indices.
	Len() int
}

// CheckBudget validates that a campaign budget of n samples fits the
// sampler's design. Unbounded samplers accept any budget.
func CheckBudget(s Sampler, n int) error {
	b, ok := s.(BoundedSampler)
	if !ok {
		return nil
	}
	if n > b.Len() {
		return fmt.Errorf("uq: budget %d exceeds %s design of size %d", n, s.Name(), b.Len())
	}
	return nil
}

// PseudoRandom is the paper's plain Monte Carlo sampling: independent
// uniform draws with a deterministic per-index stream.
type PseudoRandom struct {
	D    int
	Seed uint64
}

// Dim implements Sampler.
func (s PseudoRandom) Dim() int { return s.D }

// Name implements Sampler.
func (s PseudoRandom) Name() string { return "monte-carlo" }

// Sample implements Sampler. Each index gets its own PCG stream keyed by
// (Seed, index), so results do not depend on evaluation order. The stream
// lives on the stack and each draw is rand.Float64's formula, so a sample
// allocates nothing.
func (s PseudoRandom) Sample(i int, dst []float64) {
	var p rand.PCG
	p.Seed(s.Seed, 0x9e3779b97f4a7c15^uint64(i)*0xbf58476d1ce4e5b9)
	for j := range dst[:s.D] {
		dst[j] = float64(p.Uint64()<<11>>11) / (1 << 53)
	}
}

// LatinHypercube stratifies every dimension into M bins and randomly pairs
// them, reducing variance for additive-ish models at identical cost.
type LatinHypercube struct {
	d, m  int
	perms [][]int
	offs  [][]float64
}

// NewLatinHypercube prepares an LHS design with m samples in d dimensions.
func NewLatinHypercube(d, m int, seed uint64) (*LatinHypercube, error) {
	if d < 1 || m < 1 {
		return nil, fmt.Errorf("uq: invalid LHS design %d×%d", d, m)
	}
	rng := rand.New(rand.NewPCG(seed, 0xda942042e4dd58b5))
	l := &LatinHypercube{d: d, m: m, perms: make([][]int, d), offs: make([][]float64, d)}
	for j := 0; j < d; j++ {
		l.perms[j] = rng.Perm(m)
		l.offs[j] = make([]float64, m)
		for i := range l.offs[j] {
			l.offs[j][i] = rng.Float64()
		}
	}
	return l, nil
}

// Dim implements Sampler.
func (l *LatinHypercube) Dim() int { return l.d }

// Name implements Sampler.
func (l *LatinHypercube) Name() string { return "latin-hypercube" }

// Len returns the design size M.
func (l *LatinHypercube) Len() int { return l.m }

// Sample implements Sampler. Indices beyond the design size panic; the
// campaign drivers reject such budgets up front via CheckBudget, so the
// panic marks a programming error, never a runtime condition.
func (l *LatinHypercube) Sample(i int, dst []float64) {
	if i < 0 || i >= l.m {
		panic(fmt.Sprintf("uq: LHS index %d outside design of size %d", i, l.m))
	}
	for j := 0; j < l.d; j++ {
		dst[j] = (float64(l.perms[j][i]) + l.offs[j][i]) / float64(l.m)
	}
}

// Halton is the quasi-random Halton sequence with a Cranley–Patterson random
// shift (mod 1) to allow unbiased randomized-QMC error estimation.
type Halton struct {
	d     int
	shift []float64
}

// NewHalton returns a d-dimensional shifted Halton sampler. A zero seed
// disables the shift (plain Halton).
func NewHalton(d int, seed uint64) (*Halton, error) {
	if d < 1 || d > len(primes) {
		return nil, fmt.Errorf("uq: Halton supports 1..%d dimensions, got %d", len(primes), d)
	}
	h := &Halton{d: d, shift: make([]float64, d)}
	if seed != 0 {
		rng := rand.New(rand.NewPCG(seed, 0xc2b2ae3d27d4eb4f))
		for j := range h.shift {
			h.shift[j] = rng.Float64()
		}
	}
	return h, nil
}

// Dim implements Sampler.
func (h *Halton) Dim() int { return h.d }

// Name implements Sampler.
func (h *Halton) Name() string { return "halton" }

// Sample implements Sampler (index 0 maps to the sequence's first point).
func (h *Halton) Sample(i int, dst []float64) {
	for j := 0; j < h.d; j++ {
		v := radicalInverse(uint64(i+1), primes[j]) + h.shift[j]
		dst[j] = v - math.Floor(v)
	}
}

var primes = []int{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89}

func radicalInverse(i uint64, base int) float64 {
	b := uint64(base)
	inv := 1.0 / float64(base)
	f := inv
	v := 0.0
	for i > 0 {
		v += float64(i%b) * f
		i /= b
		f *= inv
	}
	return v
}

// sobolBits is the fixed-point resolution of the Sobol' sequence.
const sobolBits = 52

// sobolPoly holds (s, a, m...) primitive-polynomial data for dimensions ≥ 2
// (dimension 1 is the van der Corput sequence). Values follow the Joe–Kuo
// construction; validity (m_k odd, m_k < 2^k) is property-tested.
var sobolPoly = []struct {
	s, a uint
	m    []uint64
}{
	{1, 0, []uint64{1}},
	{2, 1, []uint64{1, 3}},
	{3, 1, []uint64{1, 3, 1}},
	{3, 2, []uint64{1, 1, 1}},
	{4, 1, []uint64{1, 1, 3, 3}},
	{4, 4, []uint64{1, 3, 5, 13}},
	{5, 2, []uint64{1, 1, 5, 5, 17}},
	{5, 4, []uint64{1, 1, 5, 5, 5}},
	{5, 7, []uint64{1, 1, 7, 11, 19}},
	{5, 11, []uint64{1, 1, 5, 1, 1}},
	{5, 13, []uint64{1, 1, 1, 3, 11}},
	{5, 14, []uint64{1, 3, 5, 5, 31}},
	{6, 1, []uint64{1, 3, 3, 9, 7, 49}},
	{6, 13, []uint64{1, 1, 1, 15, 21, 21}},
	{6, 16, []uint64{1, 3, 1, 13, 27, 49}},
	{6, 19, []uint64{1, 1, 1, 15, 7, 5}},
	{6, 22, []uint64{1, 3, 1, 15, 13, 25}},
	{6, 25, []uint64{1, 1, 5, 5, 19, 61}},
	{7, 1, []uint64{1, 3, 7, 11, 23, 15, 103}},
	{7, 4, []uint64{1, 3, 7, 13, 13, 15, 69}},
	{7, 7, []uint64{1, 1, 3, 13, 7, 35, 63}},
	{7, 8, []uint64{1, 3, 5, 9, 1, 25, 53}},
	{7, 14, []uint64{1, 3, 1, 13, 9, 35, 107}},
}

// MaxSobolDim returns the highest supported Sobol' dimensionality.
func MaxSobolDim() int { return 1 + len(sobolPoly) }

// directionIntegers returns the sobolBits direction integers of one Sobol'
// dimension (0-based), bit k of the radix-2 expansion in position
// sobolBits-1-k.
func directionIntegers(dim int) []uint64 {
	v := make([]uint64, sobolBits)
	if dim == 0 {
		for k := 0; k < sobolBits; k++ {
			v[k] = 1 << (sobolBits - 1 - k)
		}
		return v
	}
	p := sobolPoly[dim-1]
	s := int(p.s)
	m := make([]uint64, sobolBits)
	copy(m, p.m)
	for k := s; k < sobolBits; k++ {
		mk := m[k-s] ^ (m[k-s] << s)
		for j := 1; j < s; j++ {
			if (p.a>>(s-1-j))&1 == 1 {
				mk ^= m[k-j] << j
			}
		}
		m[k] = mk
	}
	for k := 0; k < sobolBits; k++ {
		v[k] = m[k] << (sobolBits - 1 - k)
	}
	return v
}

// mix64 is the splitmix64 finalizer — a cheap, high-quality 64-bit mixer
// used to derive all scramble and replicate keys. Deterministic by
// construction: every random-looking decision of the scrambled samplers is
// a pure function of (seed, structural index).
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// Sobol is the Sobol' low-discrepancy sequence (index 0 ↦ sequence element 1
// so the degenerate all-zero point is skipped), optionally with Owen-style
// nested uniform scrambling (hash-based, after Burley): output bit k of each
// coordinate is flipped by a one-bit hash of the *unscrambled*
// more-significant bit prefix, keyed per (seed, dimension). The scramble
// preserves the (t,m,s)-net structure — and hence the QMC convergence rate —
// while making every point uniformly distributed, which a plain digital
// shift does not.
type Sobol struct {
	d    int
	name string
	seed uint64     // scramble seed; 0 leaves the sequence unscrambled
	v    [][]uint64 // direction integers per dimension, sobolBits entries
	keys []uint64   // per-dimension scramble keys
}

// NewSobol returns a d-dimensional plain Sobol' sampler (d ≤ MaxSobolDim),
// named "sobol".
func NewSobol(d int) (*Sobol, error) { return newSobol(d, 0, "sobol") }

// NewScrambledSobol returns a d-dimensional Owen-scrambled Sobol' sampler,
// named "sobol-owen". A zero seed disables scrambling: the stream is then
// bit-identical to NewSobol's.
func NewScrambledSobol(d int, seed uint64) (*Sobol, error) {
	return newSobol(d, seed, "sobol-owen")
}

func newSobol(d int, seed uint64, name string) (*Sobol, error) {
	if d < 1 || d > MaxSobolDim() {
		return nil, fmt.Errorf("uq: Sobol' supports 1..%d dimensions, got %d", MaxSobolDim(), d)
	}
	s := &Sobol{d: d, name: name, seed: seed, v: make([][]uint64, d), keys: make([]uint64, d)}
	for j := 0; j < d; j++ {
		s.v[j] = directionIntegers(j)
		// Key each dimension independently so scrambles are uncorrelated
		// across coordinates; the constant decorrelates dim from seed.
		s.keys[j] = mix64(seed ^ mix64(uint64(j)+0x9e3779b97f4a7c15))
	}
	return s, nil
}

// Dim implements Sampler.
func (s *Sobol) Dim() int { return s.d }

// Name implements Sampler.
func (s *Sobol) Name() string { return s.name }

// owenScramble applies hash-based nested uniform scrambling to one
// fixed-point coordinate x (sobolBits bits, MSB = first radix-2 digit).
// Bit k's flip depends only on the unscrambled prefix of bits more
// significant than k, so points sharing an elementary interval stay
// together — the defining property of Owen scrambling.
func owenScramble(x, key uint64) uint64 {
	var flips uint64
	for k := 0; k < sobolBits; k++ {
		shift := uint(sobolBits - k)
		var prefix uint64
		if k > 0 {
			prefix = x >> shift // the k more-significant unscrambled bits
		}
		bit := mix64(key^mix64(prefix+uint64(k)*0xd1342543de82ef95)) & 1
		flips |= bit << (shift - 1)
	}
	return x ^ flips
}

// Sample implements Sampler using the Gray-code XOR construction, which is
// index-addressable: x_i = ⊕_k v_k over the set bits of gray(i), followed
// by per-dimension Owen scrambling when a seed is set. Pure in i: identical
// for any evaluation order, worker count or shard split.
func (s *Sobol) Sample(i int, dst []float64) {
	idx := uint64(i + 1)
	gray := idx ^ (idx >> 1)
	const scale = 1.0 / (1 << sobolBits)
	for j := 0; j < s.d; j++ {
		var x uint64
		g := gray
		for k := 0; g != 0 && k < sobolBits; k++ {
			if g&1 == 1 {
				x ^= s.v[j][k]
			}
			g >>= 1
		}
		if s.seed != 0 {
			x = owenScramble(x, s.keys[j])
		}
		dst[j] = float64(x) * scale
	}
}

// TransformPoint maps a unit-cube point through per-dimension distributions;
// dst may be u itself.
func TransformPoint(dists []Dist, u, dst []float64) {
	for j, d := range dists {
		// Clamp away from {0,1} so quantiles stay finite.
		p := u[j]
		if p < 1e-15 {
			p = 1e-15
		}
		if p > 1-1e-15 {
			p = 1 - 1e-15
		}
		dst[j] = d.Quantile(p)
	}
}
