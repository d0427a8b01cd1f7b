package scenario

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// TestSamplerStreamsPinned pins every sampling method's unit-cube stream as
// newSampler builds it: the sampler name and an FNV-1a hash of the bits of
// the first 64 points, at germ dimensions 1 (ρ = 1), 13 (the default ρ over
// 12 wires) and 24 (the Sobol' maximum) and at seeds 0 (the default) and
// 2016. Campaign fingerprints, checkpoints and every sampled result depend
// on these streams, so a change to any generator, scramble key or replicate
// routing must fail here first.
func TestSamplerStreamsPinned(t *testing.T) {
	const points = 64
	for _, c := range []struct {
		method string
		dim    int
		seed   uint64
		name   string
		hash   uint64
	}{
		{"monte-carlo", 1, 0, "monte-carlo", 0x118e484d0dbf6098},
		{"monte-carlo", 1, 2016, "monte-carlo", 0x55a64a96befa7dad},
		{"monte-carlo", 13, 0, "monte-carlo", 0x3bb19edc61cc09ba},
		{"monte-carlo", 13, 2016, "monte-carlo", 0xda0b3fb0318d27f2},
		{"monte-carlo", 24, 0, "monte-carlo", 0xfe6b79e718475586},
		{"monte-carlo", 24, 2016, "monte-carlo", 0xa533def40eb849a4},
		{"lhs", 1, 0, "latin-hypercube", 0xb5ecab3402e156ba},
		{"lhs", 1, 2016, "latin-hypercube", 0xbdddd04306ea4afb},
		{"lhs", 13, 0, "latin-hypercube", 0xed4e28bbf48159db},
		{"lhs", 13, 2016, "latin-hypercube", 0x882dc0a7d7f94d93},
		{"lhs", 24, 0, "latin-hypercube", 0x14ddeb39fd1dea77},
		{"lhs", 24, 2016, "latin-hypercube", 0x0c088c3034064ef2},
		{"halton", 1, 0, "halton", 0xac6d3ea5f631daed},
		{"halton", 1, 2016, "halton", 0x352f360d09970411},
		{"halton", 13, 0, "halton", 0x56b191faa528eb2b},
		{"halton", 13, 2016, "halton", 0xbcda6253a4848ed9},
		{"halton", 24, 0, "halton", 0xd294ab3ce96ccc0e},
		{"halton", 24, 2016, "halton", 0xcb2d44c6270b4ae9},
		{"sobol", 1, 0, "sobol", 0xc67053c7e025ca65},
		{"sobol", 1, 2016, "sobol", 0xc67053c7e025ca65},
		{"sobol", 13, 0, "sobol", 0x29937690cf987f0b},
		{"sobol", 13, 2016, "sobol", 0x29937690cf987f0b},
		{"sobol", 24, 0, "sobol", 0xade7f32f0e74a118},
		{"sobol", 24, 2016, "sobol", 0xade7f32f0e74a118},
		{"sobol-owen", 1, 0, "sobol-owen", 0xc67053c7e025ca65},
		{"sobol-owen", 1, 2016, "sobol-owen", 0xfad1eb32bfe53c2a},
		{"sobol-owen", 13, 0, "sobol-owen", 0x29937690cf987f0b},
		{"sobol-owen", 13, 2016, "sobol-owen", 0x4c34de496bc21d41},
		{"sobol-owen", 24, 0, "sobol-owen", 0xade7f32f0e74a118},
		{"sobol-owen", 24, 2016, "sobol-owen", 0xc87a48a42d4e8df9},
		{"rqmc-sobol", 1, 0, "rqmc-sobol", 0x93b3e56243eb94c3},
		{"rqmc-sobol", 1, 2016, "rqmc-sobol", 0x82dedb1ca9607bf1},
		{"rqmc-sobol", 13, 0, "rqmc-sobol", 0xc9f3b855a453cc9e},
		{"rqmc-sobol", 13, 2016, "rqmc-sobol", 0x442124aae0d8d34d},
		{"rqmc-sobol", 24, 0, "rqmc-sobol", 0x5d45db3c86cd7f6a},
		{"rqmc-sobol", 24, 2016, "rqmc-sobol", 0x5f6a2f855c4f6030},
	} {
		s, err := newSampler(UQSpec{Method: c.method, Samples: points, Seed: c.seed}, c.dim)
		if err != nil {
			t.Fatalf("%s dim %d seed %d: %v", c.method, c.dim, c.seed, err)
		}
		if s.Name() != c.name {
			t.Errorf("%s dim %d seed %d: name %q, want %q", c.method, c.dim, c.seed, s.Name(), c.name)
		}
		h := fnv.New64a()
		u := make([]float64, c.dim)
		var b [8]byte
		for i := 0; i < points; i++ {
			s.Sample(i, u)
			for _, x := range u {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
				h.Write(b[:])
			}
		}
		if got := h.Sum64(); got != c.hash {
			t.Errorf("%s dim %d seed %d: stream hash %#016x, want %#016x", c.method, c.dim, c.seed, got, c.hash)
		}
	}
}
