package uq

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"etherm/internal/stats"
)

// TestPlainMatchesUQSobol: seed 0 disables the scramble, and the sampler
// must then be bit-identical to the NewSobol baseline — the contract that
// lets campaign fingerprints distinguish the two by stream, not by name.
func TestPlainMatchesUQSobol(t *testing.T) {
	for _, d := range []int{1, 2, 5, 8, MaxSobolDim()} {
		plain, err := NewSobol(d)
		if err != nil {
			t.Fatal(err)
		}
		scr, err := NewScrambledSobol(d, 0)
		if err != nil {
			t.Fatal(err)
		}
		a, b := make([]float64, d), make([]float64, d)
		for i := 0; i < 200; i++ {
			plain.Sample(i, a)
			scr.Sample(i, b)
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("dim %d index %d coord %d: plain %v scrambled(seed=0) %v", d, i, j, a[j], b[j])
				}
			}
		}
	}
}

type goldenFile struct {
	Dim    int         `json:"dim"`
	Seed   uint64      `json:"seed"`
	Points [][]float64 `json:"points"`
}

// TestGoldenVectors pins the scrambled stream bit-for-bit against committed
// vectors: any change to the direction integers, the scramble hash or the
// bit order silently invalidates every checkpoint and golden estimate in
// the field, so it must fail loudly here instead.
func TestGoldenVectors(t *testing.T) {
	path := filepath.Join("testdata", "sobol_owen_golden.json")
	if os.Getenv("RARE_UPDATE_GOLDEN") == "1" {
		writeGolden(t, path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var files []goldenFile
	if err := json.Unmarshal(data, &files); err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("empty golden file")
	}
	for _, g := range files {
		s, err := NewScrambledSobol(g.Dim, g.Seed)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]float64, g.Dim)
		for i, want := range g.Points {
			s.Sample(i, dst)
			for j := range dst {
				if math.Float64bits(dst[j]) != math.Float64bits(want[j]) {
					t.Fatalf("dim %d seed %d index %d coord %d: got %.17g want %.17g", g.Dim, g.Seed, i, j, dst[j], want[j])
				}
			}
		}
	}
}

// writeGolden regenerates the committed vectors (RARE_UPDATE_GOLDEN=1).
// Only do this deliberately: new vectors invalidate old checkpoints.
func writeGolden(t *testing.T, path string) {
	t.Helper()
	var files []goldenFile
	for _, cfg := range []struct {
		dim  int
		seed uint64
	}{{1, 0}, {4, 12345}, {8, 42}, {24, 0xfeedface}} {
		s, err := NewScrambledSobol(cfg.dim, cfg.seed)
		if err != nil {
			t.Fatal(err)
		}
		g := goldenFile{Dim: cfg.dim, Seed: cfg.seed}
		for i := 0; i < 16; i++ {
			p := make([]float64, cfg.dim)
			s.Sample(i, p)
			g.Points = append(g.Points, p)
		}
		files = append(files, g)
	}
	data, err := json.MarshalIndent(files, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestScrambleProperties: points stay in [0,1), sampling is pure in the
// index, distinct seeds give distinct streams, and the empirical mean of a
// scrambled stream is unbiased for 1/2 per coordinate.
func TestScrambleProperties(t *testing.T) {
	const d, n = 6, 4096
	s, err := NewScrambledSobol(d, 42)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := NewScrambledSobol(d, 43)
	u, v := make([]float64, d), make([]float64, d)
	mean := make([]float64, d)
	differs := false
	for i := 0; i < n; i++ {
		s.Sample(i, u)
		for j, x := range u {
			if x < 0 || x >= 1 || math.IsNaN(x) {
				t.Fatalf("index %d coord %d outside [0,1): %v", i, j, x)
			}
			mean[j] += x
		}
		s.Sample(i, v)
		for j := range u {
			if u[j] != v[j] {
				t.Fatalf("impure sample at index %d", i)
			}
		}
		s2.Sample(i, v)
		for j := range u {
			if u[j] != v[j] {
				differs = true
			}
		}
	}
	if !differs {
		t.Fatal("seeds 42 and 43 produced identical streams")
	}
	for j, m := range mean {
		if got := m / n; math.Abs(got-0.5) > 0.01 {
			t.Errorf("coord %d mean %.4f, want ~0.5", j, got)
		}
	}
}

// TestOwenPreservesNet: nested uniform scrambling must keep the (t,m,s)-net
// structure — over an aligned dyadic block of 2^m sequence elements, every
// one-dimensional dyadic interval of size 2^-k contains exactly 2^(m-k)
// points. This is the property that preserves the QMC convergence rate; a
// digital-shift bug or a prefix-hash bug breaks it immediately. The block
// starts at sequence element 2^m (index 2^m−1) because element 0 — part of
// the first block — is skipped by construction.
func TestOwenPreservesNet(t *testing.T) {
	const m = 9 // 512 points
	for _, d := range []int{1, 2, 3, 6} {
		s, err := NewScrambledSobol(d, 7)
		if err != nil {
			t.Fatal(err)
		}
		u := make([]float64, d)
		for k := 1; k <= m; k++ {
			bins := 1 << k
			want := (1 << m) / bins
			counts := make([]int, bins*d)
			for i := (1 << m) - 1; i <= (2<<m)-2; i++ {
				s.Sample(i, u)
				for j := range u {
					counts[j*bins+int(u[j]*float64(bins))]++
				}
			}
			for idx, c := range counts {
				if c != want {
					t.Fatalf("dim %d: level %d bin %d holds %d points, want %d", d, k, idx, c, want)
				}
			}
		}
	}
}

// FuzzScrambledSobol hammers the sampler with arbitrary dimension, index
// and seed inputs: construction must either fail cleanly or produce pure,
// in-range points.
func FuzzScrambledSobol(f *testing.F) {
	f.Add(1, 0, uint64(0))
	f.Add(6, 1023, uint64(42))
	f.Add(24, 1<<20, uint64(0xdeadbeef))
	f.Add(25, 5, uint64(7))
	f.Add(-3, -9, uint64(1))
	f.Fuzz(func(t *testing.T, d, i int, seed uint64) {
		s, err := NewScrambledSobol(d, seed)
		if err != nil {
			if d >= 1 && d <= MaxSobolDim() {
				t.Fatalf("valid dimension %d rejected: %v", d, err)
			}
			return
		}
		if i < 0 {
			i = -(i + 1)
		}
		i %= 1 << 30
		u, v := make([]float64, d), make([]float64, d)
		s.Sample(i, u)
		s.Sample(i, v)
		for j := range u {
			if u[j] < 0 || u[j] >= 1 || math.IsNaN(u[j]) {
				t.Fatalf("dim %d seed %d index %d coord %d outside [0,1): %v", d, seed, i, j, u[j])
			}
			if u[j] != v[j] {
				t.Fatalf("impure sample: dim %d seed %d index %d", d, seed, i)
			}
		}
	})
}

// TestRQMCSampler: replicate routing, stream purity and the shape of the
// interleaved stream.
func TestRQMCSampler(t *testing.T) {
	q, err := NewRQMC(3, 8, 77)
	if err != nil {
		t.Fatal(err)
	}
	if q.Name() != "rqmc-sobol" || q.Dim() != 3 || q.Replicates() != 8 {
		t.Fatalf("unexpected identity: %s dim %d reps %d", q.Name(), q.Dim(), q.Replicates())
	}
	// Any prefix is replicate-balanced to within one point.
	counts := make([]int, 8)
	for i := 0; i < 1000; i++ {
		counts[q.Replicate(i)]++
	}
	for r, c := range counts {
		if c < 1000/8 || c > 1000/8+1 {
			t.Fatalf("replicate %d holds %d of 1000 points", r, c)
		}
	}
	// Global index i is point i/R of replicate i%R, against an
	// independently built twin.
	twin, _ := NewRQMC(3, 8, 77)
	u, v := make([]float64, 3), make([]float64, 3)
	for i := 0; i < 64; i++ {
		q.Sample(i, u)
		twin.reps[i%8].Sample(i/8, v)
		for j := range u {
			if u[j] != v[j] {
				t.Fatalf("index %d routes wrong replicate", i)
			}
		}
	}
	if _, err := NewRQMC(3, 1, 1); err == nil {
		t.Fatal("accepted single-replicate RQMC (no error bar possible)")
	}
}

// TestRQMCEstimate: per-replicate counters pool into an estimate whose CLT
// error bar covers a known probability, and degenerate inputs error.
func TestRQMCEstimate(t *testing.T) {
	const (
		r    = 8
		n    = 4096 // per replicate
		p    = 0.05 // P(u0 < 0.05), known exactly
		dim  = 2
		seed = 31
	)
	q, err := NewRQMC(dim, r, seed)
	if err != nil {
		t.Fatal(err)
	}
	counters := make([]stats.ExceedCounter, r)
	u := make([]float64, dim)
	for i := 0; i < r*n; i++ {
		q.Sample(i, u)
		counters[q.Replicate(i)].Observe(u[0] < p)
	}
	est, err := EstimateReplicates(counters)
	if err != nil {
		t.Fatal(err)
	}
	if est.N != r*n {
		t.Fatalf("pooled N %d, want %d", est.N, r*n)
	}
	if math.Abs(est.P-p) > 5*est.SE+1e-9 {
		t.Fatalf("estimate %.5f ± %.5f misses exact %.5f", est.P, est.SE, p)
	}
	if est.SE <= 0 || est.SE > 0.01 {
		t.Fatalf("unreasonable RQMC standard error %.5g", est.SE)
	}
	if est.CoV() <= 0 {
		t.Fatalf("broken CoV %v", est.CoV())
	}
	if _, err := EstimateReplicates(counters[:1]); err == nil {
		t.Fatal("accepted single counter")
	}
	if _, err := EstimateReplicates(make([]stats.ExceedCounter, 3)); err == nil {
		t.Fatal("accepted empty replicates")
	}
}
