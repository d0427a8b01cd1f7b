// Benchmarks regenerating the paper's tables and figures plus the ablation
// studies called out in DESIGN.md. Each Benchmark<TableN|FigN>... target
// corresponds to one artifact of the evaluation section; the reported
// metrics carry the headline numbers (temperatures in kelvin, σ in kelvin)
// so `go test -bench=.` reproduces the rows the paper reports. The full
// M = 1000 study is the Monte Carlo scenario of
// examples/scenarios/date16_paper.json (run with cmd/etbatch); the benches
// use reduced sample counts and meshes to stay minutes-scale.
package etherm_test

import (
	"context"
	"math"
	"path/filepath"
	"runtime"
	"testing"

	"etherm/internal/analytic"
	"etherm/internal/bondwire"
	"etherm/internal/chipmodel"
	"etherm/internal/core"
	"etherm/internal/fit"
	"etherm/internal/grid"
	"etherm/internal/material"
	"etherm/internal/measure"
	"etherm/internal/solver"
	"etherm/internal/sparse"
	"etherm/internal/study"
	"etherm/internal/surrogate"
	"etherm/internal/uq"
	"etherm/internal/vtkio"
)

// coarseSpec returns the chip at a bench-friendly mesh.
func coarseSpec() chipmodel.Spec {
	s := chipmodel.DATE16Calibrated()
	s.HMax = 0.7e-3
	return s
}

// BenchmarkTable1Materials evaluates the Table I material laws across the
// operating range (the table itself is an input; this measures the hot path
// of every assembly).
func BenchmarkTable1Materials(b *testing.B) {
	mats := []material.Model{material.EpoxyResin(), material.Copper(), material.Gold(), material.Aluminum()}
	sink := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range mats {
			for T := 300.0; T <= 600; T += 25 {
				sink += m.ElecCond(T) + m.ThermCond(T)
			}
		}
	}
	if sink == 0 {
		b.Fatal("unexpected zero")
	}
	b.ReportMetric(material.Copper().ThermCond(300), "copper_lambda300")
	b.ReportMetric(material.EpoxyResin().ThermCond(300), "epoxy_lambda300")
}

// BenchmarkTable2NominalRun solves the full coupled transient with the
// Table II parameters (51 time points) on the bench mesh.
func BenchmarkTable2NominalRun(b *testing.B) {
	lay, err := coarseSpec().Build()
	if err != nil {
		b.Fatal(err)
	}
	var last float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, err := core.NewSimulator(lay.Problem, core.FastOptions())
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			b.Fatal(err)
		}
		last = res.MaxWireTempAt(len(res.Times) - 1)
	}
	b.ReportMetric(last, "T_max_K")
}

// BenchmarkFig5ElongationFit runs the synthetic measurement campaign and
// normal fit of Fig. 5.
func BenchmarkFig5ElongationFit(b *testing.B) {
	var mu, sigma float64
	for i := 0; i < b.N; i++ {
		res, err := measure.DefaultCampaign(uint64(i + 1)).FitElongationPDF(8)
		if err != nil {
			b.Fatal(err)
		}
		mu, sigma = res.Fit.Mu, res.Fit.Sigma
	}
	b.ReportMetric(mu, "mu")
	b.ReportMetric(sigma, "sigma")
}

// BenchmarkFig7MonteCarlo runs a reduced Monte Carlo study through
// study.RunPaperStudy (the paper's M = 1000 run is the date16_paper.json
// scenario) and reports the Fig. 7 statistics.
func BenchmarkFig7MonteCarlo(b *testing.B) {
	spec := coarseSpec()
	opt := core.FastOptions()
	opt.EndTime = 50
	opt.NumSteps = 25
	var f7 *study.Fig7
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		f7, _, _, err = study.RunPaperStudy(spec, opt, 4, uint64(2016+i), 0, study.DefaultRho)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(f7.EMax[len(f7.EMax)-1], "E_max_K")
	b.ReportMetric(f7.SigmaMC, "sigma_MC_K")
}

// BenchmarkCampaignStreaming runs the same reduced Monte Carlo study on the
// same driver (constant-memory accumulators, no per-sample storage) and
// reports the retained-heap delta alongside the Fig. 7 statistics — the
// memory trajectory the campaign-memory gate in internal/uq enforces at
// scale.
func BenchmarkCampaignStreaming(b *testing.B) {
	spec := coarseSpec()
	opt := core.FastOptions()
	opt.EndTime = 50
	opt.NumSteps = 25
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	var f7 *study.Fig7
	var camp *uq.CampaignResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		f7, _, camp, err = study.RunPaperStudy(spec, opt, 4, uint64(2016+i), 0, study.DefaultRho)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(int64(heap())-int64(before)), "retained_B")
	b.ReportMetric(f7.EMax[len(f7.EMax)-1], "E_max_K")
	b.ReportMetric(f7.SigmaMC, "sigma_MC_K")
	b.ReportMetric(camp.Stats.FailProb(), "P_fail_emp")
}

// BenchmarkFig8FieldSolution solves the nominal transient and exports the
// Fig. 8 temperature field.
func BenchmarkFig8FieldSolution(b *testing.B) {
	lay, err := coarseSpec().Build()
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	var hottest int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, err := core.NewSimulator(lay.Problem, core.FastOptions())
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			b.Fatal(err)
		}
		if err := vtkio.WriteRectilinearFile(filepath.Join(dir, "fig8.vtk"), lay.Problem.Grid,
			"fig8", vtkio.Field{Name: "T", Values: res.FinalField}); err != nil {
			b.Fatal(err)
		}
		hottest = res.HottestWire()
	}
	b.ReportMetric(float64(hottest), "hottest_wire")
}

// BenchmarkAblationCoupling compares the staggered (weak) and iterated
// (strong) electrothermal coupling of one transient.
func BenchmarkAblationCoupling(b *testing.B) {
	lay, err := coarseSpec().Build()
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []core.CouplingMode{core.WeakCoupling, core.StrongCoupling} {
		b.Run(mode.String(), func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				opt := core.FastOptions()
				opt.Coupling = mode
				opt.EndTime, opt.NumSteps = 50, 25
				sim, err := core.NewSimulator(lay.Problem, opt)
				if err != nil {
					b.Fatal(err)
				}
				res, err := sim.Run()
				if err != nil {
					b.Fatal(err)
				}
				last = res.MaxWireTempAt(len(res.Times) - 1)
			}
			b.ReportMetric(last, "T_max_K")
		})
	}
}

// BenchmarkAblationJouleScheme compares the energy-conserving edge split
// against the paper's cell-average Joule redistribution.
func BenchmarkAblationJouleScheme(b *testing.B) {
	lay, err := coarseSpec().Build()
	if err != nil {
		b.Fatal(err)
	}
	for _, js := range []core.JouleScheme{core.EdgeSplit, core.CellAverage} {
		b.Run(js.String(), func(b *testing.B) {
			var last, imb float64
			for i := 0; i < b.N; i++ {
				opt := core.FastOptions()
				opt.Joule = js
				opt.EndTime, opt.NumSteps = 50, 25
				sim, err := core.NewSimulator(lay.Problem, opt)
				if err != nil {
					b.Fatal(err)
				}
				res, err := sim.Run()
				if err != nil {
					b.Fatal(err)
				}
				last = res.MaxWireTempAt(len(res.Times) - 1)
				imb = res.Stats.MaxEnergyImbalance
			}
			b.ReportMetric(last, "T_max_K")
			b.ReportMetric(imb, "energy_defect")
		})
	}
}

// BenchmarkAblationWireSegments refines the lumped wire into chains and
// compares the end-point QoI (paper model) against the chain maximum,
// cross-checked by the analytic fin midpoint.
func BenchmarkAblationWireSegments(b *testing.B) {
	for _, segs := range []int{1, 4, 16} {
		b.Run(map[int]string{1: "paper-1seg", 4: "chain-4", 16: "chain-16"}[segs], func(b *testing.B) {
			var tmax float64
			for i := 0; i < b.N; i++ {
				spec := coarseSpec()
				spec.WireSegments = segs
				lay, err := spec.Build()
				if err != nil {
					b.Fatal(err)
				}
				opt := core.FastOptions()
				opt.EndTime, opt.NumSteps = 50, 25
				sim, err := core.NewSimulator(lay.Problem, opt)
				if err != nil {
					b.Fatal(err)
				}
				res, err := sim.Run()
				if err != nil {
					b.Fatal(err)
				}
				last := len(res.Times) - 1
				tmax = 0
				for j := range lay.Problem.Wires {
					if v := res.WireMaxTemp[last][j]; v > tmax {
						tmax = v
					}
				}
			}
			b.ReportMetric(tmax, "T_chainmax_K")
		})
	}
}

// BenchmarkAblationTimeIntegrator compares implicit Euler (paper) with the
// trapezoidal rule and BDF2 on accuracy at equal step count, using the
// lumped cooling problem with a known exact solution.
func BenchmarkAblationTimeIntegrator(b *testing.B) {
	for _, integ := range []core.Integrator{core.ImplicitEuler, core.Trapezoidal, core.BDF2} {
		b.Run(integ.String(), func(b *testing.B) {
			var errK float64
			for i := 0; i < b.N; i++ {
				g, err := grid.NewUniform(1e-3, 1e-3, 1e-3, 3, 3, 3)
				if err != nil {
					b.Fatal(err)
				}
				lib, _ := material.NewLibrary(material.Copper())
				prob := &core.Problem{
					Grid: g, CellMat: make([]int, g.NumCells()), Lib: lib,
					ThermalBC: fit.RobinBC{H: 200, TInf: 300},
					TInit:     400,
				}
				sim, err := core.NewSimulator(prob, core.Options{EndTime: 4, NumSteps: 8, TimeIntegrator: integ})
				if err != nil {
					b.Fatal(err)
				}
				res, err := sim.Run()
				if err != nil {
					b.Fatal(err)
				}
				c := material.Copper().VolHeatCap() * 1e-9
				exact := 300 + 100*math.Exp(-200*6e-6*4/c)
				errK = math.Abs(res.FinalField[0] - exact)
			}
			b.ReportMetric(errK, "err_K")
		})
	}
}

// BenchmarkAblationPreconditioner compares CG preconditioners on the
// assembled thermal step matrix of the chip: each iteration builds the
// factor and solves from a cold start. mic0 (NewMIC0 at ω = 1) is the
// thermal factor of every run; ict is the threshold factor the simulator
// ran for FastOptions ensembles until MIC0 won on wall time.
func BenchmarkAblationPreconditioner(b *testing.B) {
	lay, err := coarseSpec().Build()
	if err != nil {
		b.Fatal(err)
	}
	a, rhs := thermalStepMatrix(b, lay)
	for _, kind := range []string{"none", "jacobi", "ic0", "mic0", "ict"} {
		b.Run(kind, func(b *testing.B) {
			var iters int
			for i := 0; i < b.N; i++ {
				var prec solver.Preconditioner
				switch kind {
				case "jacobi":
					prec = solver.NewJacobi(a)
				case "ic0":
					p, err := solver.NewIC0(a)
					if err != nil {
						b.Fatal(err)
					}
					prec = p
				case "mic0":
					p, err := solver.NewMIC0(a, 1)
					if err != nil {
						b.Fatal(err)
					}
					prec = p
				case "ict":
					p, err := solver.NewICT(a, 0, 0)
					if err != nil {
						b.Fatal(err)
					}
					prec = p
				}
				x := make([]float64, a.Rows)
				st, err := solver.CG(a, rhs, x, prec, solver.Options{Tol: 1e-9, MaxIter: 100000})
				if err != nil {
					b.Fatal(err)
				}
				iters = st.Iterations
			}
			b.ReportMetric(float64(iters), "cg_iters")
		})
	}
}

// thermalStepMatrix assembles one implicit-Euler thermal system of the chip.
// The right-hand side is perturbed away from M·300 K, whose solution is the
// constant field: the row-sum-preserving MIC0 factor is exact on constants
// and would solve that system in one CG iteration, so cg_iters would not
// reflect real work.
func thermalStepMatrix(b *testing.B, lay *chipmodel.Layout) (*sparse.CSR, []float64) {
	b.Helper()
	p := lay.Problem
	asm, err := fit.NewAssembler(p.Grid, p.CellMat, p.Lib)
	if err != nil {
		b.Fatal(err)
	}
	ne := p.Grid.NumEdges()
	branches := make([]fit.Branch, ne)
	for e := 0; e < ne; e++ {
		n1, n2 := p.Grid.EdgeNodes(e)
		branches[e] = fit.Branch{N1: n1, N2: n2}
	}
	op, err := fit.NewOperator(p.Grid.NumNodes(), branches)
	if err != nil {
		b.Fatal(err)
	}
	cond := make([]float64, ne)
	asm.EdgeConductances(fit.Thermal, nil, cond)
	op.SetValues(cond)
	mass := asm.MassDiag()
	for i := range mass {
		mass[i] /= 1.0 // dt = 1 s
	}
	op.AddDiag(mass)
	rhs := make([]float64, p.Grid.NumNodes())
	for i := range rhs {
		rhs[i] = mass[i] * 300 * (1 + 0.3*math.Sin(float64(3*i)))
	}
	return op.Matrix(), rhs
}

// BenchmarkAblationSamplers compares the samplers' integration error on the
// fast lumped surrogate at equal budget (the field-model comparison at
// M = 1000 is in EXPERIMENTS.md).
func BenchmarkAblationSamplers(b *testing.B) {
	model := &lumpedSteadyModel{}
	dists := make([]uq.Dist, 12)
	for j := range dists {
		dists[j] = uq.Normal{Mu: 0.17, Sigma: 0.048}
	}
	sobRef, err := uq.NewSobol(12)
	if err != nil {
		b.Fatal(err)
	}
	ref, err := uq.RunEnsemble(uq.SingleFactory(model), dists, sobRef, uq.EnsembleOptions{Samples: 1 << 14})
	if err != nil {
		b.Fatal(err)
	}
	refMean := ref.Mean(0)

	const m = 256
	samplers := map[string]func() uq.Sampler{
		"monte-carlo": func() uq.Sampler { return uq.PseudoRandom{D: 12, Seed: 5} },
		"lhs": func() uq.Sampler {
			l, err := uq.NewLatinHypercube(12, m, 5)
			if err != nil {
				b.Fatal(err)
			}
			return l
		},
		"halton": func() uq.Sampler {
			h, err := uq.NewHalton(12, 5)
			if err != nil {
				b.Fatal(err)
			}
			return h
		},
		"sobol": func() uq.Sampler {
			s, err := uq.NewSobol(12)
			if err != nil {
				b.Fatal(err)
			}
			return s
		},
	}
	for _, name := range []string{"monte-carlo", "lhs", "halton", "sobol"} {
		mk := samplers[name]
		b.Run(name, func(b *testing.B) {
			var errMean float64
			for i := 0; i < b.N; i++ {
				ens, err := uq.RunEnsemble(uq.SingleFactory(model), dists, mk(), uq.EnsembleOptions{Samples: m})
				if err != nil {
					b.Fatal(err)
				}
				errMean = math.Abs(ens.Mean(0) - refMean)
			}
			b.ReportMetric(errMean, "mean_err_K")
		})
	}
}

// BenchmarkAblationCorrelation sweeps the wire-to-wire elongation
// correlation ρ, the sampling-interpretation study behind the σ_MC match.
func BenchmarkAblationCorrelation(b *testing.B) {
	spec := coarseSpec()
	opt := core.FastOptions()
	opt.EndTime, opt.NumSteps = 50, 25
	for _, rho := range []float64{0, study.DefaultRho, 1} {
		b.Run(map[float64]string{0: "rho0-independent", study.DefaultRho: "rho0.3-process", 1: "rho1-common"}[rho], func(b *testing.B) {
			var sig float64
			for i := 0; i < b.N; i++ {
				f7, _, _, err := study.RunPaperStudy(spec, opt, 8, 7, 0, rho)
				if err != nil {
					b.Fatal(err)
				}
				sig = f7.SigmaMC
			}
			b.ReportMetric(sig, "sigma_MC_K")
		})
	}
}

// BenchmarkSolverReuse measures a refresh-plus-solve cycle of the solver
// core in isolation: an in-place refactorization of the ICT preconditioner
// and a workspace-backed CG solve on the chip's thermal step matrix.
// allocs/op is the headline: it must stay at zero. The simulator's thermal
// factor is MIC0 now; this row keeps timing ICT so that its bench-gate
// baseline still compares like with like, and moves to MIC0 with the next
// change to the benchmark.
func BenchmarkSolverReuse(b *testing.B) {
	lay, err := coarseSpec().Build()
	if err != nil {
		b.Fatal(err)
	}
	a, rhs := thermalStepMatrix(b, lay)
	prec, err := solver.NewICT(a, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	ws := solver.NewWorkspace(a.Rows)
	x := make([]float64, a.Rows)
	opt := solver.Options{Tol: 1e-9, MaxIter: 100000}
	if _, err := solver.CGWith(ws, a, rhs, x, prec, opt); err != nil {
		b.Fatal(err)
	}
	var iters int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := prec.Refresh(a); err != nil {
			b.Fatal(err)
		}
		for j := range x {
			x[j] = 0
		}
		st, err := solver.CGWith(ws, a, rhs, x, prec, opt)
		if err != nil {
			b.Fatal(err)
		}
		iters = st.Iterations
	}
	b.ReportMetric(float64(iters), "cg_iters")
}

// BenchmarkMatvec measures the CSR matvec on the chip thermal step matrix:
// the serial kernel CG runs and the row-split MulVecWorkers at eight
// workers. Both sum every row in the same canonical four-accumulator order
// and are bit-identical. At this mesh size the working set is cache
// resident and the kernel is gather-latency bound.
func BenchmarkMatvec(b *testing.B) {
	lay, err := coarseSpec().Build()
	if err != nil {
		b.Fatal(err)
	}
	a, _ := thermalStepMatrix(b, lay)
	n := a.Rows
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = 1 + 0.01*math.Sin(float64(i))
	}
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a.MulVec(y, x)
		}
		b.ReportMetric(float64(a.NNZ()), "nnz")
	})
	b.Run("workers8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a.MulVecWorkers(y, x, 8)
		}
	})
}

// BenchmarkAnalyticBaseline measures the closed-form wire calculator used as
// the comparison baseline.
func BenchmarkAnalyticBaseline(b *testing.B) {
	w := analytic.FinWire{
		Length: 1.55e-3, Diameter: 25.4e-6, Mat: material.Copper(),
		Current: 0.4, TEndA: 300, TEndB: 300, TInf: 300,
	}
	var imax float64
	for i := 0; i < b.N; i++ {
		var err error
		imax, err = w.AllowableCurrent(523)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(imax, "I_allow_A")
}

// BenchmarkWireStamp measures the per-sample wire reconfiguration path of
// the Monte Carlo loop (geometry update + conductance evaluation).
func BenchmarkWireStamp(b *testing.B) {
	w := bondwire.Wire{
		NodeA: 0, NodeB: 1,
		Geom: bondwire.Geometry{Direct: 1.29e-3, DeltaS: 0.26e-3, Diameter: 25.4e-6},
		Mat:  material.Copper(),
	}
	sink := 0.0
	for i := 0; i < b.N; i++ {
		sink += w.ElecConductance(400) + w.ThermalConductance(400)
	}
	if sink <= 0 {
		b.Fatal("bad conductance")
	}
}

// BenchmarkSurrogateQuery measures the surrogate read path the /v1/surrogates
// query endpoint rides: quantile interpolation over the precomputed sample
// set, the exceedance probability, and a what-if germ evaluation. The model
// is built once outside the timed region — queries never touch the FEM
// path, and the PR 9 gate holds the per-query p50 under a millisecond.
func BenchmarkSurrogateQuery(b *testing.B) {
	dists := make([]uq.Dist, 12)
	for j := range dists {
		dists[j] = uq.Normal{Mu: 0.17, Sigma: 0.048}
	}
	model, err := surrogate.Build(context.Background(), uq.SingleFactory(&lumpedSteadyModel{}), dists,
		surrogate.Config{
			ID: "sg-bench", Scenario: "bench-lumped", Level: 3,
			NWires: 1, Times: []float64{600},
			Mu: 0.17, Sigma: 0.048, Rho: 0, TCritK: 523,
		})
	if err != nil {
		b.Fatal(err)
	}
	lo, hi := model.DeltaDomain()
	delta := lo + 0.5*(hi-lo)
	q := surrogate.Query{Quantiles: []float64{0.05, 0.5, 0.95}, Delta: &delta}
	var ans *surrogate.Answer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ans, err = model.Answer(q)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(ans.MeanK, "T_mean_K")
	b.ReportMetric(ans.ErrIndicatorK, "lolo_K")
	b.ReportMetric(float64(model.Evaluations), "build_evals")
}

// lumpedSteadyModel is the fast surrogate used by the sampler ablation.
type lumpedSteadyModel struct{}

func (m *lumpedSteadyModel) Dim() int        { return 12 }
func (m *lumpedSteadyModel) NumOutputs() int { return 1 }
func (m *lumpedSteadyModel) Eval(params, out []float64) error {
	const (
		vPair = 114e-3
		dirD  = 1.29e-3
		diam  = 25.4e-6
	)
	cu := material.Copper()
	area := math.Pi * diam * diam / 4
	power := func(T float64) float64 {
		p := 0.0
		for j := 0; j < 12; j += 2 {
			d1, d2 := clampDelta(params[j]), clampDelta(params[j+1])
			l1 := dirD / (1 - d1)
			l2 := dirD / (1 - d2)
			r := (l1 + l2) / (cu.ElecCond(T) * area)
			p += vPair * vPair / r
		}
		return p
	}
	pkg := analytic.LumpedPackage{C: 0.030, R: 500, TInf: 300, Power: power}
	out[0] = pkg.SteadyState()
	return nil
}

func clampDelta(d float64) float64 {
	if d < 0 {
		return 0
	}
	if d > 0.9 {
		return 0.9
	}
	return d
}
