package main

import (
	"fmt"
	"math"
	"time"

	"etherm/internal/chipmodel"
	"etherm/internal/core"
	"etherm/internal/fit"
	"etherm/internal/solver"
)

// transientSpec is one transient workload: the chip, the solver options and
// the pinned hottest-wire end temperature every run must reproduce.
type transientSpec struct {
	chip  chipmodel.Spec
	opt   core.Options
	tMaxK float64 // pinned T_max at the end time
	tolK  float64
}

// coarseSpec is the paper's Table II run on the bench mesh (HMax 0.7 mm,
// 3,640 DOF, 51 time points): the cost every Monte Carlo sample pays.
func coarseSpec() transientSpec {
	s := chipmodel.DATE16Calibrated()
	s.HMax = 0.7e-3
	return transientSpec{chip: s, opt: core.FastOptions(), tMaxK: 501.5, tolK: 0.05}
}

// fineSpec is the same chip at HMax 0.15 mm (17,472 DOF), five steps over
// 50 s. Its thermal CSR matrix (2.0 MB) plus ICT factor (3.0 MB) exceed a
// 2 MB per-core L2, so matvec and preconditioner apply run from L3.
func fineSpec() transientSpec {
	s := chipmodel.DATE16Calibrated()
	s.HMax = 0.15e-3
	opt := core.FastOptions()
	opt.EndTime, opt.NumSteps = 50, 5
	return transientSpec{chip: s, opt: opt, tMaxK: 501.4971, tolK: 1e-3}
}

// transient times Simulator.Run on one chip: latency and throughput are
// per Run.
type transient struct {
	spec transientSpec
	lay  *chipmodel.Layout
	sim  *core.Simulator
	tMax []float64 // T_max of every measured run
}

func newTransient(s transientSpec) *transient { return &transient{spec: s} }

func (w *transient) setup(cfg config, tr *tracer) ([]float64, error) {
	times, err := repeatSetup(cfg, func(i int) error {
		b := tr.begin("chipmodel.build", fmt.Sprintf("setup-%d", i), 0)
		lay, err := w.spec.chip.Build()
		if err != nil {
			return err
		}
		b.end(nil)
		a0 := allocs(tr)
		n := tr.begin("core.newsim", fmt.Sprintf("setup-%d", i), 0)
		sim, err := core.NewSimulator(lay.Problem, w.spec.opt)
		if err != nil {
			return err
		}
		n.end(map[string]float64{"allocs": allocs(tr) - a0, "dof": float64(sim.NumDOF())})
		w.lay, w.sim = lay, sim
		return nil
	})
	if err != nil {
		return nil, err
	}
	_, err = w.sim.Run() // warm-up
	return times, err
}

func (w *transient) measure(tr *tracer, window time.Duration, minOps int) (phase, error) {
	var ph phase
	start := time.Now()
	for i := 0; time.Since(start) < window || len(ph.lat) < minOps; i++ {
		s := tr.begin("core.run", fmt.Sprintf("run-%d", i), 0)
		a0 := allocs(tr)
		t0 := time.Now()
		res, err := w.sim.Run()
		d := time.Since(t0)
		ph.attempted++
		if err != nil {
			return ph, fmt.Errorf("run %d: %w", i, err)
		}
		st := res.Stats
		s.end(map[string]float64{
			"allocs":         allocs(tr) - a0,
			"elec_solves":    float64(st.ElecSolves),
			"therm_solves":   float64(st.ThermSolves),
			"newton_iters":   float64(st.NonlinIters),
			"precond_builds": float64(st.PrecondBuilds),
			"precond_refr":   float64(st.PrecondRefreshes),
			"cg_iters_elec":  float64(st.ElecCGIters),
			"cg_iters_therm": float64(st.ThermCGIters),
		})
		ph.lat = append(ph.lat, ms(d))
		ph.blocks = append(ph.blocks, block{1, d})
		w.tMax = append(w.tMax, res.MaxWireTempAt(len(res.Times)-1))
	}
	return ph, nil
}

func (w *transient) check() []string {
	for i, t := range w.tMax {
		if math.Abs(t-w.spec.tMaxK) > w.spec.tolK {
			return []string{fmt.Sprintf("run %d: T_max %.4f K, want %.4f ± %g K", i, t, w.spec.tMaxK, w.spec.tolK)}
		}
	}
	return nil
}

func (w *transient) layers(tr *tracer, traced phase) (map[string]float64, error) {
	if err := kernelProbes(tr, w.lay, w.spec.opt.LinTol); err != nil {
		return nil, err
	}
	run := func(key string) float64 { return median(tr.counter("core.run", key)) }
	m := map[string]float64{
		"chipmodel.build_ms":        median(tr.durations("chipmodel.build", time.Millisecond)),
		"chipmodel.dof":             median(tr.counter("core.newsim", "dof")),
		"core.newsim_ms":            median(tr.durations("core.newsim", time.Millisecond)),
		"core.newsim_allocs":        median(tr.counter("core.newsim", "allocs")),
		"core.run_allocs":           run("allocs"),
		"core.elec_solves":          run("elec_solves"),
		"core.therm_solves":         run("therm_solves"),
		"core.newton_iters":         run("newton_iters"),
		"core.precond_builds":       run("precond_builds"),
		"core.precond_refreshes":    run("precond_refr"),
		"solver.cg_iters_elec":      run("cg_iters_elec"),
		"solver.cg_iters_therm":     run("cg_iters_therm"),
		"fit.assemble_us":           median(tr.perCall("fit.assemble", time.Microsecond)),
		"sparse.nnz":                median(tr.counter("sparse.matvec", "nnz")),
		"sparse.matvec_us":          median(tr.perCall("sparse.matvec", time.Microsecond)),
		"sparse.matvec_w2_us":       median(tr.perCall("sparse.matvec_w2", time.Microsecond)),
		"solver.precond_build_ms":   median(tr.perCall("solver.precond_build", time.Millisecond)),
		"solver.precond_refresh_us": median(tr.perCall("solver.precond_refresh", time.Microsecond)),
		"solver.precond_apply_us":   median(tr.perCall("solver.precond_apply", time.Microsecond)),
	}
	nnz, n := m["sparse.nnz"], median(tr.counter("sparse.matvec", "rows"))
	// Computed from array sizes, not measured traffic: 8-byte values,
	// 4-byte plan column and row indices, and the x and y vectors.
	m["sparse.matvec_flops_per_byte"] = 2 * nnz / (12*nnz + 4*(n+1) + 16*n)
	iters := tr.counter("solver.cg", "iters")
	cgNS := tr.durations("solver.cg", time.Nanosecond)
	var sumIters, sumNS float64
	for i := range iters {
		sumIters += iters[i]
		sumNS += cgNS[i]
	}
	m["solver.cg_iter_us"] = sumNS / sumIters / 1e3
	// Shares of the median Run, computed from the probe costs and the
	// per-Run counts: one assembly per linear solve, one probe-priced
	// iteration per CG iteration.
	runUS := 1e3 * median(traced.lat)
	m["fit.assemble_share"] = (m["core.elec_solves"] + m["core.therm_solves"]) * m["fit.assemble_us"] / runUS
	m["solver.cg_share"] = (m["solver.cg_iters_elec"] + m["solver.cg_iters_therm"]) * m["solver.cg_iter_us"] / runUS
	return m, nil
}

func (w *transient) close() {}

// kernelProbes replays the workload's own thermal step matrix — assembled
// through the public fit API the way the simulator assembles it — through
// each kernel in isolation and records one span per batch of calls.
func kernelProbes(tr *tracer, lay *chipmodel.Layout, tol float64) error {
	p := lay.Problem
	asm, err := fit.NewAssembler(p.Grid, p.CellMat, p.Lib)
	if err != nil {
		return err
	}
	ne := p.Grid.NumEdges()
	branches := make([]fit.Branch, ne)
	for e := range branches {
		n1, n2 := p.Grid.EdgeNodes(e)
		branches[e] = fit.Branch{N1: n1, N2: n2}
	}
	op, err := fit.NewOperator(p.Grid.NumNodes(), branches)
	if err != nil {
		return err
	}
	cond := make([]float64, ne)
	probe(tr, "fit.assemble", nil, func() {
		asm.EdgeConductances(fit.Thermal, nil, cond)
		op.SetValues(cond)
	})
	op.AddDiag(asm.MassDiag()) // implicit Euler with Δt = 1 s
	a := op.Matrix()
	n := a.Rows
	x, y := make([]float64, n), make([]float64, n)
	for i := range x {
		x[i] = 1 + 0.01*math.Sin(float64(i))
	}
	size := map[string]float64{"nnz": float64(a.NNZ()), "rows": float64(n)}
	probe(tr, "sparse.matvec", size, func() { a.MulVec(y, x) })
	probe(tr, "sparse.matvec_w2", size, func() { a.MulVecWorkers(y, x, maxWorkers) })

	var prec *solver.CholPrec
	var probeErr error
	keep := func(err error) {
		if probeErr == nil {
			probeErr = err
		}
	}
	probe(tr, "solver.precond_build", nil, func() {
		var err error
		prec, err = solver.NewICT(a, 0, 0)
		keep(err)
	})
	if probeErr != nil {
		return probeErr
	}
	probe(tr, "solver.precond_refresh", nil, func() { keep(prec.Refresh(a)) })
	if probeErr != nil {
		return probeErr
	}
	probe(tr, "solver.precond_apply", nil, func() { prec.Apply(y, x) })

	// A right-hand side away from the constant field, so CG does real work.
	rhs := make([]float64, n)
	mass := asm.MassDiag()
	for i := range rhs {
		rhs[i] = 300 * mass[i] * (1 + 0.3*math.Sin(float64(3*i)))
	}
	ws := solver.NewWorkspace(n)
	for k := 0; k < 5; k++ {
		clear(x)
		s := tr.begin("solver.cg", fmt.Sprintf("cg-%d", k), 0)
		st, err := solver.CGWith(ws, a, rhs, x, prec, solver.Options{Tol: tol, MaxIter: 10000})
		if err != nil {
			return err
		}
		s.end(map[string]float64{"iters": float64(st.Iterations)})
	}
	return nil
}

// probe times fn in batches: each batch runs fn enough times to last about
// a millisecond and is one span whose "calls" counter gives the count.
func probe(tr *tracer, name string, counters map[string]float64, fn func()) {
	t0 := time.Now()
	fn() // warm caches and size the batch
	calls := max(1, int(time.Millisecond/max(time.Since(t0), time.Nanosecond)))
	const batches = 15
	for b := 0; b < batches; b++ {
		c := map[string]float64{"calls": float64(calls)}
		for k, v := range counters {
			c[k] = v
		}
		s := tr.begin(name, fmt.Sprintf("batch-%d", b), 0)
		for i := 0; i < calls; i++ {
			fn()
		}
		s.end(c)
	}
}
