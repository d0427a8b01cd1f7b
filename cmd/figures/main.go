// Command figures regenerates every table and figure of the paper into an
// output directory:
//
//	table1.txt            material properties @ 300 K (Table I)
//	table2.txt            simulation parameters (Table II)
//	fig1_house.txt        the discrete electrothermal house (Fig. 1)
//	fig3_measurements.csv synthetic X-ray measurement campaign (Fig. 3/4)
//	fig5_pdf.csv/.txt     elongation histogram + normal fit (Fig. 5)
//	fig6_mesh.txt/.vtk    chip model and hexahedral mesh (Fig. 6)
//	fig7_series.csv/.txt  E_max(t) ± 6σ vs T_crit from Monte Carlo (Fig. 7)
//	fig8_field.vtk/.csv/.txt  temperature field at t = 50 s (Fig. 8)
//	fig8_wires.csv        nominal run: every wire's temperature history
//	summary.txt           paper-vs-measured summary for EXPERIMENTS.md
//
// Usage: figures [-out out] [-samples 200] [-workers 0] [-preset date16-calibrated] [-seed 2016]
//
// Scenario studies beyond these artifacts (other chips, samplers, streaming
// and sharded campaigns) run through cmd/etbatch scenario files.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"etherm/internal/asciiplot"
	"etherm/internal/chipmodel"
	"etherm/internal/core"
	"etherm/internal/fit"
	"etherm/internal/material"
	"etherm/internal/measure"
	"etherm/internal/stats"
	"etherm/internal/study"
	"etherm/internal/vtkio"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		outDir  = flag.String("out", "out", "output directory")
		samples = flag.Int("samples", 200, "Monte Carlo samples for Fig. 7 (paper: 1000)")
		workers = flag.Int("workers", 0, "parallel workers")
		preset  = flag.String("preset", "date16-calibrated", "chip preset: date16|date16-calibrated")
		seed    = flag.Uint64("seed", 2016, "RNG seed")
	)
	flag.Parse()
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}

	var spec chipmodel.Spec
	switch *preset {
	case "date16":
		spec = chipmodel.DATE16()
	case "date16-calibrated":
		spec = chipmodel.DATE16Calibrated()
	default:
		return fmt.Errorf("unknown preset %q", *preset)
	}

	var summary strings.Builder
	fmt.Fprintf(&summary, "etherm figure harness — preset %s, M = %d, seed %d\n", *preset, *samples, *seed)
	fmt.Fprintf(&summary, "generated %s\n\n", time.Now().Format(time.RFC3339))

	if err := table1(*outDir); err != nil {
		return err
	}
	if err := table2(*outDir, spec); err != nil {
		return err
	}
	if err := fig1(*outDir); err != nil {
		return err
	}
	if _, err := fig35(*outDir, *seed, &summary); err != nil {
		return err
	}
	lay, err := fig6(*outDir, spec, &summary)
	if err != nil {
		return err
	}
	if err := fig7(*outDir, spec, *samples, *seed, *workers, &summary); err != nil {
		return err
	}
	if err := fig8(*outDir, lay, &summary); err != nil {
		return err
	}

	if err := os.WriteFile(filepath.Join(*outDir, "summary.txt"), []byte(summary.String()), 0o644); err != nil {
		return err
	}
	fmt.Println(summary.String())
	fmt.Printf("all artifacts written to %s/\n", *outDir)
	return nil
}

func table1(outDir string) error {
	var b strings.Builder
	b.WriteString("Table I: material properties @ T = 300 K\n\n")
	fmt.Fprintf(&b, "%-12s %-12s %14s %14s\n", "Region", "Material", "lambda [W/K/m]", "sigma [S/m]")
	rows := []struct {
		region string
		m      material.Model
	}{
		{"Compound", material.EpoxyResin()},
		{"Contact pad", material.Copper()},
		{"Chip", material.Copper()},
		{"Bonding wire", material.Copper()},
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %-12s %14.4g %14.4g\n",
			r.region, r.m.Name(), r.m.ThermCond(300), r.m.ElecCond(300))
	}
	b.WriteString("\npaper: epoxy 0.87 / 1e-6; copper 398 / 5.80e7 — reproduced exactly (inputs).\n")
	return os.WriteFile(filepath.Join(outDir, "table1.txt"), []byte(b.String()), 0o644)
}

func table2(outDir string, spec chipmodel.Spec) error {
	lay, err := spec.Build()
	if err != nil {
		return err
	}
	var b strings.Builder
	b.WriteString("Table II: simulation parameters\n\n")
	fmt.Fprintf(&b, "%-34s %-14s %s\n", "Parameter", "Paper", "This repo")
	row := func(name, paper, ours string) { fmt.Fprintf(&b, "%-34s %-14s %s\n", name, paper, ours) }
	row("Bonding wire voltage Vbw", "40 mV", fmt.Sprintf("%.0f mV (%s)", lay.PairVoltage()*1e3, presetNote(spec)))
	row("End time", "50 s", "50 s")
	row("No. of time steps", "51", "51 (50 steps + initial state)")
	row("No. of MC samples", "1000", "configurable; headline run 1000")
	row("Wires' diameter", "25.4 um", fmt.Sprintf("%.1f um", spec.WireDiameter*1e6))
	row("Average wires' length L", "1.55 mm", fmt.Sprintf("%.3g mm", lay.MeanLength()*1e3))
	row("Ambient temperature", "300 K", fmt.Sprintf("%g K", spec.TAmbient))
	row("Heat transfer coefficient", "25 W/m2/K", fmt.Sprintf("%g W/m2/K", spec.HTC))
	row("Emissivity", "0.2475", fmt.Sprintf("%g", spec.Emissivity))
	return os.WriteFile(filepath.Join(outDir, "table2.txt"), []byte(b.String()), 0o644)
}

func presetNote(spec chipmodel.Spec) string {
	if spec.DriveV == chipmodel.DATE16().DriveV {
		return "faithful"
	}
	return "power-calibrated, see DESIGN.md"
}

func fig1(outDir string) error {
	spec := chipmodel.DATE16()
	spec.HMax = 0.7e-3 // a coarse grid is enough to illustrate the operators
	lay, err := spec.Build()
	if err != nil {
		return err
	}
	asm, err := fit.NewAssembler(lay.Problem.Grid, lay.Problem.CellMat, lay.Problem.Lib)
	if err != nil {
		return err
	}
	house := asm.BuildHouse(nil)
	if err := house.Verify(); err != nil {
		return fmt.Errorf("house verification failed: %w", err)
	}
	txt := house.Render(lay.Problem.Grid) + "\nstructural identities verified: S~ = -G^T, G*1 = 0, M diag > 0\n"
	return os.WriteFile(filepath.Join(outDir, "fig1_house.txt"), []byte(txt), 0o644)
}

func fig35(outDir string, seed uint64, summary *strings.Builder) (*measure.FitResult, error) {
	res, err := measure.DefaultCampaign(seed).FitElongationPDF(8)
	if err != nil {
		return nil, err
	}
	// Fig. 3/4: the per-wire measurement table.
	f, err := os.Create(filepath.Join(outDir, "fig3_measurements.csv"))
	if err != nil {
		return nil, err
	}
	w := csv.NewWriter(f)
	w.Write([]string{"wire", "d_mm", "true_ds_mm", "true_dh_mm", "dh_visible", "meas_dh_mm", "meas_L_mm", "delta"})
	for i, s := range res.Samples {
		w.Write([]string{
			fmt.Sprintf("%d", i+1),
			fmt.Sprintf("%.4f", s.True.Direct*1e3),
			fmt.Sprintf("%.4f", s.True.DeltaS*1e3),
			fmt.Sprintf("%.4f", s.True.DeltaH*1e3),
			fmt.Sprintf("%v", s.DHSeen),
			fmt.Sprintf("%.4f", s.Measured.DeltaH*1e3),
			fmt.Sprintf("%.4f", s.Measured.Length()*1e3),
			fmt.Sprintf("%.4f", res.Deltas[i]),
		})
	}
	w.Flush()
	f.Close()
	if err := w.Error(); err != nil {
		return nil, err
	}

	// Fig. 5: histogram + fitted normal PDF.
	f5, err := os.Create(filepath.Join(outDir, "fig5_pdf.csv"))
	if err != nil {
		return nil, err
	}
	w5 := csv.NewWriter(f5)
	w5.Write([]string{"delta", "hist_density", "fit_pdf", "paper_pdf"})
	paper := stats.NormalFit{Mu: 0.17, Sigma: 0.048}
	for b := 0; b < len(res.Histogram.Counts); b++ {
		x := res.Histogram.BinCenter(b)
		w5.Write([]string{
			fmt.Sprintf("%.4f", x),
			fmt.Sprintf("%.4f", res.Histogram.Density(b)),
			fmt.Sprintf("%.4f", res.Fit.PDF(x)),
			fmt.Sprintf("%.4f", paper.PDF(x)),
		})
	}
	w5.Flush()
	f5.Close()

	txt := fmt.Sprintf("Fig. 5: relative elongation PDF from %d synthetic measurements\n"+
		"fitted: N(mu=%.3f, sigma=%.3f)   paper: N(0.170, 0.048)   KS distance %.3f\n",
		len(res.Deltas), res.Fit.Mu, res.Fit.Sigma, res.KSDistance)
	if err := os.WriteFile(filepath.Join(outDir, "fig5_fit.txt"), []byte(txt), 0o644); err != nil {
		return nil, err
	}
	fmt.Fprintf(summary, "Fig. 5  elongation fit: mu=%.3f sigma=%.3f (paper 0.170 / 0.048, 12 samples)\n",
		res.Fit.Mu, res.Fit.Sigma)
	return res, nil
}

func fig6(outDir string, spec chipmodel.Spec, summary *strings.Builder) (*chipmodel.Layout, error) {
	lay, err := spec.Build()
	if err != nil {
		return nil, err
	}
	g := lay.Problem.Grid
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 6: chip model and hexahedral mesh\n\n")
	fmt.Fprintf(&b, "mold      %.3g x %.3g x %.3g mm\n", spec.MoldLx*1e3, spec.MoldLy*1e3, spec.MoldH*1e3)
	fmt.Fprintf(&b, "chip      %.3g x %.3g x %.3g mm (offset y %.3g mm)\n", spec.ChipLx*1e3, spec.ChipLy*1e3, spec.ChipH*1e3, spec.ChipOffsetY*1e3)
	fmt.Fprintf(&b, "pads      %d total (%d long), w=%.3g mm, len=%.3g/%.3g mm\n",
		len(lay.Pads), 4, spec.PadW*1e3, spec.PadLen*1e3, spec.PadLenLong*1e3)
	fmt.Fprintf(&b, "wires     %d in %d pairs, diameter %.1f um, mean direct d=%.3g mm, mean L=%.3g mm\n",
		len(lay.Wires), 6, spec.WireDiameter*1e6, lay.MeanDirect()*1e3, lay.MeanLength()*1e3)
	fmt.Fprintf(&b, "mesh      %d x %d x %d nodes = %d, %d cells, %d edges\n",
		g.Nx, g.Ny, g.Nz, g.NumNodes(), g.NumCells(), g.NumEdges())
	for i, w := range lay.Wires {
		fmt.Fprintf(&b, "  wire %2d  %-5s pad %2d pair %d pol %+g  d = %.4g mm\n",
			i, w.Side, w.PadID, w.Pair, w.Polarity, w.Direct*1e3)
	}
	if err := os.WriteFile(filepath.Join(outDir, "fig6_mesh.txt"), []byte(b.String()), 0o644); err != nil {
		return nil, err
	}
	mats := make([]float64, g.NumCells())
	for c := range mats {
		mats[c] = float64(lay.Problem.CellMat[c])
	}
	if err := vtkio.WriteRectilinearFile(filepath.Join(outDir, "fig6_materials.vtk"), g,
		"chip model materials", vtkio.Field{Name: "material", Values: mats, OnCell: true}); err != nil {
		return nil, err
	}
	fmt.Fprintf(summary, "Fig. 6  mesh: %d nodes, %d cells; 28 pads, 12 wires, mean L %.3g mm (paper 1.55 mm)\n",
		g.NumNodes(), g.NumCells(), lay.MeanLength()*1e3)
	return lay, nil
}

func fig7(outDir string, spec chipmodel.Spec, samples int, seed uint64, workers int, summary *strings.Builder) error {
	opt := core.FastOptions()
	f7, lay, camp, err := study.RunPaperStudy(spec, opt, samples, seed, workers, study.DefaultRho)
	if err != nil {
		return err
	}
	last := len(f7.Times) - 1
	hot := f7.HotSeries()
	errs := make([]float64, len(hot))
	for i := range errs {
		errs[i] = 6 * f7.SigmaHot[i]
	}
	p := asciiplot.LinePlot{
		Title:  fmt.Sprintf("Fig. 7: E[T_hot](t) ±6 sigma, M=%d (%s)", camp.Succeeded(), camp.SamplerName),
		XLabel: "time (s)", YLabel: "temperature (K)",
		Series: []asciiplot.Series{{Name: "hottest wire ±6 sigma", X: f7.Times, Y: hot, Err: errs, Marker: '*'}},
		HLines: map[string]float64{"T_critical 523 K": f7.TCritical},
	}
	stat := fmt.Sprintf("Fig. 7 statistics (M=%d)\n"+
		"E_max(50 s) = %.2f K (paper: ~500 K)\n"+
		"sigma_MC    = %.3f K (paper: 4.65 K)\n"+
		"error_MC    = %.3f K (paper: 0.147 K, eq. 6)\n"+
		"6-sigma band crosses T_crit at %s (paper: t ~ 26 s)\n"+
		"hottest wire: %d on %s side (shortest wires, cf. Fig. 8 discussion)\n"+
		"stationary by 50 s: %v (paper: stationary after ~50 s)\n",
		camp.Succeeded(), f7.EMax[last], f7.SigmaMC, f7.ErrorMC,
		crossStr(f7.Cross6Sig), f7.HotWire, lay.Wires[f7.HotWire].Side, f7.Stationary(2.0))
	if err := os.WriteFile(filepath.Join(outDir, "fig7_ascii.txt"), []byte(p.Render()+"\n"+stat), 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, "fig7_stats.txt"), []byte(stat), 0o644); err != nil {
		return err
	}
	if err := writeFig7CSV(filepath.Join(outDir, "fig7_series.csv"), f7); err != nil {
		return err
	}
	fmt.Fprintf(summary, "Fig. 7  E_max(50s)=%.2f K, sigma_MC=%.3f K, error_MC=%.3f K, 6-sigma crossing %s (M=%d)\n",
		f7.EMax[last], f7.SigmaMC, f7.ErrorMC, crossStr(f7.Cross6Sig), camp.Succeeded())
	return nil
}

func crossStr(t float64) string {
	if math.IsNaN(t) {
		return "never"
	}
	return fmt.Sprintf("t=%.1f s", t)
}

func writeFig7CSV(path string, f *study.Fig7) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	defer fh.Close()
	w := csv.NewWriter(fh)
	nw := len(f.EWire[0])
	header := []string{"time_s", "E_max_K", "E_hot_K", "sigma_hot_K", "lower6_K", "upper6_K"}
	for j := 0; j < nw; j++ {
		header = append(header, fmt.Sprintf("E_w%02d", j), fmt.Sprintf("s_w%02d", j))
	}
	w.Write(header)
	hot := f.HotSeries()
	for t := range f.Times {
		row := []string{
			fmt.Sprintf("%g", f.Times[t]),
			fmt.Sprintf("%.4f", f.EMax[t]),
			fmt.Sprintf("%.4f", hot[t]),
			fmt.Sprintf("%.4f", f.SigmaHot[t]),
			fmt.Sprintf("%.4f", hot[t]-6*f.SigmaHot[t]),
			fmt.Sprintf("%.4f", hot[t]+6*f.SigmaHot[t]),
		}
		for j := 0; j < nw; j++ {
			row = append(row, fmt.Sprintf("%.4f", f.EWire[t][j]), fmt.Sprintf("%.4f", f.SWire[t][j]))
		}
		w.Write(row)
	}
	w.Flush()
	return w.Error()
}

func fig8(outDir string, lay *chipmodel.Layout, summary *strings.Builder) error {
	sim, err := core.NewSimulator(lay.Problem, core.Options{})
	if err != nil {
		return err
	}
	res, err := sim.Run()
	if err != nil {
		return err
	}
	g := lay.Problem.Grid
	if err := vtkio.WriteRectilinearFile(filepath.Join(outDir, "fig8_field.vtk"), g,
		"temperature field at t = 50 s",
		vtkio.Field{Name: "temperature", Values: res.FinalField},
		vtkio.Field{Name: "potential", Values: res.FinalPhi}); err != nil {
		return err
	}
	if err := writeWiresCSV(filepath.Join(outDir, "fig8_wires.csv"), res); err != nil {
		return err
	}
	// Slice at the bond-plane (chip top).
	k := nearestLineIndex(g.Zs, lay.Chip.Z1)
	fs, err := os.Create(filepath.Join(outDir, "fig8_slice.csv"))
	if err != nil {
		return err
	}
	if err := vtkio.WriteSliceCSV(fs, g, res.FinalField, k); err != nil {
		fs.Close()
		return err
	}
	fs.Close()

	slice := make([]float64, g.Nx*g.Ny)
	for j := 0; j < g.Ny; j++ {
		for i := 0; i < g.Nx; i++ {
			slice[j*g.Nx+i] = res.FinalField[g.NodeIndex(i, j, k)]
		}
	}
	heat := asciiplot.Heatmap(slice, g.Nx, g.Ny, "Fig. 8: temperature at t = 50 s, bond-plane slice")
	last := len(res.Times) - 1
	note := fmt.Sprintf("\nhottest wire: %d (north side — the side with the shortest wires/closest contacts)\n"+
		"max wire temperature %.2f K, total power %.3g W, boundary loss %.3g W (stationary balance %.1f%%)\n",
		res.HottestWire(), res.MaxWireTempAt(last),
		res.FieldPower[last]+res.WirePowerTotal[last], res.BoundaryLoss[last],
		100*res.BoundaryLoss[last]/(res.FieldPower[last]+res.WirePowerTotal[last]))
	if err := os.WriteFile(filepath.Join(outDir, "fig8_ascii.txt"), []byte(heat+note), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(summary, "Fig. 8  nominal field at 50 s: T_max,wire=%.2f K, hottest wire %d (north), energy balance closed to %.2g\n",
		res.MaxWireTempAt(last), res.HottestWire(), res.Stats.MaxEnergyImbalance)
	return nil
}

// writeWiresCSV writes the nominal run's per-time-point history: hottest
// wire, total and boundary power, and every wire's temperature.
func writeWiresCSV(path string, res *core.Result) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	defer fh.Close()
	w := csv.NewWriter(fh)
	header := []string{"time_s", "T_max_K", "P_total_W", "P_boundary_W"}
	for j := range res.WireTemp[0] {
		header = append(header, fmt.Sprintf("T_w%02d_K", j))
	}
	w.Write(header)
	for t := range res.Times {
		row := []string{
			fmt.Sprintf("%g", res.Times[t]),
			fmt.Sprintf("%.4f", res.MaxWireTempAt(t)),
			fmt.Sprintf("%.6g", res.FieldPower[t]+res.WirePowerTotal[t]),
			fmt.Sprintf("%.6g", res.BoundaryLoss[t]),
		}
		for _, v := range res.WireTemp[t] {
			row = append(row, fmt.Sprintf("%.4f", v))
		}
		w.Write(row)
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return err
	}
	return fh.Close()
}

func nearestLineIndex(line []float64, v float64) int {
	best, bd := 0, math.Inf(1)
	for i, x := range line {
		if d := math.Abs(x - v); d < bd {
			best, bd = i, d
		}
	}
	return best
}
