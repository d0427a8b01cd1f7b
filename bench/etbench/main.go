// Command etbench is the etherm benchmark: it runs one named workload in
// this process, times every call into the program from outside, checks the
// program's outputs, and prints its metrics.
//
//	etbench --workload <name> --seed <n> [--seconds 20] [--trace 0|1]
//	etbench compare -bench BENCHMARK.json -dir <dir>
//	etbench reference [-samples n] [-seed n]
//
// The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; a human-readable table
// goes to standard error. With --trace 0 the metrics are the end-to-end
// metrics of BENCHMARK.json, measured untraced. With --trace 1 the measured
// phase runs twice, untraced and then traced; the metrics are the per-layer
// metrics, computed from the traced half's spans, which are also written to
// <trace-dir>/<workload>.json. The exit status is 1 when an output check
// fails and 2 on bad usage.
//
// bench/README.md describes the workloads and metrics; bench/run.sh builds
// and runs this program the way BENCHMARK.json's command does.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// maxWorkers is the thread budget of every workload: two worker goroutines
// (or client connections) on a two-core machine.
const maxWorkers = 2

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"transient-coarse", "transient-fine", "mc-campaign", "uq-cheap", "served-mix"}

// config is one run's settings.
type config struct {
	workload     string
	seed         uint64
	window       time.Duration // length of the measured phase
	trace        bool
	traceDir     string
	tmpDir       string // scratch space for the served-mix job store
	minOps       int    // latency samples a phase collects even past its window
	maxSetupReps int    // caps the timed set-ups behind setup_s (see repeatSetup)
}

// Every workload repeats its complete set-up for at least setupSpan and at
// least minSetupReps times; setup_s is the median. A set-up that takes
// microseconds, timed over a few milliseconds only, reads whatever burst of
// contention from other tenants those milliseconds fell into: its median
// moved by a factor of two between processes.
const (
	setupSpan    = time.Second
	minSetupReps = 5
)

// repeatSetup runs setup(i) for i = 0, 1, … as setupSpan and minSetupReps
// ask, or cfg.maxSetupReps times if that is fewer, and returns each run's
// duration in seconds.
func repeatSetup(cfg config, setup func(i int) error) ([]float64, error) {
	var times []float64
	start := time.Now()
	for i := 0; i < cfg.maxSetupReps && (i < minSetupReps || time.Since(start) < setupSpan); i++ {
		t0 := time.Now()
		if err := setup(i); err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return times, nil
}

// phase is what one measured phase of a workload collected.
type phase struct {
	lat       []float64 // ms, one per operation of the latency path
	blocks    []block   // timed stretches of the throughput path
	attempted int
	failed    int
}

// block is a stretch of the throughput path: units of work completed in
// dur of wall time.
type block struct {
	units int
	dur   time.Duration
}

// rates returns the fastest block's rate and the rate over all blocks.
func (ph phase) rates() (peak, mean float64) {
	var units int
	var dur time.Duration
	for _, b := range ph.blocks {
		peak = max(peak, float64(b.units)/b.dur.Seconds())
		units += b.units
		dur += b.dur
	}
	return peak, float64(units) / dur.Seconds()
}

// workload is one named benchmark workload. Its methods run in order:
// setup once, measure once untraced (and once more traced with --trace 1),
// then check, layers and close.
type workload interface {
	// setup builds what measuring needs, timing repeated complete set-ups
	// (seconds each), then warms caches with untimed work.
	setup(cfg config, tr *tracer) ([]float64, error)
	// measure runs the closed loop for window, and at least minOps
	// latency operations.
	measure(tr *tracer, window time.Duration, minOps int) (phase, error)
	// check verifies every output collected so far and returns the
	// failed checks.
	check() []string
	// layers computes per-layer metrics from the traced phase's spans,
	// running the workload's kernel probes.
	layers(tr *tracer, traced phase) (map[string]float64, error)
	close()
}

func newWorkload(name string, in *inputs) workload {
	switch name {
	case "transient-coarse":
		return newTransient(coarseSpec())
	case "transient-fine":
		return newTransient(fineSpec())
	case "mc-campaign":
		return &mcCampaign{in: in}
	case "uq-cheap":
		return &uqCheap{in: in}
	case "served-mix":
		return &servedMix{in: in}
	}
	return nil
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(runCompare(os.Args[2:]))
		case "reference":
			os.Exit(runReference(os.Args[2:]))
		}
	}
	var cfg config
	var seconds float64
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: "+fmt.Sprint(workloadNames))
	flag.Uint64Var(&cfg.seed, "seed", 0, "input seed (required)")
	flag.Float64Var(&seconds, "seconds", 20, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1 = per-layer metrics from a traced run")
	flag.StringVar(&cfg.traceDir, "trace-dir", ".bench_build/trace", "where --trace 1 writes <workload>.json")
	flag.StringVar(&cfg.tmpDir, "tmp-dir", ".bench_build/tmp", "scratch directory")
	flag.Parse()
	seedSet := false
	flag.Visit(func(f *flag.Flag) { seedSet = seedSet || f.Name == "seed" })
	if !slices.Contains(workloadNames, cfg.workload) || !seedSet || seconds < 0 || (trace != 0 && trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: etbench --workload <name> --seed <n> [--seconds s] [--trace 0|1]")
		os.Exit(2)
	}
	cfg.window = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace == 1
	cfg.minOps = tailMargin + 1
	cfg.maxSetupReps = math.MaxInt
	runtime.GOMAXPROCS(maxWorkers)

	res, err := execute(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "etbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "etbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// execute runs one workload and assembles its result.
func execute(cfg config) (*result, error) {
	w := newWorkload(cfg.workload, genInputs(cfg.seed))
	defer w.close()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	setupS, err := w.setup(cfg, tr)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	window := cfg.window
	if cfg.trace {
		window /= 2
	}
	// Return the set-up's garbage to the OS, so rss_mib is the measured
	// loop's own footprint rather than what the scavenger had not yet
	// released.
	debug.FreeOSMemory()
	stopRSS := sampleRSS()
	ph, err := w.measure(nil, window, cfg.minOps)
	rss, rssErr := stopRSS()
	if err = errors.Join(err, rssErr); err != nil {
		return nil, err
	}
	attempted, failed := ph.attempted, ph.failed
	var traced phase
	if cfg.trace {
		if traced, err = w.measure(tr, window, cfg.minOps); err != nil {
			return nil, err
		}
		attempted += traced.attempted
		failed += traced.failed
	}
	fails := w.check()
	for _, f := range fails {
		fmt.Fprintln(os.Stderr, "etbench: check failed:", f)
	}
	res := &result{
		Correct:   len(fails) == 0 && failed == 0,
		Attempted: attempted + len(fails),
		Failed:    failed + len(fails),
		Metrics:   make(map[string]metricValue),
	}

	// Medians, tails and mean rates go to standard error only: they carry
	// the host's noise (see e2eMetrics).
	tailV, tailPct := tail(ph.lat)
	peak, mean := ph.rates()
	fmt.Fprintf(os.Stderr, "%s seed %d: %d latency samples, median %.4g ms, p%.1f %.4g ms; %d throughput blocks, mean %.6g/s; %d/%d attempted/failed\n",
		cfg.workload, cfg.seed, len(ph.lat), median(ph.lat), tailPct, tailV, len(ph.blocks), mean, res.Attempted, res.Failed)
	values := map[string]float64{}
	units := map[string]string{}
	if !cfg.trace {
		values[mSetup] = median(setupS)
		values[mLatencyMin] = slices.Min(ph.lat)
		values[mThroughputPeak] = peak
		values[mRSS] = median(rss)
		for _, m := range e2eMetrics {
			units[m.Name] = m.Unit
		}
	} else {
		got, err := w.layers(tr, traced)
		if err != nil {
			return nil, fmt.Errorf("per-layer metrics: %w", err)
		}
		got["trace.overhead"] = slices.Min(traced.lat)/slices.Min(ph.lat) - 1
		for _, m := range layerMetrics {
			values[m.name] = got[m.name] // 0 for layers this workload never calls
			units[m.name] = m.unit
		}
		path, err := tr.write(cfg.traceDir, cfg.workload, cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintln(os.Stderr, "spans written to", path)
	}
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := values[n]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", n, v)
		}
		res.Metrics[n] = metricValue{Value: v, Unit: units[n]}
		fmt.Fprintf(os.Stderr, "  %-30s %14.6g %s\n", n, v, units[n])
	}
	return res, nil
}

// rssEvery is how often the resident set size is sampled while measuring.
const rssEvery = 100 * time.Millisecond

// sampleRSS samples the process's resident set size every rssEvery until
// the returned function is called; that function waits for the sampler to
// exit and returns the samples in MiB. The median of the samples, unlike
// the peak, does not hang on how far one garbage-collection cycle let the
// heap overshoot.
func sampleRSS() (stop func() ([]float64, error)) {
	done, exited := make(chan struct{}), make(chan struct{})
	var samples []float64
	var err error
	go func() {
		defer close(exited)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			var mib float64
			if mib, err = rssMiB(); err != nil {
				return
			}
			samples = append(samples, mib)
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() ([]float64, error) {
		close(done)
		<-exited
		return samples, err
	}
}

// rssMiB reads the resident set size from /proc/self/statm.
func rssMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("unexpected /proc/self/statm %q", b)
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, fmt.Errorf("/proc/self/statm: %w", err)
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// allocs returns the process's cumulative heap allocation count when
// tracing (reading it stops the world, so untraced runs skip it).
func allocs(tr *tracer) float64 {
	if tr == nil {
		return 0
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Mallocs)
}
