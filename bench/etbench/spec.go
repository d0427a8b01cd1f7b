package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"slices"
	"strings"
)

// benchmarkFile is BENCHMARK.json: the command, the workloads and every
// metric the benchmark reports, with the bound by which each end-to-end
// metric may worsen before a change counts as a regression.
type benchmarkFile struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []workloadEntry `json:"workloads"`
	EndToEnd   []e2eEntry      `json:"end_to_end"`
	PerLayer   []layerEntry    `json:"per_layer"`
}

type workloadEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type e2eEntry struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerEntry struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// Metric directions.
const (
	lower  = "lower"
	higher = "higher"
)

// End-to-end metrics, reported by every workload from the untraced run.
// Each workload gives its latency path and throughput path a concrete
// operation; see bench/README.md. Latency and throughput are best-case
// statistics (fastest operation, fastest block): on a shared host other
// tenants move medians and tails by tens of percent from run to run, and
// they only ever slow an operation down.
const (
	mSetup          = "setup_s"
	mLatencyMin     = "latency_min_ms"
	mThroughputPeak = "throughput_peak_per_s"
	mRSS            = "rss_mib"
)

var e2eMetrics = []layerEntry{
	{mSetup, "s", lower},
	{mLatencyMin, "ms", lower},
	{mThroughputPeak, "1/s", higher},
	{mRSS, "MiB", lower},
}

// layerMetric is one per-layer metric of the traced run: the layer is the
// name's prefix, and moves/workload name the end-to-end metric it should
// move and the workload on which it should move it. Workloads that never
// call a layer report its metrics as 0.
type layerMetric struct {
	name, unit, better string
	moves, workload    string
}

var layerMetrics = []layerMetric{
	{"chipmodel.build_ms", "ms", lower, mSetup, "transient-fine"},
	{"chipmodel.dof", "count", lower, mSetup, "transient-fine"},
	{"core.newsim_ms", "ms", lower, mSetup, "transient-fine"},
	{"core.newsim_allocs", "count", lower, mSetup, "transient-fine"},
	{"core.run_allocs", "count", lower, mLatencyMin, "transient-coarse"},
	{"core.elec_solves", "count", lower, mLatencyMin, "transient-coarse"},
	{"core.therm_solves", "count", lower, mLatencyMin, "transient-coarse"},
	{"core.newton_iters", "count", lower, mLatencyMin, "transient-coarse"},
	{"core.precond_builds", "count", lower, mLatencyMin, "transient-coarse"},
	{"core.precond_refreshes", "count", lower, mLatencyMin, "transient-coarse"},
	{"fit.assemble_us", "us", lower, mLatencyMin, "transient-coarse"},
	{"fit.assemble_share", "share", lower, mLatencyMin, "transient-coarse"},
	{"sparse.nnz", "count", lower, mLatencyMin, "transient-fine"},
	{"sparse.matvec_us", "us", lower, mLatencyMin, "transient-fine"},
	{"sparse.matvec_w2_us", "us", lower, mLatencyMin, "transient-fine"},
	{"sparse.matvec_flops_per_byte", "flop/B", higher, mLatencyMin, "transient-fine"},
	{"solver.cg_iters_elec", "count", lower, mLatencyMin, "transient-coarse"},
	{"solver.cg_iters_therm", "count", lower, mLatencyMin, "transient-coarse"},
	{"solver.precond_build_ms", "ms", lower, mLatencyMin, "transient-coarse"},
	{"solver.precond_refresh_us", "us", lower, mLatencyMin, "transient-coarse"},
	{"solver.precond_apply_us", "us", lower, mLatencyMin, "transient-fine"},
	{"solver.cg_iter_us", "us", lower, mLatencyMin, "transient-fine"},
	{"solver.cg_share", "share", lower, mLatencyMin, "transient-fine"},
	{"uq.eval_p50_us", "us", lower, mThroughputPeak, "uq-cheap"},
	{"uq.busy_share", "share", higher, mThroughputPeak, "uq-cheap"},
	{"uq.fold_overhead_s", "s", lower, mThroughputPeak, "uq-cheap"},
	{"uq.cg_iters", "count", lower, mThroughputPeak, "mc-campaign"},
	{"rare.levels", "count", lower, mLatencyMin, "uq-cheap"},
	{"rare.accept_rate", "share", higher, mLatencyMin, "uq-cheap"},
	{"rare.cov", "share", lower, mLatencyMin, "uq-cheap"},
	{"rare.busy_share", "share", higher, mLatencyMin, "uq-cheap"},
	{"rare.solves_to_cov", "count", lower, mLatencyMin, "uq-cheap"},
	{"surrogate.build_s", "s", lower, mSetup, "served-mix"},
	{"surrogate.answer_us", "us", lower, mThroughputPeak, "served-mix"},
	{"server.submit_ms", "ms", lower, mLatencyMin, "served-mix"},
	{"server.queue_ms", "ms", lower, mLatencyMin, "served-mix"},
	{"server.run_ms", "ms", lower, mLatencyMin, "served-mix"},
	{"server.notify_ms", "ms", lower, mLatencyMin, "served-mix"},
	{"server.rejected_429", "count", lower, mLatencyMin, "served-mix"},
	{"server.cg_iters_per_job", "count", lower, mLatencyMin, "served-mix"},
	{"server.query_rtt_us", "us", lower, mThroughputPeak, "served-mix"},
	{"server.query_http_us", "us", lower, mThroughputPeak, "served-mix"},
	{"jobstore.fsync_ms", "ms", lower, mLatencyMin, "served-mix"},
	{"jobstore.fsyncs_per_job", "count", lower, mLatencyMin, "served-mix"},
	{"jobstore.wal_bytes_per_job", "B", lower, mLatencyMin, "served-mix"},
	{"trace.overhead", "share", lower, mLatencyMin, "uq-cheap"},
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// loadBenchmark reads and validates a BENCHMARK.json file.
func loadBenchmark(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	b, err := parseBenchmark(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// parseBenchmark decodes BENCHMARK.json and checks its format: exact key
// sets, name, unit and path syntax, the count limits, bounds of at most
// 0.25 and a setup_s metric.
func parseBenchmark(raw []byte) (*benchmarkFile, error) {
	if len(raw) > 64<<10 {
		return nil, fmt.Errorf("file is %d bytes, over 64 KiB", len(raw))
	}
	var b benchmarkFile
	if err := exactKeys(raw, &b, "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"); err != nil {
		return nil, err
	}
	var top map[string][]json.RawMessage
	_ = json.Unmarshal(raw, &top) // the arrays decoded above
	for key, want := range map[string][]string{
		"workloads":  {"name", "why"},
		"end_to_end": {"name", "unit", "better", "bound"},
		"per_layer":  {"name", "unit", "better"},
	} {
		for i, e := range top[key] {
			var m map[string]any
			if err := exactKeys(e, &m, want...); err != nil {
				return nil, fmt.Errorf("%s[%d]: %w", key, i, err)
			}
		}
	}

	var errs []string
	fail := func(format string, args ...any) { errs = append(errs, fmt.Sprintf(format, args...)) }
	if n := len(b.Command); n < 1 || n > 32 {
		fail("command has %d strings, want 1..32", n)
	}
	for _, c := range b.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || slices.Contains(strings.Split(c, "/"), "..") {
			fail("command string %q is too long or leaves the repository", c)
		}
	}
	if n := len(b.Paths); n < 1 || n > 16 {
		fail("paths has %d entries, want 1..16", n)
	}
	for _, p := range b.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || slices.Contains(strings.Split(p, "/"), "..") {
			fail("path %q is not a relative path inside the repository", p)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		fail("run_seconds %d outside 1..60", b.RunSeconds)
	}
	if n := len(b.Workloads); n < 2 || n > 8 {
		fail("%d workloads, want 2..8", n)
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 {
		fail("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		fail("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			fail("%s name %q does not match %s", kind, n, nameRE)
		}
		if seen[n] {
			fail("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range b.Workloads {
		name("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			fail("workload %s needs a one-line why of at most 200 characters", w.Name)
		}
	}
	metric := func(kind, n, unit, better string) {
		name(kind, n)
		if !unitRE.MatchString(unit) {
			fail("%s %s: unit %q does not match %s", kind, n, unit, unitRE)
		}
		if better != lower && better != higher {
			fail("%s %s: better is %q, want lower or higher", kind, n, better)
		}
	}
	hasSetup := false
	for _, m := range b.EndToEnd {
		metric("end-to-end metric", m.Name, m.Unit, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			fail("end-to-end metric %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == mSetup {
			hasSetup = m.Unit == "s" && m.Better == lower
		}
	}
	if !hasSetup {
		fail("no setup_s metric with unit s and better lower")
	}
	for _, m := range b.PerLayer {
		metric("per-layer metric", m.Name, m.Unit, m.Better)
	}
	if len(errs) > 0 {
		return nil, fmt.Errorf("invalid benchmark file:\n  %s", strings.Join(errs, "\n  "))
	}
	return &b, nil
}

// exactKeys decodes one JSON object into v, rejecting unknown keys and
// requiring every wanted key to be present.
func exactKeys(raw []byte, v any, want ...string) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		return err
	}
	for _, k := range want {
		if _, ok := keys[k]; !ok {
			return fmt.Errorf("missing key %q", k)
		}
	}
	if len(keys) != len(want) {
		return fmt.Errorf("keys %v, want exactly %v", mapKeys(keys), want)
	}
	return nil
}

func mapKeys(m map[string]json.RawMessage) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}
