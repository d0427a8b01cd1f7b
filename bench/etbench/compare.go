package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// runCompare reads paired A/B runs and prints one verdict row per
// (end-to-end metric, workload). For each workload it reads
// <dir>/<workload>.parent.jsonl and <dir>/<workload>.change.jsonl, one
// result line per run, where line i of both files is the i-th pair.
// Workloads without both files are skipped. It exits 1 when any metric
// regressed.
func runCompare(args []string) int {
	fset := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fset.String("bench", "BENCHMARK.json", "benchmark definition with the bounds")
	dir := fset.String("dir", "out/ab", "directory of <workload>.{parent,change}.jsonl")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	b, err := loadBenchmark(*benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "etbench compare:", err)
		return 2
	}
	regressed := false
	fmt.Printf("%-18s %-22s %5s %14s %14s %8s  %s\n", "workload", "metric", "pairs", "parent p50", "change p50", "Δ", "verdict")
	for _, w := range b.Workloads {
		parent, err1 := readRuns(filepath.Join(*dir, w.Name+".parent.jsonl"))
		change, err2 := readRuns(filepath.Join(*dir, w.Name+".change.jsonl"))
		if errors.Is(err1, fs.ErrNotExist) || errors.Is(err2, fs.ErrNotExist) {
			continue
		}
		if err := errors.Join(err1, err2); err != nil {
			fmt.Fprintln(os.Stderr, "etbench compare:", err)
			return 2
		}
		n := min(len(parent), len(change))
		for _, m := range b.EndToEnd {
			p, c := column(parent[:n], m.Name), column(change[:n], m.Name)
			if len(p) != n || len(c) != n || n < 2 {
				fmt.Printf("%-18s %-22s %5d %14s %14s %8s  %s\n", w.Name, m.Name, n, "-", "-", "-", "missing")
				continue
			}
			v := verdict(p, c, m.Better == higher, m.Bound)
			regressed = regressed || v == verdictRegressed
			pm, cm := median(p), median(c)
			fmt.Printf("%-18s %-22s %5d %14.6g %14.6g %+7.1f%%  %s\n", w.Name, m.Name, n, pm, cm, 100*(cm-pm)/pm, v)
		}
	}
	if regressed {
		return 1
	}
	return 0
}

// readRuns reads one result object per line.
func readRuns(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// column returns one metric of every correct run that reports it.
func column(runs []result, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.Metrics[name]; ok && r.Correct {
			out = append(out, v.Value)
		}
	}
	return out
}
