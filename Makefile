GO ?= go

# bench-json/bench-smoke pipe `go test` into benchjson; pipefail makes a
# failing benchmark fail the pipeline instead of hiding behind the parser's
# exit status.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

# Benchmarks tracked by bench-json; BENCH_OUT is the trajectory file each PR
# appends its machine-local baseline to (PR 2 recorded BENCH_PR2.json, PR 4
# BENCH_PR4.json, PR 8 BENCH_PR8.json, PR 9 BENCH_PR9.json, PR 10
# BENCH_PR10.json — the baseline the bench-gate compares against).
# BenchmarkCampaignStreaming carries the retained-heap metric of the
# streaming campaign path (the hard memory gate lives in internal/uq tests);
# BenchmarkMatvec tracks the CSR kernel variants (scalar reference,
# cache-blocked, parallel) that carry the CG inner loop;
# BenchmarkSurrogateQuery tracks the surrogate read path (the p50 < 1ms
# query-latency acceptance of the /v1/surrogates API); BenchmarkRareSolves
# reports the solves metric — limit-state evaluations each estimator (MC,
# RQMC, subset simulation) needs to reach CoV ≤ 0.3 on the same planted
# rare event — the headline economics of the rare-event engine.
BENCH_PATTERN ?= BenchmarkTable2NominalRun|BenchmarkFig7MonteCarlo|BenchmarkSolverReuse|BenchmarkCampaignStreaming|BenchmarkMatvec|BenchmarkSurrogateQuery|BenchmarkRareSolves
# Packages holding tracked benchmarks (the root package carries the paper
# artifacts; internal/rare carries the estimator-economy benchmark).
BENCH_PKGS ?= . ./internal/rare
BENCH_OUT ?= BENCH_PR10.json
BENCH_TIME ?= 3x
BENCH_BASELINE ?= BENCH_PR10.json
BENCH_TOLERANCE ?= 0.25
# Wall-time tolerance for the gate (0 = BENCH_TOLERANCE). CI passes a
# looser value because single-iteration ns/op on shared runners is noisy
# and the committed baseline is machine-local; allocs/op and retained_B
# are deterministic and stay at BENCH_TOLERANCE.
BENCH_TIME_TOLERANCE ?= 0
STATICCHECK_VERSION ?= 2025.1.1

.PHONY: all build verify test vet fmt-check race staticcheck openapi-check bench-test cli-smoke bench bench-json bench-smoke bench-gate profile fuzz-smoke load-smoke chaos-smoke govulncheck demo clean

all: build

# verify is the fast tier-1 gate mirrored by CI's verify job; race,
# staticcheck and bench-gate are the heavier CI jobs, runnable locally too.
verify: build vet fmt-check openapi-check test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# race mirrors CI's race job: the full suite under the race detector (the
# coordinator/worker fleet paths and the SSE hub soak are the hot spots it
# watches), with shuffled test order so inter-test state dependencies
# cannot hide.
race:
	$(GO) test -race -shuffle=on -timeout 30m ./...

# staticcheck mirrors CI's pinned staticcheck job. Installs on demand when
# the binary is missing (requires network once).
staticcheck:
	@command -v staticcheck >/dev/null || $(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	staticcheck ./...

# openapi-check validates openapi.yaml and diffs its path/method surface
# against the authoritative route table api.Routes() — the spec, the server
# mux and the SDK share that table, so drift fails the build.
openapi-check:
	$(GO) run ./cmd/openapicheck -spec openapi.yaml

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# bench-test vets and tests the benchmark harness (bench/, its own Go
# module, ~18 s), which the root `go test ./...` never builds: an API change
# in uq, rare or any other package etbench calls must fail here, not first
# when the benchmark runs. CI's verify job runs it.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# cli-smoke runs the two command-line front doors end to end: the paper
# artifact generator (Fig. 7 at M = 4, the Fig. 8 field and the nominal
# all-wire history, ~7 s) and the bundled scenario suite (nominal, Monte
# Carlo, Sobol' and Smolyak scenarios, ~30 s on 2 cores). CI's verify job
# runs it.
cli-smoke:
	$(GO) run ./cmd/figures -samples 4 -out out/cli-smoke/figures
	$(GO) run ./cmd/etbatch -bundled -out out/cli-smoke/etbatch.json

# bench regenerates the paper's tables and figures (expensive).
bench:
	$(GO) test -bench . -benchtime 1x -timeout 60m

# bench-json runs the tracked tier-1-adjacent benchmarks and writes a JSON
# trajectory file (ns/op, allocs/op, headline metrics) for regression
# tracking across PRs.
bench-json:
	$(GO) test $(BENCH_PKGS) -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem \
		-benchtime $(BENCH_TIME) -timeout 60m \
		| $(GO) run ./cmd/benchjson -out $(BENCH_OUT)

# bench-smoke is the CI variant: JSON written to BENCH_SMOKE_OUT (uploaded
# as a CI artifact) — it proves the benchmarks and the JSON pipeline stay
# alive and preserves the per-commit trajectory. It runs at BENCH_TIME, the
# run length bench-json wrote the committed baseline at, so bench-gate
# compares like with like.
BENCH_SMOKE_OUT ?= out/bench_smoke.json
bench-smoke:
	@mkdir -p $(dir $(BENCH_SMOKE_OUT))
	$(GO) test $(BENCH_PKGS) -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem \
		-benchtime $(BENCH_TIME) -timeout 30m \
		| $(GO) run ./cmd/benchjson -out $(BENCH_SMOKE_OUT)

# bench-gate fails when tracked ns/op, allocs/op, retained_B or solves
# regress beyond BENCH_TOLERANCE against the committed BENCH_BASELINE
# (solves — limit-state evaluations to the target CoV — is seeded and
# deterministic, so a tighter estimator economy can be held like a heap
# bound). Reuses the bench-smoke output when present, else runs
# bench-smoke first.
BENCH_GATE_METRICS ?= retained_B,solves
bench-gate: $(if $(wildcard $(BENCH_SMOKE_OUT)),,bench-smoke)
	$(GO) run ./cmd/benchjson -compare $(BENCH_BASELINE) \
		-in $(BENCH_SMOKE_OUT) -tolerance $(BENCH_TOLERANCE) \
		-time-tolerance $(BENCH_TIME_TOLERANCE) \
		-gate-metrics $(BENCH_GATE_METRICS)

# profile captures a CPU profile of the nominal-run benchmark (the hot
# path: FIT reassembly + preconditioned CG) and prints the top consumers.
# Inspect interactively with `go tool pprof out/table2.test out/cpu.out`;
# for a live server use `etserver -pprof 127.0.0.1:6060` instead.
PROFILE_BENCH ?= BenchmarkTable2NominalRun
profile:
	@mkdir -p out
	$(GO) test -run '^$$' -bench '$(PROFILE_BENCH)' -benchtime 5x \
		-cpuprofile out/cpu.out -o out/table2.test -timeout 30m
	$(GO) tool pprof -top -nodecount 15 out/table2.test out/cpu.out

# fuzz-smoke gives each fuzzer a short budget on top of its committed
# corpus — CI runs this on every push; long exploratory runs stay local
# (`go test -fuzz ... -fuzztime 10m`). FuzzWALReplay/FuzzSnapshotDecode
# cover the jobstore crash-recovery decoders; FuzzScrambledSobol checks
# the Owen-scrambled Sobol' invariants (range, determinism, coordinate
# balance) over arbitrary dimension/seed/index triples.
FUZZ_TIME ?= 15s
fuzz-smoke:
	$(GO) test ./internal/jobstore -run '^$$' -fuzz '^FuzzWALReplay$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/jobstore -run '^$$' -fuzz '^FuzzSnapshotDecode$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/rare -run '^$$' -fuzz '^FuzzScrambledSobol$$' -fuzztime $(FUZZ_TIME)

# load-smoke drives cmd/etload against an in-process server: a sustained
# throughput pass plus the surrogate read-traffic phase (500 queries from 16
# concurrent clients against a cheap surrogate, zero errors tolerated, the
# out-of-domain fallback contract probed), then a fan-out pass that must hold
# ≥1000 concurrent SSE watchers with zero dropped terminal events. Nonzero
# exit on any drop, failed job, query error or watcher shortfall gates CI;
# the JSON latency reports are uploaded as artifacts by the bench-gate job.
LOAD_SMOKE_OUT ?= out/etload.json
LOAD_SMOKE_FANOUT_OUT ?= out/etload_fanout.json
load-smoke:
	@mkdir -p $(dir $(LOAD_SMOKE_OUT))
	$(GO) run ./cmd/etload -self -jobs 200 -watchers 100 \
		-min-peak-watchers 100 \
		-surrogate-queries 500 -surrogate-queriers 16 -out $(LOAD_SMOKE_OUT)
	$(GO) run ./cmd/etload -self -jobs 20 -watchers 1000 -anchors 8 \
		-min-peak-watchers 1000 -out $(LOAD_SMOKE_FANOUT_OUT)

# chaos-smoke is the robustness gate: the etload run repeated under
# deterministic fault injection with a pinned seed (any failure replays
# from the spec recorded in the report) — the process must survive, no
# watcher may lose its terminal event, and the sharded fleet merge must
# stay bit-identical to a clean run through the injected re-lease storm.
# Then a real etserver process is drained with SIGTERM and must exit 0.
CHAOS_SEED ?= 20160607
CHAOS_SMOKE_OUT ?= out/etload_chaos.json
CHAOS_ADDR ?= 127.0.0.1:18766
chaos-smoke:
	@mkdir -p out
	$(GO) run ./cmd/etload -self -chaos -chaos-seed $(CHAOS_SEED) \
		-jobs 30 -watchers 40 -anchors 3 -concurrency 8 \
		-timeout 5m -out $(CHAOS_SMOKE_OUT)
	$(GO) build -o out/etserver ./cmd/etserver
	@out/etserver -addr $(CHAOS_ADDR) -drain-timeout 20s & pid=$$!; \
	up=0; for i in $$(seq 1 50); do \
		if curl -fsS http://$(CHAOS_ADDR)/healthz >/dev/null 2>&1; then up=1; break; fi; \
		sleep 0.2; \
	done; \
	if [ "$$up" != 1 ]; then echo "etserver never became healthy"; kill $$pid; exit 1; fi; \
	kill -TERM $$pid; \
	if wait $$pid; then echo "SIGTERM drain: clean exit"; else \
		echo "SIGTERM drain: etserver exited nonzero"; exit 1; fi

# govulncheck scans the module against the Go vulnerability database.
# Installs on demand when the binary is missing (requires network once).
govulncheck:
	@command -v govulncheck >/dev/null || $(GO) install golang.org/x/vuln/cmd/govulncheck@latest
	govulncheck ./...

# demo runs the bundled batch scenario suite.
demo:
	$(GO) run ./cmd/etbatch -bundled -out out/etbatch_manifest.json

clean:
	rm -rf out
