#!/usr/bin/env bash
# Builds etbench from this checkout and runs one workload, passing every
# argument through. BENCHMARK.json's command; run it from the repository
# root:
#
#   bash bench/run.sh --workload transient-coarse --seed 2016 --seconds 20 --trace 0
#
# The binary, the Go build cache, the Go tool's configuration and telemetry
# directory, scratch files and --trace 1 span files all stay under
# .bench_build/ in the checkout. Without the program's sources next to
# bench/ the build fails and so does this script.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly CGO_ENABLED=0
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
(cd bench && go build -o "$out/etbench" ./etbench)
exec "$out/etbench" --trace-dir "$out/trace" --tmp-dir "$out/tmp" "$@"
