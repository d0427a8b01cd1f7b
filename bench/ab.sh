#!/usr/bin/env bash
# Same-machine A/B of the working tree (the change) against <ref> (the
# parent):
#
#   bench/ab.sh <ref> [pairs] [workload ...]
#
# Builds <ref> in a git worktree under out/ with this tree's bench/ copied
# over it, so both sides run identical benchmark code, then runs at least
# 10 alternating parent/change pairs per workload (pair i uses seed i on
# both sides; odd pairs run the parent first) and prints
# `etbench compare`'s verdict per (metric, workload). Runs land in out/ab/.
set -euo pipefail

ref=${1:?usage: bench/ab.sh <ref> [pairs] [workload ...]}
pairs=${2:-10}
shift $(($# < 2 ? $# : 2))
if ((pairs < 10)); then
	echo "ab.sh: the comparison rule needs at least 10 pairs" >&2
	exit 2
fi

root=$(git rev-parse --show-toplevel)
cd "$root"
ab=out/ab
wt=out/ab-parent
rm -rf "$ab"
mkdir -p "$ab/tmp"
git worktree remove --force "$wt" 2>/dev/null || true
git worktree add --detach "$wt" "$ref" >/dev/null
trap 'git worktree remove --force "$wt"' EXIT
rm -rf "$wt/bench"
cp -R bench "$wt/bench"

export GOTOOLCHAIN=local GOFLAGS=-mod=readonly
(cd bench && go build -o "$root/$ab/etbench.change" ./etbench)
(cd "$wt/bench" && go build -o "$root/$ab/etbench.parent" ./etbench)

read -r seconds < <(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
if (($# == 0)); then
	set -- $(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
fi

# run <side> <workload> <seed>: one run, its result line appended to
# $ab/<workload>.<side>.jsonl (a failed run without a result counts as
# incorrect).
run() {
	local line
	line=$("$ab/etbench.$1" --workload "$2" --seed "$3" --seconds "$seconds" --trace 0 \
		--trace-dir "$ab/trace" --tmp-dir "$ab/tmp" 2>>"$ab/$2.$1.log" | tail -n 1) || true
	[[ $line == "{"* ]] || line='{"correct":false,"attempted":1,"failed":1,"metrics":{}}'
	echo "$line" >>"$ab/$2.$1.jsonl"
}

for w in "$@"; do
	for ((i = 1; i <= pairs; i++)); do
		if ((i % 2)); then
			run parent "$w" "$i"
			run change "$w" "$i"
		else
			run change "$w" "$i"
			run parent "$w" "$i"
		fi
		echo "ab.sh: $w pair $i/$pairs done" >&2
	done
done
"$ab/etbench.change" compare -bench BENCHMARK.json -dir "$ab"
