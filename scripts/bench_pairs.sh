#!/usr/bin/env bash
# Paired benchmark runs of a parent revision against this checkout, for one
# workload of BENCHMARK.json, folded into BENCH_<pr>.json at the repo root —
# the committed record of what a performance change did (ROADMAP aim 1).
#
#   scripts/bench_pairs.sh <parent-rev> <workload> <pairs> <out.json>
#   make perf-pairs PARENT=<rev> W=<workload> N=10        # out = BENCH_<pr>.json
#
# The parent's committed files are unpacked under .bench_build/ and each
# side is built and run by its own bench/run.sh, exactly as the driver runs
# it: pair i is `--workload W --seed i --seconds 15 --trace 0` on both sides,
# odd pairs parent first, even pairs change first, never two runs at once.
# Nothing under bench/ and not BENCHMARK.json is touched; the runs' last
# stdout lines (and full result files) are kept in .bench_build/pairs/<workload>/
# and summarised by scripts/benchpairs (medians, quartiles, wins, verdict
# under the bound).
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 4 ]; then
	echo "usage: $0 <parent-rev> <workload> <pairs> <out.json>" >&2
	exit 2
fi
parent_rev=$(git rev-parse --verify "$1^{commit}")
workload=$2 pairs=$3 out=$4

parent_dir="$PWD/.bench_build/parent"
runs_dir="$PWD/.bench_build/pairs/$workload"
rm -rf "$parent_dir" "$runs_dir"
mkdir -p "$parent_dir" "$runs_dir"
git archive "$parent_rev" | tar -x -C "$parent_dir"

# A run that starts with the 1-minute load average above half the cores is
# marked noisy and is no evidence, so each run first waits for a quiet box:
# 0.4 of the cores, leaving headroom for the build run.sh does before it
# reads the load.
wait_quiet() {
	while awk -v n="$(nproc)" '{ exit !($1 > n * 0.4) }' /proc/loadavg; do
		sleep 5
	done
}

# run.sh builds into a cache inside each checkout before it reads its
# arguments, and the parent's cache starts empty: build both sides once up
# front (`compare` with no directories builds, then exits with its usage),
# so no measured run starts on the load of a cold build.
for dir in "$parent_dir" "$PWD"; do
	(cd "$dir" && bash bench/run.sh compare >/dev/null 2>&1) || true
done

# one <side> <checkout> <pair>: a run's stdout ends with its one-line JSON.
one() {
	wait_quiet
	echo "== $workload pair $3/$pairs: $1 ==" >&2
	(cd "$2" && bash bench/run.sh --workload "$workload" --seed "$3" --seconds 15 --trace 0) |
		tail -n 1 >"$runs_dir/$1_$3.json"
	# The full result keeps the run's environment: load at start, noisy flag.
	cp "$2/.bench_build/results/$workload.json" "$runs_dir/$1_$3.full.json"
}

for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then
		one parent "$parent_dir" "$i"
		one change "$PWD" "$i"
	else
		one change "$PWD" "$i"
		one parent "$parent_dir" "$i"
	fi
done

go run ./scripts/benchpairs -benchmark BENCHMARK.json -dir "$runs_dir" -pairs "$pairs" \
	-workload "$workload" -parent "$parent_rev" -out "$out"
echo "wrote $workload to $out" >&2
