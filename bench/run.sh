#!/usr/bin/env bash
# The BENCHMARK.json command: build the runner and benchd from source into
# .bench_build (inside the checkout, like everything else this writes) and
# run them from the root of the checkout. Arguments are passed through:
#   --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run
#   [--seed <n>] [--seconds <s>] [--quick]                     every workload, untraced then traced
#   compare A B                                                two result directories
set -euo pipefail
cd "$(dirname "$0")/.."
# bench/ is a module of its own that builds against the module around it.
# Without that module there is nothing to measure: stop before starting go.
if [ ! -f go.mod ] || [ ! -d internal/wiera ]; then
	echo "bench: no program to measure in $PWD (go.mod and internal/ are missing)" >&2
	exit 1
fi
build="$PWD/.bench_build"
# The go command keeps its state under the checkout and starts nothing that
# outlives it: with telemetry in its default mode the first go command of
# the day spawns an uploader child that is still running when go returns.
mkdir -p "$build/config/go/telemetry"
echo off >"$build/config/go/telemetry/mode"
export XDG_CONFIG_HOME="$build/config" GOCACHE="$build/gocache" GOPATH="$build/gopath"
export GOENV=off GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd bench && go build -o "$build/" ./cmd/bench ./cmd/benchd)
if [ "${1:-}" = compare ]; then
	exec "$build/bench" "$@"
fi
exec "$build/bench" -out "$build/results" "$@"
