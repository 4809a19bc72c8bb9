#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it.
#
#   bash benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ there: the binary, the Go build cache and the
# traced phases' spans.
set -euo pipefail

if [[ ! -f go.mod || ! -f benchmark/go.mod ]]; then
	echo "benchmark: run from the repository root (go.mod and benchmark/go.mod not found)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd benchmark && go build -o "$out/obdrel-bench" .)
exec "$out/obdrel-bench" "$@"
