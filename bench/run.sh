#!/usr/bin/env bash
# bench/run.sh — build simbench from source and run it with the given
# arguments (see bench/README.md). BENCHMARK.json's command is
#   bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
# Run from the root of a checkout. Everything built or written stays
# inside the checkout: the Go build cache, the compiler's temporary files
# and the binary under .bench_build/, results, trace files and scratch
# state under bench/out/.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d bench/cmd/simbench ]; then
	echo "bench/run.sh: run from the root of a checkout (go.mod and bench/cmd/simbench must exist)" >&2
	exit 3
fi
root=$PWD
mkdir -p "$root/.bench_build/tmp" "$root/bench/out"
export GOCACHE="$root/.bench_build/gocache" GOTMPDIR="$root/.bench_build/tmp"
export GOTOOLCHAIN=local GOWORK=off
go build -o "$root/.bench_build/simbench" ./bench/cmd/simbench
exec "$root/.bench_build/simbench" -out bench/out "$@"
