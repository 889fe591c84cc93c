#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload hot-hit --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under the build
# directory ($CARGO_TARGET_DIR, default .bench_build): the Go build
# cache, the binary, and the spans of traced runs.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/gocache" "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOTOOLCHAIN=local

(cd perfbench && go build -o "$out/perfbench" .)

exec "$out/perfbench" --spans-dir "$out/spans" "$@"
