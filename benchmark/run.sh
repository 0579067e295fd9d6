#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout root:
#
#   bash benchmark/run.sh -workload table5_sampled -seed 1 [-seconds 15] [-trace 0|1]
#
# Flags may also be spelled with two dashes. The Go build cache, the
# binary and every temporary file live under .bench_build/ at the
# checkout root, so a run reads and writes nothing outside the checkout
# beyond the Go toolchain itself.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
(cd "$root/benchmark" && go build -o "$out/sbstbench" .)
cd "$root"
exec "$out/sbstbench" "$@"
